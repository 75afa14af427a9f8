//! The protocol message exchanged along a graph edge each DiBA round.
//!
//! Extracted here so every execution substrate speaks the same payload:
//! the simulator (`crate::diba_async`) and the deployable node runtime
//! (`dpc-runtime`, which wraps it in a versioned wire frame). Keeping the
//! payload in the algorithm crate means a substrate cannot silently add
//! fields the math does not account for.

/// One round's state exchange from a node to one neighbor.
///
/// Pairwise conservation is the contract: the sender subtracts `transfer`
/// from its own residual when it sends, the receiver adds it on receipt, so
/// `Σe` is invariant under messaging regardless of delivery order. `e` is
/// advisory (the sender's residual *after* its local action this round);
/// `transfer` is mass and must never be dropped silently — a transport that
/// fails to deliver must report it so the sender can reclaim.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundMsg {
    /// Sender's residual estimate after its action this round (watts).
    pub e: f64,
    /// Slack donated to the receiver this round (watts, ≤ 0).
    pub transfer: f64,
}

impl RoundMsg {
    /// `true` when both fields are finite — the only payloads the solvers
    /// produce and the only ones a transport should accept.
    pub fn is_finite(&self) -> bool {
        self.e.is_finite() && self.transfer.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_check() {
        assert!(RoundMsg::default().is_finite());
        assert!(RoundMsg {
            e: -3.0,
            transfer: -0.5
        }
        .is_finite());
        assert!(!RoundMsg {
            e: f64::NAN,
            transfer: 0.0
        }
        .is_finite());
        assert!(!RoundMsg {
            e: 0.0,
            transfer: f64::INFINITY
        }
        .is_finite());
    }
}
