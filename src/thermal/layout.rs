//! Room layout and the synthetic heat cross-interference matrix **D**.
//!
//! The paper derives **D** from 6SigmaRoom CFD simulations of an
//! 80-rack, 8-row room with CRACs along the sides (Fig. 3.9); only the
//! abstract matrix reaches the algorithms (Eq. 2.2: `T_in = T_sup + D·p`).
//! Here **D** is synthesized from the same geometry with a physically
//! plausible structure: recirculation decays exponentially with distance,
//! hot exhaust preferentially loads racks *behind* the source in the same
//! row, and racks near the CRAC intakes at the room's sides recirculate
//! less. The calibration constant is chosen so a fully loaded room raises
//! the hottest inlet by ≈10 °C, matching the supply temperatures the paper
//! reports (Table 5.2-scale).

use super::matrix::Matrix;

/// A machine-room geometry: `rows` aisles of `racks_per_row` racks, CRAC
/// intakes along both side walls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoomLayout {
    /// Number of rack rows (aisles).
    pub rows: usize,
    /// Racks per row.
    pub racks_per_row: usize,
}

impl RoomLayout {
    /// The paper's experimental room: 8 rows × 10 racks (80 racks of 40
    /// servers = 3200 servers).
    pub(crate) fn paper_cluster() -> RoomLayout {
        RoomLayout {
            rows: 8,
            racks_per_row: 10,
        }
    }

    /// Total rack count.
    pub(crate) fn racks(&self) -> usize {
        self.rows * self.racks_per_row
    }

    /// `(row, position)` coordinates of rack `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn coords(&self, i: usize) -> (usize, usize) {
        assert!(i < self.racks(), "rack {i} out of range");
        (i / self.racks_per_row, i % self.racks_per_row)
    }

    /// Physical distance between racks, in rack pitches. Rows are spaced
    /// two pitches apart (hot/cold aisle pairs).
    pub(crate) fn distance(&self, i: usize, j: usize) -> f64 {
        let (ri, ci) = self.coords(i);
        let (rj, cj) = self.coords(j);
        let dr = 2.0 * (ri as f64 - rj as f64);
        let dc = ci as f64 - cj as f64;
        (dr * dr + dc * dc).sqrt()
    }

    /// Distance of rack `i` to the nearest side wall (CRAC intake), in rack
    /// pitches. Racks close to the intake recirculate less.
    pub(crate) fn crac_proximity(&self, i: usize) -> f64 {
        let (_, c) = self.coords(i);
        let from_left = c as f64;
        let from_right = (self.racks_per_row - 1 - c) as f64;
        from_left.min(from_right)
    }

    /// Synthesizes the heat cross-interference matrix **D** (°C per watt).
    ///
    /// `D[(i, j)]` is the inlet-temperature rise at rack `i` per watt
    /// dissipated at rack `j`. Nonnegative, with larger entries for nearby
    /// sources, downstream (same-row, higher-index) racks, and racks far
    /// from the CRAC intakes.
    pub(crate) fn heat_matrix(&self) -> Matrix {
        let n = self.racks();
        let mut d = Matrix::zeros(n, n);
        // Decay length in rack pitches and base magnitude calibrated so a
        // fully loaded paper-scale room (≈6.8 kW/rack) peaks at ≈+10 °C.
        let decay = 2.5_f64;
        let base = 5.0e-5_f64;
        for i in 0..n {
            // Exposure grows with distance from the CRAC intake walls.
            let exposure = 0.5 + 0.18 * self.crac_proximity(i);
            for j in 0..n {
                let dist = if i == j { 1.0 } else { self.distance(i, j) };
                let (ri, ci) = self.coords(i);
                let (rj, cj) = self.coords(j);
                // Exhaust drifts along the row toward the room center:
                // same-row neighbors couple more strongly.
                let same_row = if ri == rj && ci != cj { 1.6 } else { 1.0 };
                d[(i, j)] = base * exposure * same_row * (-dist / decay).exp();
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_dimensions() {
        let l = RoomLayout::paper_cluster();
        assert_eq!(l.racks(), 80);
        assert_eq!(l.coords(0), (0, 0));
        assert_eq!(l.coords(79), (7, 9));
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        let l = RoomLayout::paper_cluster();
        assert_eq!(l.distance(3, 3), 0.0);
        assert_eq!(l.distance(0, 1), 1.0);
        assert_eq!(l.distance(0, 10), 2.0); // adjacent rows, two pitches
        assert!((l.distance(5, 17) - l.distance(17, 5)).abs() < 1e-12);
    }

    #[test]
    fn heat_matrix_is_nonnegative_and_distance_decaying() {
        let l = RoomLayout {
            rows: 4,
            racks_per_row: 6,
        };
        let d = l.heat_matrix();
        let n = l.racks();
        for i in 0..n {
            for j in 0..n {
                assert!(d[(i, j)] >= 0.0);
            }
        }
        // Same-row near neighbor couples more strongly than a far one.
        assert!(d[(1, 2)] > d[(1, 5)]);
    }

    #[test]
    fn center_racks_recirculate_more_than_edge_racks() {
        let l = RoomLayout::paper_cluster();
        let d = l.heat_matrix();
        let sums = d.mul_vec(&vec![1.0; l.racks()]);
        // Rack at column 4/5 (center) vs column 0 (at the CRAC wall), same row.
        assert!(sums[4] > sums[0], "center {} vs edge {}", sums[4], sums[0]);
    }

    #[test]
    fn fully_loaded_room_peaks_near_ten_degrees() {
        let l = RoomLayout::paper_cluster();
        let d = l.heat_matrix();
        // 40 servers × 170 W per rack.
        let p = vec![6_800.0; l.racks()];
        let rise = d.mul_vec(&p);
        let peak = rise.iter().cloned().fold(0.0_f64, f64::max);
        assert!(peak > 4.0 && peak < 12.0, "peak rise {peak}");
    }
}
