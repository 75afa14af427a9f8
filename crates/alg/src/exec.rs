//! Deterministic sharded round execution.
//!
//! The per-round work of every solver in this crate (DiBA's node actions,
//! primal-dual's primal responses, the simulator's per-node stepping) is an
//! embarrassingly parallel map over node ranges plus a small reduction. This
//! module provides the one harness they all share:
//!
//! * [`Threads`] — the execution policy knob (`Auto` picks serial or
//!   parallel per problem size via `auto_workers`; `Fixed` forces a
//!   count);
//! * `run_workers` — the one fan-out: scoped threads
//!   (`std::thread::scope`) spawned per dispatch, worker 0 inline on the
//!   caller's thread. A solve is one dispatch, so a solve spawns once;
//! * `SpinBarrier` — the reusable two-phase round barrier (atomics with
//!   bounded spin-then-yield, parking on a condvar when the wait runs
//!   long or the worker count oversubscribes the host), poisoned by a
//!   worker that unwinds so its peers panic instead of waiting forever;
//! * `Chunked` — one array of the round state cut into one `&mut` chunk
//!   per worker, each behind an uncontended `RwLock` that a worker takes
//!   for one phase; `locate` maps a global index to its chunk;
//! * [`chunked_sum`] — the fixed-chunk reduction that makes parallel sums
//!   *bitwise* independent of the worker count.
//!
//! # Determinism
//!
//! Floating-point addition is not associative, so "split the sum across
//! threads and merge" changes results with the thread count. Every reduction
//! here is therefore defined over *fixed-size chunks* (`REDUCE_CHUNK`):
//! chunk `k` always covers elements `k·C .. (k+1)·C`, each chunk's partial
//! is computed left-to-right by exactly one worker, and partials are folded
//! in ascending chunk order. The result is a pure function of the input —
//! any worker count, including 1, produces identical bits. Max-reductions
//! (`f64::max` over per-worker maxima) are exactly associative for the
//! NaN-free values used here and need no chunking.
//!
//! Execution-policy choices (serial or parallel, any worker count)
//! therefore never change results; [`Threads::Auto`] is free to chase
//! throughput alone.

use std::borrow::Borrow;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The host's available parallelism (1 when it cannot be determined),
/// probed once per process.
///
/// The probe is not free — on Linux the standard library reads
/// `/proc/self/cgroup` and the cgroup's `cpu.max` and calls
/// `sched_getaffinity`, 17.6–25.7 µs per call on the 2-vCPU sizing host,
/// as much as a whole 1 000-node round — so the first caller pays it and
/// everyone after reads the memo: `Threads::resolve`,
/// `SpinBarrier::new` (once per dispatch) and the reactor's
/// `ShardCount::Auto`. A
/// cgroup quota or affinity mask changed while the process runs is
/// therefore not picked up.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Cluster size below which [`Threads::Auto`] runs serial. Measured over
/// batched rounds, which pay the fan-out once per batch: a round over `n`
/// nodes costs ≈14–16 ns/node; the three round barriers of a batched round
/// add about a microsecond while the second core is free
/// (`alg_exec.dispatch_us`: 0.1–1.4 µs over six passes re-read after the
/// host probe left the dispatch path — which, amortised over a 2 000-round
/// batch, never reached that figure) and several when it is not, and two
/// workers bought 0.96× at 10 000 cache-resident nodes against 1.28× at
/// 100 000 — so below ~8 k nodes a second worker does not pay (see
/// DESIGN.md, "Adaptive execution policy" and "Before/after", for the
/// measurements behind both constants).
pub(crate) const AUTO_SERIAL_CUTOVER: usize = 8_192;

/// Minimum nodes per worker before [`Threads::Auto`] adds another one, so
/// every shard amortizes its share of the barrier cost.
pub(crate) const AUTO_NODES_PER_WORKER: usize = 4_096;

/// The measured adaptive policy: worker count for `items` work items on a
/// host with `host` hardware threads. Serial below [`AUTO_SERIAL_CUTOVER`];
/// above it, one worker per [`AUTO_NODES_PER_WORKER`] items, capped at the
/// host's parallelism (oversubscription only ever loses).
pub(crate) fn auto_workers(items: usize, host: usize) -> usize {
    if host <= 1 || items < AUTO_SERIAL_CUTOVER {
        return 1;
    }
    host.min(items / AUTO_NODES_PER_WORKER).max(1)
}

/// Worker-thread policy for the round engines.
///
/// `Auto` (the default) applies the measured serial↔parallel cutover of
/// `auto_workers` — small problems run inline on the caller's thread,
/// large ones shard across scoped worker threads. `Fixed(w)` forces exactly
/// `w` workers. Either way the trajectory is bitwise identical (see the
/// module docs); the policy only moves wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Pick serial or parallel per problem size and host.
    #[default]
    Auto,
    /// Force this many workers (0 is rejected by config validation).
    Fixed(usize),
}

impl Threads {
    /// Resolves the policy to a worker count for `items` work items —
    /// never more workers than items.
    pub(crate) fn resolve(self, items: usize) -> usize {
        let w = match self {
            Threads::Auto => auto_workers(items, host_parallelism()),
            Threads::Fixed(w) => w.max(1),
        };
        w.min(items.max(1))
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threads::Auto => f.write_str("auto"),
            Threads::Fixed(w) => write!(f, "{w}"),
        }
    }
}

impl std::str::FromStr for Threads {
    type Err = String;

    /// Parses `auto` or a positive worker count.
    fn from_str(s: &str) -> Result<Threads, String> {
        match s.trim() {
            "auto" => Ok(Threads::Auto),
            other => match other.parse::<usize>() {
                Ok(0) => Err("thread count must be positive (or `auto`)".to_string()),
                Ok(w) => Ok(Threads::Fixed(w)),
                Err(_) => Err(format!(
                    "expected `auto` or a positive integer, got `{other}`"
                )),
            },
        }
    }
}

/// Fixed reduction-chunk width (elements).
pub(crate) const REDUCE_CHUNK: usize = 4096;

/// Runs `f(0), f(1), …, f(workers−1)` concurrently on scoped threads and
/// returns when all are done. Worker 0 runs on the calling thread; with
/// one worker nothing is spawned and `f(0)` runs inline.
///
/// A worker that panics makes the dispatch panic on the caller's thread
/// once every worker has returned or unwound; workers that share a
/// [`SpinBarrier`] arm [`SpinBarrier::poison_on_unwind`] so that their
/// peers unwind too instead of waiting for it forever.
pub(crate) fn run_workers<F>(workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|s| {
        for w in 1..workers {
            let f = &f;
            s.spawn(move || f(w));
        }
        f(0);
    });
}

/// A fan-out setting that selects nothing.
///
/// Every solve runs on the one scoped fan-out (`std::thread::scope`, one
/// dispatch per solve), so both values produce the same execution and
/// the same bits. The type and `DibaConfig::backend` stay only for the
/// callers that still name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Selects nothing (the default).
    #[default]
    Pooled,
    /// Selects nothing: the same execution as `Pooled`.
    Scoped,
}

/// A numeric setting that selects nothing.
///
/// There is one numeric contract: the reference kernel's arithmetic in
/// its fold orders, bitwise for every engine, worker count and batch size.
/// `DibaRun` picks its round traversal — CSR rows, or the 4-lane ring
/// sweep of `crate::fast` — from the graph's shape, so both values
/// select nothing and produce the same bits (the `precision_equivalence`
/// suite pins that). The type and `DibaConfig::precision` stay only for
/// the callers that still name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Selects nothing (the default).
    #[default]
    Reference,
    /// Selects nothing: the same bits as `Reference`.
    Fast,
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Reference => f.write_str("reference"),
            Precision::Fast => f.write_str("fast"),
        }
    }
}

/// A reusable two-phase barrier for round-structured kernels.
///
/// Sense-reversing with a generation counter: the last arriver resets the
/// count and bumps the generation; everyone else waits for the generation
/// to move. Unlike `std::sync::Barrier` there is no mutex on the arrival
/// fast path, so a round's three barrier crossings cost a handful of atomic
/// operations when the workers fit the host.
///
/// Waiting strategy: every waiter spins briefly, yields for a bounded
/// budget, then parks on a condvar — so short inter-barrier windows stay
/// on the atomic fast path while long ones (e.g. worker 0's O(n) telemetry
/// aggregation between barriers) release the core instead of burning it.
/// When `parties` exceeds the host's parallelism (oversubscribed — e.g.
/// determinism tests running 7 workers on 1 core) waiters skip straight to
/// parking, because spinning would just steal the time slice the straggler
/// needs. The releaser only takes the lock when a sleeper count says
/// someone is actually parked; a seq-cst handshake on the generation store
/// and sleeper count makes the notify race-free.
///
/// Poisoning: a worker that unwinds never arrives again, so its peers
/// would wait for it forever. Each worker therefore holds the guard of
/// `poison_on_unwind` while it uses the barrier; a guard dropped during
/// a panic sets the poison flag and wakes every parked waiter, and every
/// `wait` that has not been released then panics instead of blocking.
pub(crate) struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    park_immediately: bool,
    poisoned: AtomicBool,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl std::fmt::Debug for SpinBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpinBarrier")
            .field("parties", &self.parties)
            .field("park_immediately", &self.park_immediately)
            .finish()
    }
}

impl SpinBarrier {
    /// Rounds of pure spinning before a waiter starts yielding.
    const SPIN_LIMIT: u32 = 128;

    /// Yields after the spin budget before a waiter parks on the condvar.
    const YIELD_LIMIT: u32 = 64;

    /// A barrier for `parties` workers (must be positive).
    pub(crate) fn new(parties: usize) -> SpinBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        SpinBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            park_immediately: parties > host_parallelism(),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Blocks until all `parties` workers have called `wait` for the
    /// current generation. `AcqRel` on the arrival counter and `Release`/
    /// `Acquire` on the generation bump order the phases; the data itself
    /// crosses workers only through `Chunked`'s locks, which are free at
    /// every barrier.
    ///
    /// # Panics
    ///
    /// When the barrier is poisoned before this generation is released:
    /// a peer unwound and will never arrive.
    pub(crate) fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count *before* releasing the
            // generation, so a worker racing into the next wait() never
            // observes a stale count. The generation store and the sleeper
            // load are both seq-cst, pairing with the waiter's seq-cst
            // sleeper increment / generation re-check: either this load
            // sees the sleeper (and notifies under the lock), or the
            // waiter's re-check sees the new generation (and never parks).
            self.count.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock();
                self.cond.notify_all();
            }
            return;
        }
        if !self.park_immediately {
            // Fast path: spin, then yield for a bounded budget. Most
            // inter-barrier windows resolve here; only genuinely long ones
            // (a straggling shard, worker 0's telemetry aggregation) fall
            // through to the condvar below instead of burning the core.
            let mut tries = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                // Relaxed: the flag publishes no data, it only tells this
                // waiter to give up.
                if self.poisoned.load(Ordering::Relaxed) {
                    Self::poisoned_panic();
                }
                if tries >= Self::SPIN_LIMIT + Self::YIELD_LIMIT {
                    break;
                }
                if tries < Self::SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                tries += 1;
            }
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
        }
        let mut guard = self.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            // Read under the lock the poisoner takes to notify, so a
            // poison set after this check still wakes the wait below.
            if self.poisoned.load(Ordering::SeqCst) {
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
                drop(guard);
                Self::poisoned_panic();
            }
            guard = self
                .cond
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    /// A guard that poisons the barrier if it is dropped while its thread
    /// unwinds. A worker takes it before its first `wait`, so a panic
    /// anywhere in the worker — between barriers or inside one — releases
    /// every peer with a panic of its own.
    pub(crate) fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// Sets the poison flag, then wakes every parked waiter. The store
    /// precedes the lock, so a waiter either sees the flag under the lock
    /// or is already parked when the notify comes.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let _guard = self.lock();
        self.cond.notify_all();
    }

    /// The parking lock. It guards no data, so a peer that panicked while
    /// holding it leaves nothing to recover: the poison is ignored.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[cold]
    fn poisoned_panic() -> ! {
        panic!("round barrier poisoned: a peer worker panicked");
    }
}

/// Poisons its [`SpinBarrier`] when dropped during a panic; see
/// [`SpinBarrier::poison_on_unwind`].
pub(crate) struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Sums `values` over fixed `REDUCE_CHUNK`-sized chunks, folding chunk
/// partials in ascending order. This is the *reference* reduction: a
/// parallel sum whose workers each cover whole chunks and whose partials
/// are folded in the same ascending order reproduces these bits exactly.
/// Any iterator in index order serves, such as a `Chunked` array's
/// values, chunk after chunk.
pub fn chunked_sum<T: Borrow<f64>>(values: impl IntoIterator<Item = T>) -> f64 {
    let mut values = values.into_iter().map(|v| *v.borrow()).peekable();
    let mut total = 0.0;
    while values.peek().is_some() {
        total += values.by_ref().take(REDUCE_CHUNK).sum::<f64>();
    }
    total
}

/// One array of a dispatch's round state, cut with `split_at_mut` into
/// one `&mut` chunk per worker — chunk `w` holds elements
/// `cuts[w]..cuts[w + 1]` — each behind an uncontended `RwLock`.
///
/// In a phase a worker write-locks its own chunk of every array the phase
/// writes, read-locks what it reads, and drops every guard before
/// [`SpinBarrier::wait`]. Every lock is a `try_read`/`try_write`, so a
/// worker that breaks that rule panics, naming the phase, instead of
/// blocking; the barrier's poison then releases its peers, and the
/// dispatch panics on the caller's thread.
pub(crate) struct Chunked<'a, T> {
    cuts: &'a [usize],
    chunks: Vec<RwLock<&'a mut [T]>>,
}

impl<'a, T> Chunked<'a, T> {
    /// Cuts `data` at the ascending `cuts`, from `0` to `data.len()`.
    pub(crate) fn new(mut data: &'a mut [T], cuts: &'a [usize]) -> Chunked<'a, T> {
        let mut chunk = |len| {
            let (chunk, rest) = std::mem::take(&mut data).split_at_mut(len);
            data = rest;
            RwLock::new(chunk)
        };
        let chunks = cuts.windows(2).map(|c| chunk(c[1] - c[0])).collect();
        Chunked { cuts, chunks }
    }

    /// Worker `w`'s chunk, write-locked in `phase`.
    pub(crate) fn write(&self, w: usize, phase: &str) -> RwLockWriteGuard<'_, &'a mut [T]> {
        (self.chunks[w].try_write()).unwrap_or_else(|e| broken(phase, "write", w, e))
    }

    /// Worker `w`'s chunk, read-locked in `phase`.
    pub(crate) fn read(&self, w: usize, phase: &str) -> RwLockReadGuard<'_, &'a mut [T]> {
        (self.chunks[w].try_read()).unwrap_or_else(|e| broken(phase, "read", w, e))
    }

    /// Every element in index order, read-locking one chunk at a time.
    pub(crate) fn values<'s>(&'s self, phase: &'s str) -> impl Iterator<Item = T> + use<'s, 'a, T>
    where
        T: Copy,
    {
        (0..self.chunks.len()).flat_map(move |w| {
            let chunk = self.read(w, phase);
            (0..chunk.len()).map(move |k| chunk[k])
        })
    }

    /// Worker `w`'s view of the whole array in `phase`: read-locks every
    /// chunk into `held`, which the caller empties before the barrier and
    /// keeps for the dispatch (so a round allocates nothing).
    pub(crate) fn read_all<'v, 'c: 'v>(
        &'c self,
        w: usize,
        phase: &str,
        held: &'v mut Held<'c, 'a, T>,
    ) -> Whole<'v, T> {
        held.clear();
        held.extend((0..self.chunks.len()).map(|c| self.read(c, phase)));
        let parts: &'v [Guard<'v, T>] = held;
        Whole(self.cuts, parts, &parts[w], self.cuts[w])
    }
}

/// The read guards a [`Chunked::read_all`] holds.
pub(crate) type Held<'c, 'a, T> = Vec<RwLockReadGuard<'c, &'a mut [T]>>;
type Guard<'v, T> = RwLockReadGuard<'v, &'v mut [T]>;

/// The whole of a [`Chunked`] array as one worker reads it: the cuts, a
/// read guard per chunk, and the worker's own chunk with its first index.
#[derive(Clone, Copy)]
pub(crate) struct Whole<'v, T>(&'v [usize], &'v [Guard<'v, T>], &'v [T], usize);

impl<'v, T: Copy> Whole<'v, T> {
    /// Element `j`: from the reader's own chunk when that holds it, from
    /// whichever chunk does otherwise.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> T {
        match self.2.get(j.wrapping_sub(self.3)) {
            Some(&v) => v,
            None => {
                let (c, k) = locate(self.0, j);
                self.1[c][k]
            }
        }
    }

    /// The reader's own chunk.
    pub(crate) fn own(&self) -> &'v [T] {
        self.2
    }
}

/// Where global index `j` lies under `cuts`: its chunk, and its offset in
/// that chunk. The one place that knows the cut layout.
#[inline]
pub(crate) fn locate(cuts: &[usize], j: usize) -> (usize, usize) {
    let c = cuts[1..cuts.len() - 1].partition_point(|&cut| cut <= j);
    (c, j - cuts[c])
}

#[cold]
fn broken(phase: &str, access: &str, w: usize, e: impl std::fmt::Display) -> ! {
    panic!("{phase}: chunk {w} is not free to {access} ({e}): a worker broke the phase rule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn run_workers_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        run_workers(5, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn serial_worker_runs_inline() {
        let caller = std::thread::current().id();
        let mut same_thread = false;
        // Fn + Sync, so interior mutability via a cell is the simplest probe.
        let cell = std::sync::Mutex::new(&mut same_thread);
        run_workers(1, |w| {
            assert_eq!(w, 0);
            **cell.lock().unwrap() = std::thread::current().id() == caller;
        });
        assert!(same_thread, "single-worker path must not spawn");
    }

    #[test]
    fn threads_policy_parses_and_resolves() {
        assert_eq!("auto".parse::<Threads>(), Ok(Threads::Auto));
        assert_eq!(" 3 ".parse::<Threads>(), Ok(Threads::Fixed(3)));
        assert!("0".parse::<Threads>().is_err());
        assert!("many".parse::<Threads>().is_err());
        assert_eq!(Threads::default(), Threads::Auto);
        assert_eq!(Threads::Fixed(4).resolve(2), 2); // never more workers than items
        assert_eq!(Threads::Fixed(4).resolve(1_000_000), 4);
        assert_eq!(Threads::Auto.resolve(10), 1); // below cutover: serial
        assert_eq!(format!("{}", Threads::Auto), "auto");
        assert_eq!(format!("{}", Threads::Fixed(7)), "7");
    }

    #[test]
    fn precision_defaults_and_displays() {
        assert_eq!(Precision::default(), Precision::Reference);
        assert_eq!(format!("{}", Precision::Reference), "reference");
        assert_eq!(format!("{}", Precision::Fast), "fast");
    }

    #[test]
    fn auto_policy_respects_cutover_and_host() {
        assert_eq!(auto_workers(100, 8), 1, "tiny problems stay serial");
        assert_eq!(auto_workers(AUTO_SERIAL_CUTOVER - 1, 8), 1);
        assert_eq!(auto_workers(100_000, 1), 1, "1-core hosts stay serial");
        assert_eq!(auto_workers(100_000, 4), 4, "big problems take the host");
        assert_eq!(
            auto_workers(AUTO_SERIAL_CUTOVER, 64),
            AUTO_SERIAL_CUTOVER / AUTO_NODES_PER_WORKER,
            "worker count is bounded by nodes-per-worker"
        );
    }

    #[test]
    fn spin_barrier_orders_phases() {
        for parties in [2usize, 3, 7] {
            let barrier = SpinBarrier::new(parties);
            let mut phase_a = vec![0usize; parties];
            let mut phase_b = vec![0usize; parties];
            let cuts: Vec<usize> = (0..=parties).collect();
            let a = Chunked::new(&mut phase_a, &cuts);
            let b = Chunked::new(&mut phase_b, &cuts);
            run_workers(parties, |w| {
                let mut held = Vec::new();
                a.write(w, "phase A")[0] = w + 1;
                barrier.wait();
                let all = a.read_all(w, "phase B", &mut held);
                let total = (0..parties).map(|i| all.get(i)).sum::<usize>();
                held.clear();
                b.write(w, "phase B")[0] = total;
                barrier.wait();
            });
            drop((a, b));
            let expect = parties * (parties + 1) / 2;
            assert!(phase_b.iter().all(|&v| v == expect), "parties={parties}");
        }
    }

    #[test]
    fn spin_barrier_is_reusable_across_generations() {
        let parties = 4;
        let barrier = SpinBarrier::new(parties);
        let counter = AtomicUsize::new(0);
        run_workers(parties, |_| {
            for round in 0..50 {
                counter.fetch_add(1, Ordering::SeqCst);
                barrier.wait();
                // After the barrier every worker must see all arrivals of
                // this generation.
                assert!(counter.load(Ordering::SeqCst) >= (round + 1) * parties);
                barrier.wait();
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 50 * parties);
    }

    /// Runs `dispatch` on its own thread and fails unless it returns
    /// within a deadline, so a stranded barrier fails the test in seconds
    /// instead of hanging the suite.
    fn within_deadline<R: Send + 'static>(dispatch: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(dispatch());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the dispatch hung: a worker's panic stranded its peers at the barrier")
    }

    /// One dispatch of `parties` workers in which `victim` panics between
    /// two barriers: the dispatch must panic on the caller's thread, and
    /// no peer may pass the barrier the victim never reaches. With
    /// `peers_parked` the victim panics only once every peer sleeps on the
    /// condvar, so the poison has to wake them; without it the peers
    /// arrive only after the poison is set, so their first check must see
    /// it.
    fn assert_poisoned_dispatch_panics(parties: usize, victim: usize, peers_parked: bool) {
        let (panicked, passed) = within_deadline(move || {
            let barrier = SpinBarrier::new(parties);
            let passed = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_workers(parties, |w| {
                    let _poison = barrier.poison_on_unwind();
                    barrier.wait();
                    if w == victim {
                        while peers_parked && barrier.sleepers.load(Ordering::SeqCst) < parties - 1
                        {
                            std::thread::yield_now();
                        }
                        panic!("worker {w} dies between barriers");
                    }
                    while !peers_parked && !barrier.poisoned.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    barrier.wait();
                    passed.fetch_add(1, Ordering::SeqCst);
                });
            }));
            (outcome.is_err(), passed.load(Ordering::SeqCst))
        });
        let what = format!("parties={parties} victim={victim} peers_parked={peers_parked}");
        assert!(panicked, "the dispatch must panic: {what}");
        assert_eq!(passed, 0, "no peer may pass the victim's barrier: {what}");
    }

    #[test]
    fn panicking_worker_poisons_a_spinning_barrier() {
        // Two parties spin, then park (on a 1-core host they park at once).
        for victim in [0, 1] {
            for peers_parked in [false, true] {
                assert_poisoned_dispatch_panics(2, victim, peers_parked);
            }
        }
    }

    #[test]
    fn panicking_worker_poisons_a_parking_barrier() {
        // More parties than the host has threads: every waiter parks
        // immediately.
        let parties = host_parallelism() + 1;
        assert!(SpinBarrier::new(parties).park_immediately);
        for victim in [0, parties - 1] {
            for peers_parked in [false, true] {
                assert_poisoned_dispatch_panics(parties, victim, peers_parked);
            }
        }
    }

    #[test]
    fn chunked_disjoint_writes_land() {
        let mut data = vec![0usize; 64];
        // Empty chunks included: two cuts meet at 16, two at 64.
        let cuts = vec![0, 16, 16, 40, 64, 64];
        let chunked = Chunked::new(&mut data, &cuts);
        run_workers(cuts.len() - 1, |w| {
            for (off, v) in chunked.write(w, "fill").iter_mut().enumerate() {
                *v = cuts[w] + off;
            }
        });
        let mut held = Vec::new();
        let all = chunked.read_all(2, "check", &mut held);
        for j in 0..64 {
            let (c, k) = locate(&cuts, j);
            assert!(
                all.get(j) == j && cuts[c] + k == j && j < cuts[c + 1],
                "{j}"
            );
        }
        drop(held);
        assert!(chunked.values("check").eq(0..64));
        drop(chunked);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn reading_a_chunk_a_peer_writes_panics_instead_of_hanging() {
        let message = within_deadline(|| {
            let barrier = SpinBarrier::new(2);
            let held = AtomicBool::new(false);
            let mut data = vec![0.0_f64; 8];
            let chunked = Chunked::new(&mut data, &[0, 4, 8]);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_workers(2, |w| {
                    let _poison = barrier.poison_on_unwind();
                    if w == 1 {
                        // Breaks the rule: holds its chunk across the
                        // barrier, where worker 0's panic poisons it.
                        let _mine = chunked.write(1, "phase A");
                        held.store(true, Ordering::SeqCst);
                        barrier.wait();
                    }
                    while !held.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let _theirs = chunked.read(1, "phase B");
                    barrier.wait();
                });
            }));
            outcome
                .err()
                .and_then(|e| e.downcast_ref::<String>().cloned())
        });
        let message = message.expect("the dispatch must panic");
        assert!(message.contains("phase B: chunk 1"), "{message}");
    }
}
