//! Deterministic sharded round execution.
//!
//! The per-round work of every solver in this crate (DiBA's node actions,
//! primal-dual's primal responses, the simulator's per-node stepping) is an
//! embarrassingly parallel map over node ranges plus a small reduction. This
//! module provides the one harness they all share:
//!
//! * [`Threads`] — the execution policy knob (`Auto` picks serial or
//!   pooled-parallel per problem size via [`auto_workers`]; `Fixed` forces
//!   a count);
//! * [`WorkerPool`] — a *persistent* pool: threads are spawned once per
//!   run, park on a channel between dispatches, and are fed borrowed jobs
//!   through a raw-pointer handoff sealed by a completion handshake;
//! * [`ParallelEngine`] — the scoped-spawn fan-out (`std::thread::scope`,
//!   threads spawned per call), kept as the comparison baseline the
//!   benchmarks measure the pool against;
//! * [`Engine`] — one of the two above behind a single `run_workers` call,
//!   selected by [`Backend`];
//! * [`SpinBarrier`] — the reusable two-phase round barrier (atomics with
//!   bounded spin-then-yield, parking on a condvar when the wait runs
//!   long or the worker count oversubscribes the host);
//! * [`SharedSlice`] — an unsafe-but-audited shared view of a `&mut [T]`
//!   for the disjoint-range writes and barrier-ordered cross-phase reads
//!   the round structure needs;
//! * [`chunked_sum`] — the fixed-chunk reduction that makes parallel sums
//!   *bitwise* independent of the worker count.
//!
//! # Determinism
//!
//! Floating-point addition is not associative, so "split the sum across
//! threads and merge" changes results with the thread count. Every reduction
//! here is therefore defined over *fixed-size chunks* ([`REDUCE_CHUNK`]):
//! chunk `k` always covers elements `k·C .. (k+1)·C`, each chunk's partial
//! is computed left-to-right by exactly one worker, and partials are folded
//! in ascending chunk order. The result is a pure function of the input —
//! any worker count, including 1, produces identical bits. Max-reductions
//! (`f64::max` over per-worker maxima) are exactly associative for the
//! NaN-free values used here and need no chunking.
//!
//! Execution-policy choices (serial vs pooled vs scoped, any worker count)
//! therefore never change results; [`Threads::Auto`] is free to chase
//! throughput alone.

use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// The host's available parallelism (1 when it cannot be determined),
/// probed once per process.
///
/// The probe is not free — on Linux the standard library reads
/// `/proc/self/cgroup` and the cgroup's `cpu.max` and calls
/// `sched_getaffinity`, 17.6–25.7 µs per call on the 2-vCPU sizing host,
/// as much as a whole 1 000-node round — so the first caller pays it and
/// everyone after reads the memo: [`Threads::resolve`],
/// [`SpinBarrier::new`] (once per engine dispatch),
/// `ParallelEngine::new(None)` and the reactor's `ShardCount::Auto`. A
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

/// Cluster size below which [`Threads::Auto`] runs serial. Measured on the
/// pooled engine: a round over `n` nodes costs ≈14–16 ns/node; the three
/// round barriers of a batched round add about a microsecond while the
/// second core is free (`alg_exec.dispatch_us`: 0.1–1.4 µs over six
/// passes re-read after the host probe left the dispatch path — which,
/// amortised over a 2 000-round batch, never reached that figure) and
/// several when it is not, and two workers bought 0.96× at 10 000
/// cache-resident nodes against 1.28× at 100 000 — so below ~8 k nodes a
/// second worker does not pay (see DESIGN.md, "Adaptive execution policy"
/// and "Before/after", for the measurements behind both constants).
pub const AUTO_SERIAL_CUTOVER: usize = 8_192;

/// Minimum nodes per worker before [`Threads::Auto`] adds another one, so
/// every shard amortizes its share of the barrier cost.
pub const AUTO_NODES_PER_WORKER: usize = 4_096;

/// The measured adaptive policy: worker count for `items` work items on a
/// host with `host` hardware threads. Serial below [`AUTO_SERIAL_CUTOVER`];
/// above it, one worker per [`AUTO_NODES_PER_WORKER`] items, capped at the
/// host's parallelism (oversubscription only ever loses).
pub fn auto_workers(items: usize, host: usize) -> usize {
    if host <= 1 || items < AUTO_SERIAL_CUTOVER {
        return 1;
    }
    host.min(items / AUTO_NODES_PER_WORKER).max(1)
}

/// Worker-thread policy for the round engines.
///
/// `Auto` (the default) applies the measured serial↔parallel cutover of
/// [`auto_workers`] — small problems run inline on the caller's thread,
/// large ones shard across the persistent pool. `Fixed(w)` forces exactly
/// `w` workers. Either way the trajectory is bitwise identical (see the
/// module docs); the policy only moves wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Pick serial or pooled-parallel per problem size and host.
    #[default]
    Auto,
    /// Force this many workers (0 is rejected by config validation).
    Fixed(usize),
}

impl Threads {
    /// Resolves the policy to a worker count for `items` work items —
    /// never more workers than items.
    pub fn resolve(self, items: usize) -> usize {
        let w = match self {
            Threads::Auto => auto_workers(items, host_parallelism()),
            Threads::Fixed(w) => w.max(1),
        };
        w.min(items.max(1))
    }

    /// The forced count, when fixed.
    pub fn fixed(self) -> Option<usize> {
        match self {
            Threads::Auto => None,
            Threads::Fixed(w) => Some(w),
        }
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
pub const REDUCE_CHUNK: usize = 4096;

/// A scoped-thread fan-out engine with a resolved worker count.
///
/// Construction only stores the count; threads are spawned per
/// [`ParallelEngine::run_workers`] call and joined before it returns, so an
/// engine is plain data (`Copy`) and embeds freely in solver state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelEngine {
    workers: usize,
}

impl ParallelEngine {
    /// Resolves the worker count: `None` takes the machine's available
    /// parallelism, `Some(w)` forces `w` (clamped to at least 1).
    pub fn new(threads: Option<usize>) -> ParallelEngine {
        let workers = threads.unwrap_or_else(host_parallelism).max(1);
        ParallelEngine { workers }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker count to actually use for `items` work items — never more
    /// workers than items (empty shards would still pay a thread spawn).
    pub fn workers_for(&self, items: usize) -> usize {
        self.workers.min(items.max(1))
    }

    /// Runs `f(0), f(1), …, f(workers−1)` concurrently on scoped threads and
    /// returns when all are done. Worker 0 runs on the calling thread; with
    /// one worker nothing is spawned and `f(0)` runs inline.
    ///
    /// `workers` is the per-call count (typically
    /// [`ParallelEngine::workers_for`] of the item count).
    pub fn run_workers<F>(&self, workers: usize, f: F)
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
}

/// Which fan-out mechanism an [`Engine`] uses.
///
/// `Pooled` is the production default; `Scoped` (spawn-per-call) is kept so
/// benchmarks can measure exactly what the pool buys. Both produce bitwise
/// identical results for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Persistent [`WorkerPool`]: threads spawned once, parked between
    /// dispatches.
    #[default]
    Pooled,
    /// [`ParallelEngine`]: scoped threads spawned per `run_workers` call.
    Scoped,
}

/// A numeric setting that selects nothing.
///
/// There is one numeric contract: the reference kernel's arithmetic in
/// its fold orders, bitwise for every engine, worker count and batch size.
/// `DibaRun` picks its round traversal — CSR rows, or the 4-lane ring
/// sweep of [`crate::fast`] — from the graph's shape, so both values
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
pub struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    park_immediately: bool,
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
    pub fn new(parties: usize) -> SpinBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        SpinBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            park_immediately: parties > host_parallelism(),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Number of workers the barrier synchronizes.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Blocks until all `parties` workers have called `wait` for the
    /// current generation. `AcqRel` on the arrival counter and `Release`/
    /// `Acquire` on the generation bump order every write before the
    /// barrier ahead of every read after it, which is the memory contract
    /// [`SharedSlice`] users rely on.
    pub fn wait(&self) {
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
                let _guard = self.lock.lock().unwrap();
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
        let mut guard = self.lock.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self.cond.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A borrowed job crossing into pool workers: a type-erased pointer to the
/// caller's `Fn(usize)` plus the shim that invokes it. The completion
/// handshake in [`WorkerPool::run`] guarantees the pointee outlives every
/// use, which is what makes shipping the raw pointer sound.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    data: *const (),
}

// SAFETY: the pointee is a `Fn(usize) + Sync` closure borrowed by
// `WorkerPool::run`, which — on the normal path and on unwind (via
// `DrainGuard`) — does not return until every dispatched worker reports
// completion, so the pointer never outlives the borrow and the closure is
// safe to call from other threads.
unsafe impl Send for Job {}

/// Blocks until every outstanding completion for the current dispatch has
/// been received, *even when the dispatching frame unwinds*. Without this,
/// a panic in the inline worker (`f(0)`) would destroy `run`'s stack frame
/// while pool threads still execute the borrowed closure — a use-after-free
/// — and leave stale completions to corrupt the next dispatch. Mirrors the
/// join-on-unwind guarantee of `std::thread::scope`.
struct DrainGuard<'p> {
    done_rx: &'p crossbeam_channel::Receiver<bool>,
    pending: usize,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        for _ in 0..self.pending {
            if self.done_rx.recv().is_err() {
                // The done channel can only die if pool workers are gone
                // mid-dispatch; we can no longer prove the borrowed job is
                // quiescent, so freeing the frame would be unsound.
                std::process::abort();
            }
        }
    }
}

/// A persistent worker pool for round execution.
///
/// `workers − 1` threads (named `dpc-round-N`) are spawned at construction
/// and park on per-worker channels; worker 0 is always the calling thread.
/// Each [`WorkerPool::run`] sends one borrowed job per active worker
/// and blocks on a completion handshake, so the dispatched closure may
/// freely borrow the caller's stack. Between runs the pool costs nothing
/// but idle parked threads. Dropping the pool closes the channels and
/// joins every thread.
pub struct WorkerPool {
    senders: Vec<crossbeam_channel::Sender<Job>>,
    done_rx: crossbeam_channel::Receiver<bool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` total workers (`workers − 1` threads;
    /// worker 0 runs inline in [`WorkerPool::run`]). Clamped to at least 1.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (done_tx, done_rx) = crossbeam_channel::unbounded::<bool>();
        let mut senders = Vec::with_capacity(workers.saturating_sub(1));
        let mut handles = Vec::with_capacity(workers.saturating_sub(1));
        for w in 1..workers {
            let (tx, rx) = crossbeam_channel::unbounded::<Job>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("dpc-round-{w}"))
                .spawn(move || {
                    // Park on the channel; a closed channel is shutdown.
                    while let Ok(job) = rx.recv() {
                        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            // SAFETY: `run` keeps the closure alive until
                            // this worker's completion send is received.
                            unsafe { (job.call)(job.data, w) };
                        }))
                        .is_ok();
                        // A receiver-less send only happens during teardown
                        // races; nothing to do about it here.
                        let _ = done.send(ok);
                    }
                })
                .expect("spawning a pool worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            senders,
            done_rx,
            handles,
            workers,
        }
    }

    /// Total worker count (including the inline worker 0).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0), …, f(active−1)` concurrently — worker 0 inline on the
    /// calling thread, the rest on parked pool threads — and returns when
    /// all are done. `active` is clamped to the pool size; with
    /// `active <= 1` nothing is dispatched and `f(0)` runs inline.
    ///
    /// Takes `&mut self` deliberately: dispatch and completion collection
    /// share the per-worker channels and the single `done_rx`, so two
    /// overlapping `run` calls would cross-mix completions and let one call
    /// return while the other's borrowed closure is still executing. The
    /// exclusive receiver makes that unrepresentable in safe code.
    ///
    /// # Panics
    ///
    /// Panics if a dispatched worker panicked (after all completions have
    /// been collected, so the borrow stays sound). If the *inline* worker
    /// panics, the remaining completions are drained on unwind before the
    /// frame is destroyed, so the pool stays usable and the borrow stays
    /// sound there too.
    pub fn run<F>(&mut self, active: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let active = active.clamp(1, self.workers);
        if active == 1 {
            f(0);
            return;
        }
        unsafe fn shim<F: Fn(usize) + Sync>(data: *const (), w: usize) {
            // SAFETY: `data` was erased from `&F` in this very call frame
            // and `run` outlives every worker's use of it.
            let f = unsafe { &*(data as *const F) };
            f(w);
        }
        let job = Job {
            call: shim::<F>,
            data: &f as *const F as *const (),
        };
        // Armed before the first send: from here on, every dispatched job
        // is accounted for even if a later send, `f(0)`, or a completion
        // assert unwinds this frame.
        let mut guard = DrainGuard {
            done_rx: &self.done_rx,
            pending: 0,
        };
        for tx in &self.senders[..active - 1] {
            tx.send(job).expect("pool worker hung up");
            guard.pending += 1;
        }
        f(0);
        let mut all_ok = true;
        while guard.pending > 0 {
            let ok = guard.done_rx.recv().expect("pool worker hung up");
            guard.pending -= 1;
            all_ok &= ok;
        }
        assert!(all_ok, "a pool worker panicked during a dispatched round");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels wakes every parked worker with Err.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A round-execution engine: a resolved worker count behind one of the two
/// fan-out [`Backend`]s.
///
/// Cloning rebuilds an equivalent engine (fresh pool threads for the pooled
/// backend); equality and `Debug` reflect backend and worker count only.
pub enum Engine {
    /// Scoped spawn-per-call fan-out.
    Scoped(ParallelEngine),
    /// Persistent parked worker pool.
    Pooled(WorkerPool),
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Scoped(e) => f.debug_tuple("Engine::Scoped").field(&e.workers()).finish(),
            Engine::Pooled(p) => f.debug_tuple("Engine::Pooled").field(&p.workers()).finish(),
        }
    }
}

impl Clone for Engine {
    fn clone(&self) -> Engine {
        Engine::with_backend(self.backend(), self.workers())
    }
}

impl Engine {
    /// Builds an engine with `workers` total workers on the given backend.
    pub fn with_backend(backend: Backend, workers: usize) -> Engine {
        match backend {
            Backend::Scoped => Engine::Scoped(ParallelEngine::new(Some(workers))),
            Backend::Pooled => Engine::Pooled(WorkerPool::new(workers)),
        }
    }

    /// The backend this engine fans out on.
    pub fn backend(&self) -> Backend {
        match self {
            Engine::Scoped(_) => Backend::Scoped,
            Engine::Pooled(_) => Backend::Pooled,
        }
    }

    /// Total worker count.
    pub fn workers(&self) -> usize {
        match self {
            Engine::Scoped(e) => e.workers(),
            Engine::Pooled(p) => p.workers(),
        }
    }

    /// The worker count to actually use for `items` work items — never
    /// more workers than items.
    pub fn workers_for(&self, items: usize) -> usize {
        self.workers().min(items.max(1))
    }

    /// Runs `f(0), …, f(active−1)` concurrently and returns when all are
    /// done; worker 0 always runs on the calling thread. `&mut` because the
    /// pooled backend's dispatch channels require exclusive access (see
    /// [`WorkerPool::run`]).
    pub fn run_workers<F>(&mut self, active: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        match self {
            Engine::Scoped(e) => e.run_workers(active, f),
            Engine::Pooled(p) => p.run(active, f),
        }
    }
}

/// Sums `values` over fixed [`REDUCE_CHUNK`]-sized chunks, folding chunk
/// partials in ascending order. This is the *reference* reduction: a
/// parallel sum whose workers each cover whole chunks and whose partials
/// are folded in the same ascending order reproduces these bits exactly.
pub fn chunked_sum(values: &[f64]) -> f64 {
    values
        .chunks(REDUCE_CHUNK)
        .map(|c| c.iter().sum::<f64>())
        .fold(0.0, |a, b| a + b)
}

/// A shared, unsynchronized view of a `&mut [T]` for sharded round
/// execution.
///
/// The round engines hand every worker the whole array but a contract: a
/// worker only *writes* indices inside its own shard, and only *reads*
/// indices written by other workers across a barrier (`std::sync::Barrier`)
/// that orders the writes before the reads. Under that discipline no
/// location is ever accessed concurrently with a write, which is exactly
/// the data-race-freedom the `unsafe` accessors below require.
///
/// The borrow of the underlying slice is held for `'a`, so the exclusive
/// `&mut [T]` cannot be used (or even observed) while views exist.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a SharedSlice is a borrowed view whose cross-thread use is
// governed by the shard/barrier contract documented on the type; moving or
// sharing the view itself is safe whenever `T` can move between threads.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps an exclusive slice borrow in a shareable view.
    pub fn new(slice: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Element count of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, and no other thread may be writing element `i`
    /// concurrently (writes by other workers must be ordered before this
    /// read by a barrier).
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        // SAFETY: bounds and non-aliasing guaranteed by the caller.
        unsafe { *self.ptr.add(i) }
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, `i` lies in the calling worker's own shard, and no other
    /// thread accesses element `i` until a barrier orders this write.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        // SAFETY: bounds and exclusivity guaranteed by the caller.
        unsafe { *self.ptr.add(i) = value };
    }

    /// Borrows `range` immutably.
    ///
    /// # Safety
    ///
    /// `range` is in bounds and no thread writes any element of it for the
    /// lifetime of the returned slice.
    #[inline]
    pub unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: bounds and immutability guaranteed by the caller.
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }

    /// Borrows `range` mutably.
    ///
    /// # Safety
    ///
    /// `range` is in bounds, lies in the calling worker's own shard, and no
    /// other thread accesses any element of it for the lifetime of the
    /// returned slice.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the aliasing contract is the point of the type
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: bounds and exclusivity guaranteed by the caller.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn engine_resolves_thread_counts() {
        assert_eq!(ParallelEngine::new(Some(4)).workers(), 4);
        assert_eq!(ParallelEngine::new(Some(0)).workers(), 1);
        assert!(ParallelEngine::new(None).workers() >= 1);
        assert_eq!(ParallelEngine::new(Some(8)).workers_for(3), 3);
        assert_eq!(ParallelEngine::new(Some(2)).workers_for(0), 1);
    }

    #[test]
    fn run_workers_visits_every_index_once() {
        let engine = ParallelEngine::new(Some(5));
        let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        engine.run_workers(5, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn serial_worker_runs_inline() {
        let engine = ParallelEngine::new(Some(1));
        let caller = std::thread::current().id();
        let mut same_thread = false;
        // Fn + Sync, so interior mutability via a cell is the simplest probe.
        let cell = std::sync::Mutex::new(&mut same_thread);
        engine.run_workers(1, |w| {
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
            let a = SharedSlice::new(&mut phase_a);
            let b = SharedSlice::new(&mut phase_b);
            let engine = ParallelEngine::new(Some(parties));
            engine.run_workers(parties, |w| {
                // SAFETY: each worker writes only its own index; the
                // barrier orders phase-A writes before phase-B reads.
                unsafe { a.write(w, w + 1) };
                barrier.wait();
                let total = (0..parties).map(|i| unsafe { a.read(i) }).sum::<usize>();
                unsafe { b.write(w, total) };
                barrier.wait();
            });
            let expect = parties * (parties + 1) / 2;
            assert!(phase_b.iter().all(|&v| v == expect), "parties={parties}");
        }
    }

    #[test]
    fn spin_barrier_is_reusable_across_generations() {
        let parties = 4;
        let barrier = SpinBarrier::new(parties);
        let counter = AtomicUsize::new(0);
        let engine = ParallelEngine::new(Some(parties));
        engine.run_workers(parties, |_| {
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

    #[test]
    fn worker_pool_visits_every_index_once() {
        let mut pool = WorkerPool::new(5);
        let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        pool.run(5, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn worker_pool_is_reusable_and_borrows_caller_stack() {
        let mut pool = WorkerPool::new(3);
        let mut acc = vec![0usize; 3];
        for round in 1..=20 {
            let shared = SharedSlice::new(&mut acc);
            pool.run(3, |w| {
                // SAFETY: disjoint per-worker indices.
                let v = unsafe { shared.read(w) };
                unsafe { shared.write(w, v + round) };
            });
        }
        let expect = (1..=20).sum::<usize>();
        assert!(acc.iter().all(|&v| v == expect));
    }

    #[test]
    fn worker_pool_partial_dispatch_leaves_idle_workers_parked() {
        let mut pool = WorkerPool::new(6);
        let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        pool.run(2, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits[0].load(Ordering::SeqCst), 1);
        assert_eq!(hits[1].load(Ordering::SeqCst), 1);
        assert!(hits[2..].iter().all(|h| h.load(Ordering::SeqCst) == 0));
    }

    #[test]
    fn worker_pool_drains_completions_when_inline_worker_panics() {
        let mut pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4, |w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
                if w == 0 {
                    panic!("inline worker dies mid-dispatch");
                }
            });
        }));
        assert!(unwound.is_err());
        // The unwind must have drained all three pool-worker completions:
        // a clean follow-up dispatch sees exactly its own handshakes and
        // every worker fires exactly once more.
        pool.run(4, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits[0].load(Ordering::SeqCst), 2);
        assert!(hits[1..].iter().all(|h| h.load(Ordering::SeqCst) == 2));
    }

    #[test]
    fn worker_pool_reports_pool_worker_panic_and_stays_usable() {
        let mut pool = WorkerPool::new(3);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(3, |w| {
                if w == 2 {
                    panic!("pool worker dies");
                }
            });
        }));
        assert!(
            unwound.is_err(),
            "a worker panic must surface to the caller"
        );
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run(3, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn engine_backends_agree() {
        for backend in [Backend::Scoped, Backend::Pooled] {
            let mut engine = Engine::with_backend(backend, 4);
            assert_eq!(engine.backend(), backend);
            assert_eq!(engine.workers(), 4);
            assert_eq!(engine.workers_for(2), 2);
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            engine.run_workers(4, |w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
            let copy = engine.clone();
            assert_eq!(copy.backend(), backend);
            assert_eq!(copy.workers(), 4);
        }
    }

    #[test]
    fn shared_slice_disjoint_writes_land() {
        let mut data = vec![0usize; 64];
        let shared = SharedSlice::new(&mut data);
        let engine = ParallelEngine::new(Some(4));
        let cuts = [0, 16, 32, 48, 64];
        engine.run_workers(4, |w| {
            // SAFETY: ranges are disjoint per worker.
            let mine = unsafe { shared.slice_mut(cuts[w]..cuts[w + 1]) };
            for (off, v) in mine.iter_mut().enumerate() {
                *v = cuts[w] + off;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }
}
