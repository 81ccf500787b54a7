//! Thread-private measurement state: the seeded RNG, sampled host
//! latencies, exact modelled-clock deltas, span buffers and throughput
//! checkpoints. Each worker owns one [`Rec`]; they are merged only after
//! the workers join, so the benchmark never measures its own contention.

use std::collections::BTreeMap;
use std::time::Instant;

use nvalloc::api::AllocThread;

/// Host latency is sampled on one workload operation in this many.
pub const SAMPLE_EVERY: u64 = 16;
/// In a traced pass, one workload operation in this many is recorded as
/// a span tree (the operation span and every call it makes).
pub const SPAN_EVERY: u64 = 16;
/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// True with probability `1 / n` (`n` a power of two).
    pub fn one_in(&mut self, n: u64) -> bool {
        self.next() & (n - 1) == 0
    }
}

/// The call a span covers. The names are the ledger's layer names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    KvGet,
    KvPut,
    Malloc,
    FreeLocal,
    FreeRemote,
    LargeMalloc,
    LargeFree,
    UsableSize,
    PmRead,
    PmWrite,
    PmFlush,
    PmFence,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::KvGet => "kv.get",
            Name::KvPut => "kv.put",
            Name::Malloc => "front.malloc",
            Name::FreeLocal => "front.free_local",
            Name::FreeRemote => "front.free_remote",
            Name::LargeMalloc => "large.malloc",
            Name::LargeFree => "large.free",
            Name::UsableSize => "front.usable_size",
            Name::PmRead => "pmem.read",
            Name::PmWrite => "pmem.write",
            Name::PmFlush => "pmem.flush",
            Name::PmFence => "pmem.fence",
        }
    }

    /// The span of a free of a block this thread did (`local`) or did not
    /// allocate, by request size.
    pub fn free(size: usize, local: bool) -> Name {
        match (size >= nvalloc::LARGE_MIN, local) {
            (true, _) => Name::LargeFree,
            (false, true) => Name::FreeLocal,
            (false, false) => Name::FreeRemote,
        }
    }

    pub fn malloc(size: usize) -> Name {
        if size >= nvalloc::LARGE_MIN {
            Name::LargeMalloc
        } else {
            Name::Malloc
        }
    }
}

/// One recorded span: `start`/`end` are host ns since the pass origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

/// What [`Rec::begin`] captured for the operation in flight.
#[derive(Debug, Clone, Copy)]
pub struct OpMark {
    host: Option<Instant>,
    pm: u64,
}

/// Which clock a pass measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host clock: `LatencyMode::Off`, sampled `Instant` latencies.
    Host,
    /// Modelled PM clock: `LatencyMode::Virtual`, exact per-op deltas.
    Model,
}

/// Thread-private recorder.
#[derive(Debug)]
pub struct Rec {
    pub thread: usize,
    /// Generates the workload's inputs; identical across passes of a seed.
    pub rng: Rng,
    /// Decides which operations are sampled or traced, so sampling never
    /// changes the input stream.
    sampler: Rng,
    clock: Clock,
    trace: bool,
    origin: Instant,
    /// Whether the operation in flight is recorded as spans.
    tracing_op: bool,
    op_no: u64,
    /// Completed workload operations (measured phase only).
    pub ops: u64,
    /// The thread's modelled clock at the end of the measured phase.
    pub virtual_ns: u64,
    /// Allocator calls attempted / returned `Err`.
    pub attempted: u64,
    pub failed: u64,
    pub host_ns: Vec<u32>,
    /// Modelled per-op deltas (ns) and how often each occurred.
    pub pm_ns: BTreeMap<u64, u64>,
    pub spans: Vec<Span>,
    /// Host ns from the pass origin to the end of this thread's measured
    /// phase.
    pub end_ns: u64,
    /// Frees issued by the generator.
    pub frees: u64,
    /// Large (extent) mallocs + frees issued by the generator.
    pub large_ops: u64,
    /// Check failures seen by this thread (first few kept).
    pub errors: Vec<String>,
    pub error_count: u64,
}

impl Rec {
    pub fn new(thread: usize, seed: u64, clock: Clock, trace: bool, origin: Instant) -> Rec {
        Rec {
            thread,
            rng: Rng::new(seed, thread as u64 + 1),
            sampler: Rng::new(seed, thread as u64 + 0x5A17),
            clock,
            trace,
            origin,
            tracing_op: false,
            op_no: 0,
            ops: 0,
            virtual_ns: 0,
            attempted: 0,
            failed: 0,
            host_ns: Vec::with_capacity(1 << 16),
            pm_ns: BTreeMap::new(),
            spans: Vec::with_capacity(if trace { 1 << 20 } else { 0 }),
            end_ns: 0,
            frees: 0,
            large_ops: 0,
            errors: Vec::new(),
            error_count: 0,
        }
    }

    /// Start the measured phase: times are taken from `origin` and the
    /// thread's modelled clock restarts at zero.
    pub fn start(&mut self, origin: Instant, t: &mut dyn AllocThread) {
        self.origin = origin;
        t.pm_mut().reset_clock();
    }

    /// End the measured phase.
    pub fn finish(&mut self, t: &dyn AllocThread) {
        self.virtual_ns = t.pm().virtual_ns();
        self.end_ns = self.now();
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start one workload operation.
    #[inline]
    pub fn begin(&mut self, t: &dyn AllocThread) -> OpMark {
        self.op_no += 1;
        self.tracing_op = self.trace && self.sampler.one_in(SPAN_EVERY);
        match self.clock {
            Clock::Host => {
                let sampled = !self.trace && self.sampler.one_in(SAMPLE_EVERY);
                OpMark { host: sampled.then(Instant::now), pm: 0 }
            }
            Clock::Model => OpMark { host: None, pm: t.pm().virtual_ns() },
        }
    }

    /// Finish the operation started by `mark`.
    #[inline]
    pub fn end(&mut self, t: &dyn AllocThread, mark: OpMark) {
        self.ops += 1;
        if let Some(s) = mark.host {
            self.host_ns.push(s.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        if self.clock == Clock::Model {
            *self.pm_ns.entry(t.pm().virtual_ns() - mark.pm).or_default() += 1;
        }
    }

    /// Open a parent span for the operation in flight; returns its index
    /// (or [`NO_PARENT`] when the operation is not traced).
    pub fn open(&mut self, name: Name) -> u32 {
        if !self.tracing_op {
            return NO_PARENT;
        }
        let start = self.now();
        self.spans.push(Span { name, parent: NO_PARENT, op: self.op_id(), start, end: start });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        if idx != NO_PARENT {
            let end = self.now();
            self.spans[idx as usize].end = end;
        }
    }

    /// Run `f` inside a span named `name` under `parent`.
    #[inline]
    pub fn span<R>(&mut self, name: Name, parent: u32, f: impl FnOnce() -> R) -> R {
        if !self.tracing_op {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Span { name, parent, op: self.op_id(), start, end });
        r
    }

    fn op_id(&self) -> u64 {
        (self.thread as u64) << 48 | self.op_no
    }

    /// Count an allocator call's outcome; `Err` counts as failed.
    pub fn call<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.error(format!("{what} returned Err({e:?})"));
                None
            }
        }
    }

    pub fn error(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("thread {}: {msg}", self.thread));
        }
    }
}
