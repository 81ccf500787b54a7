//! Allocator-wide telemetry: internal event counters, op-latency
//! histograms over the virtual PM clock, and a dependency-free JSON
//! writer for machine-readable benchmark output.
//!
//! Telemetry is strictly *observational*: every counter is a volatile
//! (DRAM-side) relaxed atomic or a per-thread plain array, and latency is
//! sampled from the PM virtual clock that the cost model already
//! maintains. Enabling or disabling telemetry therefore never changes a
//! [`nvalloc_pmem::StatsSnapshot`] counter or a modelled elapsed time —
//! a property the workspace tests assert.
//!
//! Three layers:
//!
//! * [`CoreMetrics`] — the atomic registry embedded in the allocator:
//!   per-size-class tcache events, sub-tcache cursor rotations, slab
//!   lifecycle, slab-morphing progress, WAL traffic, and (merged in at
//!   snapshot time) bookkeeping-log and extent-allocator counters.
//! * [`LatencyHistogram`] / [`OpHistograms`] — log2-bucketed histograms of
//!   modelled nanoseconds per operation kind ([`OpKind`]), accumulated in
//!   per-thread plain arrays and merged when a thread handle drops.
//! * [`json`] — a minimal serde-free JSON-lines writer used by
//!   [`MetricsSnapshot::to_json`] and the benchmark harness.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::size_class::NUM_CLASSES;

/// Number of log2 latency buckets. Bucket 0 holds 0 ns samples; bucket
/// `b > 0` holds samples in `[2^(b-1), 2^b)` ns; the last bucket also
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 64;

/// Declares [`OpKind`] from one list of `Variant => "json_label"` rows;
/// row order is the indexing and JSON order.
macro_rules! op_kinds {
    ($( $(#[$doc:meta])* $kind:ident => $label:literal, )*) => {
        /// Operation kinds with their own latency histogram.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum OpKind {
            $( $(#[$doc])* $kind, )*
        }

        impl OpKind {
            /// Every kind, in stable (indexing and JSON) order.
            pub const ALL: [OpKind; [$($label),*].len()] = [$(OpKind::$kind),*];

            /// Number of kinds.
            pub const COUNT: usize = Self::ALL.len();

            /// Position in [`Self::ALL`].
            #[inline]
            pub(crate) fn index(self) -> usize {
                self as usize
            }

            /// Snake-case label used as the JSON key.
            pub fn label(self) -> &'static str {
                match self {
                    $( OpKind::$kind => $label, )*
                }
            }
        }
    };
}

op_kinds! {
    /// `malloc_to` served by the small (slab) path.
    MallocSmall => "malloc_small",
    /// `malloc_to` served by the large (extent) path.
    MallocLarge => "malloc_large",
    /// `free_from` (either path).
    Free => "free",
    /// A slab-morph transform (nested inside a small-malloc refill).
    Morph => "morph",
    /// A booklog slow-GC pass.
    SlowGc => "slow_gc",
    /// Pool recovery (`NvAllocator::recover`).
    Recovery => "recovery",
}

/// The log2 bucket index a sample of `ns` nanoseconds falls into.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `b` (0 for buckets 0 and 1).
pub fn bucket_low(b: usize) -> u64 {
    if b <= 1 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Exclusive upper bound of bucket `b` (`u64::MAX` for the last bucket).
pub fn bucket_high(b: usize) -> u64 {
    if b == 0 {
        1
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << b
    }
}

/// A log2-bucketed latency histogram (fixed-size, allocation-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bucket; see [`bucket_index`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; HIST_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// Record one sample of `ns` modelled nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Add every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Bucket-wise saturating difference `self - earlier`.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let buckets = std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i]));
        LatencyHistogram { buckets }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples in
    /// nanoseconds, linearly interpolated within the containing log2
    /// bucket between [`bucket_low`] and [`bucket_high`]. Returns 0 for
    /// an empty histogram. Deterministic: the same buckets always yield
    /// the same value, so bench and core percentile columns agree by
    /// construction.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile falls on.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_low(b);
                // The open upper bound of the last bucket is u64::MAX;
                // cap the interpolation span so the result stays finite.
                let hi = bucket_high(b).max(lo + 1);
                let within = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * within;
                return est as u64;
            }
            seen += n;
        }
        bucket_high(HIST_BUCKETS - 1)
    }
}

/// One latency histogram per [`OpKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpHistograms {
    /// Histograms indexed in [`OpKind::ALL`] order.
    pub hists: [LatencyHistogram; OpKind::COUNT],
}

impl OpHistograms {
    /// Record one sample for `kind`.
    #[inline]
    pub fn record(&mut self, kind: OpKind, ns: u64) {
        self.hists[kind.index()].record(ns);
    }

    /// The histogram for `kind`.
    pub fn of(&self, kind: OpKind) -> &LatencyHistogram {
        &self.hists[kind.index()]
    }

    /// Merge every histogram of `other` into `self`.
    pub fn merge(&mut self, other: &OpHistograms) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Histogram-wise saturating difference `self - earlier`.
    pub fn since(&self, earlier: &OpHistograms) -> OpHistograms {
        OpHistograms { hists: std::array::from_fn(|i| self.hists[i].since(&earlier.hists[i])) }
    }
}

/// Per-size-class tcache event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcacheEvent {
    /// `malloc` served straight from the cache.
    Hit,
    /// `malloc` found the cache empty (a refill follows).
    Miss,
    /// A refill attempt (freelist, morph, or new slab).
    Refill,
    /// A freed block bypassed the full cache back to its slab.
    Flush,
}

const TCACHE_EVENTS: usize = TcacheEvent::Flush as usize + 1; // `Flush` is the last event.

/// A lock-free log2-bucketed histogram: the shared-atomic counterpart of
/// [`LatencyHistogram`], for samples recorded from arbitrary threads
/// without a mutex (lock wait/hold probes record from inside and around
/// critical sections, where taking the histogram mutex would itself
/// serialise).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS] }
    }
}

impl AtomicHistogram {
    /// Record one sample of `ns` nanoseconds (relaxed; never blocks).
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-histogram copy of the current bucket counts.
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// The allocator's internal metrics registry.
///
/// All mutation paths are relaxed atomic adds on DRAM-side state (or, for
/// histograms, merges of per-thread plain arrays under a mutex taken once
/// per thread lifetime), so recording perturbs neither the PM cost model
/// nor the virtual clocks. Constructed disabled for configurations with
/// `telemetry = false`; every recording call is then a no-op.
#[derive(Debug)]
pub struct CoreMetrics {
    enabled: bool,
    tcache: Vec<[AtomicU64; TCACHE_EVENTS]>,
    counters: [AtomicU64; COUNTERS.len()],
    hists: Mutex<OpHistograms>,
    lock_wait: AtomicHistogram,
    lock_hold: AtomicHistogram,
}

impl CoreMetrics {
    /// Create a registry; `enabled = false` turns every recording call
    /// into a no-op and leaves the snapshot all-zero.
    pub fn new(enabled: bool) -> Self {
        CoreMetrics {
            enabled,
            tcache: (0..NUM_CLASSES).map(|_| Default::default()).collect(),
            counters: [const { AtomicU64::new(0) }; COUNTERS.len()],
            hists: Mutex::new(OpHistograms::default()),
            lock_wait: AtomicHistogram::default(),
            lock_hold: AtomicHistogram::default(),
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Count one tcache event for `class`.
    #[inline]
    pub fn tcache_event(&self, class: usize, ev: TcacheEvent) {
        if self.enabled {
            self.tcache[class][ev as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `n` to a scalar counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if self.enabled && n > 0 {
            self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 to a scalar counter.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Merge a thread's local histograms (called when the thread handle
    /// drops, and once by recovery).
    pub fn merge_hists(&self, local: &OpHistograms) {
        if self.enabled {
            self.hists.lock().merge(local);
        }
    }

    /// Record a single histogram sample directly (recovery path).
    pub fn record_hist(&self, kind: OpKind, ns: u64) {
        if self.enabled {
            self.hists.lock().record(kind, ns);
        }
    }

    /// Copy of the registry's merged op histograms (the timeline sampler
    /// diffs consecutive copies into windowed quantiles).
    pub fn hists(&self) -> OpHistograms {
        *self.hists.lock()
    }

    /// Current value of one scalar counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record one instrumented mutex acquisition: `wait_ns` spent blocked
    /// before the lock was granted, `hold_ns` inside the critical section
    /// (both wall-clock). Lock-free: totals are relaxed atomic adds and
    /// the histograms are [`AtomicHistogram`]s, so recording from a
    /// guard's `Drop` never takes another lock.
    #[inline]
    pub fn record_lock(&self, wait_ns: u64, hold_ns: u64) {
        if self.enabled {
            self.counters[Counter::LockWaitNs as usize].fetch_add(wait_ns, Ordering::Relaxed);
            self.counters[Counter::LockHoldNs as usize].fetch_add(hold_ns, Ordering::Relaxed);
            self.lock_wait.record(wait_ns);
            self.lock_hold.record(hold_ns);
        }
    }

    /// A point-in-time copy of every counter owned by the registry.
    /// Bookkeeping-log and extent-allocator fields are zero here; the
    /// allocator front end merges them in (they live under its large-
    /// allocator lock).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (class, evs) in self.tcache.iter().enumerate() {
            let c = TcacheClassCounters {
                class,
                hits: evs[0].load(Ordering::Relaxed),
                misses: evs[1].load(Ordering::Relaxed),
                refills: evs[2].load(Ordering::Relaxed),
                flushes: evs[3].load(Ordering::Relaxed),
            };
            s.tcache_hits += c.hits;
            s.tcache_misses += c.misses;
            s.tcache_refills += c.refills;
            s.tcache_flushes += c.flushes;
            s.tcache_by_class.push(c);
        }
        for &c in COUNTERS {
            *s.counter_mut(c) = self.counter(c);
        }
        s.lock_wait_hist = self.lock_wait.snapshot();
        s.lock_hold_hist = self.lock_hold.snapshot();
        s.hists = *self.hists.lock();
        s
    }
}

/// Tcache event counts for one size class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcacheClassCounters {
    /// Size class index.
    pub class: usize,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Refill attempts.
    pub refills: u64,
    /// Full-cache flushes back to the slab.
    pub flushes: u64,
}

/// Version of the exported JSON surfaces ([`MetricsSnapshot::to_json`],
/// timeline JSON-lines, profile dumps). External scrapers key on this to
/// detect format changes; bump it whenever a field is renamed, removed,
/// or changes meaning (pure additions may keep the version).
///
/// History: 1 = PR 6 (metrics + timeline), 2 = PR 9 (explicit
/// `schema_version` field everywhere + profiler fields/dumps).
pub const SCHEMA_VERSION: u64 = 2;

/// Declares the metrics table: one row per [`MetricsSnapshot`] field, in
/// JSON key order, written `name: Type` under its doc comment; the name is
/// also the JSON key. A row ending in `= Variant` is a scalar counter owned
/// by [`CoreMetrics`] and also declares that [`Counter`] slot, in row order.
/// The rows after `;` are histograms: `since` diffs them, `to_json` renders
/// them by hand after the table's fields.
macro_rules! metrics_table {
    (
        $( $(#[$doc:meta])* $field:ident: $ty:ty $(= $counter:ident)?, )*
        ;
        $( $(#[$hdoc:meta])* $hist:ident: $hty:ty, )*
    ) => {
        /// Scalar counters kept as relaxed atomics in [`CoreMetrics`], one per
        /// registry-owned row of the metrics table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(
                #[doc = concat!("Registry slot of [`MetricsSnapshot::", stringify!($field), "`].")]
                $counter,
            )?)*
        }

        /// Every [`Counter`], in slot order.
        const COUNTERS: &[Counter] = &[$($(Counter::$counter,)?)*];

        /// A point-in-time copy of the allocator's internal metrics, cheap to
        /// diff between benchmark phases with [`MetricsSnapshot::since`].
        ///
        /// Allocators without internal telemetry (the baselines) return the
        /// all-zero default from [`crate::api::PmAllocator::metrics`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $field: $ty, )*
            $( $(#[$hdoc])* pub $hist: $hty, )*
        }

        impl MetricsSnapshot {
            /// Field-wise saturating difference `self - earlier` (for phase
            /// measurements). Counters are monotone while an allocator lives;
            /// saturating keeps diffs across instances panic-free. Per-class
            /// and per-shard entries missing from `earlier` count as zero.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.since(&earlier.$field), )*
                    $( $hist: self.$hist.since(&earlier.$hist), )*
                }
            }

            /// The field registry slot `c` is copied into.
            fn counter_mut(&mut self, c: Counter) -> &mut u64 {
                match c {
                    $($( Counter::$counter => &mut self.$field, )?)*
                }
            }

            /// One JSON field per table row, in row order.
            fn table_json(&self, o: &mut json::JsonObj) {
                $( o.field_raw(stringify!($field), &self.$field.json()); )*
            }
        }
    };
}

metrics_table! {
    /// Tcache hits summed over classes.
    tcache_hits: u64,
    /// Tcache misses summed over classes.
    tcache_misses: u64,
    /// Tcache refills summed over classes.
    tcache_refills: u64,
    /// Tcache full-cache flushes summed over classes.
    tcache_flushes: u64,
    /// Per-class tcache counters, one per size class (JSON: active ones).
    tcache_by_class: Vec<TcacheClassCounters>,
    /// Sub-tcache cursor rotations (interleaved-tcache round-robin steps).
    cursor_rotations: u64 = CursorRotations,
    /// Slabs carved from the large allocator.
    slab_allocs: u64 = SlabAllocs,
    /// Fully-free slabs returned to the large allocator.
    slab_retires: u64 = SlabRetires,
    /// Slabs examined as morph candidates (LRU scan length).
    morph_candidates: u64 = MorphCandidates,
    /// Morph transforms started.
    morph_started: u64 = MorphStarted,
    /// Morph transforms completed.
    morph_completed: u64 = MorphCompleted,
    /// Interrupted morphs rolled back or forward during recovery.
    morph_undone: u64 = MorphUndone,
    /// Micro-WAL entries appended.
    wal_appends: u64 = WalAppends,
    /// WAL entries replayed during recovery.
    wal_replays: u64 = WalReplays,
    /// Arena/large mutex acquisitions on the free path (slow frees only;
    /// the lock-free fast path never counts here).
    free_locks: u64 = FreeLocks,
    /// Same-thread frees completed on the lock-free fast path.
    free_fast_local: u64 = FreeFastLocal,
    /// Cross-arena frees pushed onto a remote-free queue.
    free_remote: u64 = FreeRemote,
    /// Remote-free queue drain batches (non-empty drains).
    remote_drain_batches: u64 = RemoteDrainBatches,
    /// Blocks returned to slabs by remote-queue drains.
    remote_drained: u64 = RemoteDrained,
    /// Foreign-arena remote queues drained opportunistically by a malloc
    /// slow path (the drain hook; counts non-empty drains).
    remote_drain_foreign: u64 = RemoteDrainForeign,
    /// Large-shard mutex acquisitions on the large-op path (alloc, free,
    /// and slab carve/retire; observer reads are excluded).
    large_lock_acquires: u64,
    /// Large-shard mutex acquisitions that found the lock held and had to
    /// block; divided by the acquisitions, the shard contention rate.
    large_lock_contended: u64,
    /// Per-shard large-lock acquisitions, indexed by shard number.
    large_shard_acquires: Vec<u64>,
    /// Per-shard contended large-lock acquisitions, indexed by shard number.
    large_shard_contended: Vec<u64>,
    /// Slab carves served from a per-arena reservoir.
    reservoir_hits: u64 = ReservoirHits,
    /// Slab carves that had to take a large-shard lock.
    reservoir_misses: u64 = ReservoirMisses,
    /// Wall-clock ns spent waiting for instrumented mutexes (arena and
    /// large-shard locks; the baselines' global mutexes). Host time, not
    /// modelled: the virtual clocks deliberately do not see contention.
    lock_wait_ns: u64 = LockWaitNs,
    /// Wall-clock nanoseconds instrumented mutexes were held.
    lock_hold_ns: u64 = LockHoldNs,
    /// Slow-path requests (retires past a full reservoir, restock carves)
    /// submitted to the [`crate::service`] per-arena queues.
    service_requests: u64 = ServiceRequests,
    /// Service requests executed to completion by an epoch tick.
    service_completions: u64 = ServiceCompletions,
    /// Service epoch ticks executed (cooperative or threaded).
    service_ticks: u64 = ServiceTicks,
    /// Occupancy-aware large-shard rebalance decisions that changed the
    /// overflow-shard preference.
    service_rebalances: u64 = ServiceRebalances,
    /// Flight-recorder events captured (still resident in the rings).
    trace_events: u64,
    /// Flight-recorder events overwritten by drop-oldest wraparound.
    trace_dropped: u64,
    /// Bookkeeping-log entries appended (includes slow-GC copies).
    booklog_appends: u64,
    /// Bookkeeping-log tombstones appended.
    booklog_tombstones: u64,
    /// Fast-GC passes over the booklog.
    booklog_fast_gc_runs: u64,
    /// Empty chunks reaped by fast GC.
    booklog_fast_gc_reaps: u64,
    /// Slow-GC passes over the booklog.
    booklog_slow_gc_runs: u64,
    /// Live entries copied by slow GC.
    booklog_slow_gc_copied: u64,
    /// Dual-chain head flips performed by slow GC.
    booklog_alt_flips: u64,
    /// pmsan: stores over a flushed-but-unfenced line (ordering races).
    pmsan_store_unfenced: u64,
    /// pmsan: fences issued with zero pending flushes.
    pmsan_empty_fence: u64,
    /// pmsan: flushes of lines with nothing unpersisted.
    pmsan_redundant_flush: u64,
    /// pmsan: lines still unpersisted at the shutdown audit.
    pmsan_shutdown_dirty: u64,
    /// pmsan: total persist-ordering violations (sum of the four above).
    pmsan_violations: u64,
    /// Profiler: sampled allocation events ([`crate::prof`]).
    prof_samples: u64,
    /// Profiler: provenance-sidelog records appended (ALLOC + FREE).
    prof_appends: u64,
    /// Profiler: sampled free events (FREE records for sampled objects).
    prof_frees: u64,
    /// Profiler: sidelog half compactions.
    prof_compactions: u64,
    /// Profiler: records dropped because both sidelog halves were full of
    /// live records (coverage loss, not corruption).
    prof_dropped: u64,
    /// Extent allocations served by best-fit from the free lists.
    extent_best_fit: u64,
    /// Extent splits (head/tail remainders produced by carving).
    extent_splits: u64,
    /// Extent coalesces with address-adjacent reclaimed neighbours.
    extent_coalesces: u64,
    /// Decay-schedule ticks executed by the large allocator.
    decay_epochs: u64,
    ;
    /// Histogram of per-acquisition lock wait times (wall-clock ns).
    lock_wait_hist: LatencyHistogram,
    /// Histogram of per-acquisition lock hold times (wall-clock ns).
    lock_hold_hist: LatencyHistogram,
    /// Op-latency histograms over the virtual PM clock.
    hists: OpHistograms,
}

/// How a metrics-table field diffs and renders.
trait Metric {
    /// Saturating difference `self - earlier`; entries missing from
    /// `earlier` count as zero.
    fn since(&self, earlier: &Self) -> Self;
    /// The field's JSON value.
    fn json(&self) -> String;
}

impl Metric for u64 {
    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn json(&self) -> String {
        self.to_string()
    }
}

impl Metric for Vec<u64> {
    fn since(&self, earlier: &Self) -> Self {
        self.iter().enumerate().map(|(i, v)| v.since(earlier.get(i).unwrap_or(&0))).collect()
    }

    fn json(&self) -> String {
        json::u64_array(self)
    }
}

impl Metric for Vec<TcacheClassCounters> {
    fn since(&self, earlier: &Self) -> Self {
        let zero = TcacheClassCounters::default();
        let earlier = earlier.iter().chain(std::iter::repeat(&zero));
        self.iter()
            .zip(earlier)
            .map(|(c, e)| TcacheClassCounters {
                class: c.class,
                hits: c.hits.since(&e.hits),
                misses: c.misses.since(&e.misses),
                refills: c.refills.since(&e.refills),
                flushes: c.flushes.since(&e.flushes),
            })
            .collect()
    }

    fn json(&self) -> String {
        let active = self.iter().filter(|c| c.hits | c.misses | c.refills | c.flushes != 0);
        let classes: Vec<String> = active
            .map(|c| {
                let mut e = json::JsonObj::new();
                e.field_u64("class", c.class as u64);
                e.field_u64("hits", c.hits);
                e.field_u64("misses", c.misses);
                e.field_u64("refills", c.refills);
                e.field_u64("flushes", c.flushes);
                e.finish()
            })
            .collect();
        format!("[{}]", classes.join(","))
    }
}

impl MetricsSnapshot {
    /// The snapshot as one JSON object (no trailing newline): the table's
    /// fields in row order, then the histograms as 64-element bucket arrays
    /// per op kind and their quantiles.
    pub fn to_json(&self) -> String {
        let mut o = json::JsonObj::new();
        o.field_u64("schema_version", SCHEMA_VERSION);
        self.table_json(&mut o);
        let mut h = json::JsonObj::new();
        for kind in OpKind::ALL {
            h.field_raw(kind.label(), &json::u64_array(&self.hists.of(kind).buckets));
        }
        h.field_raw("lock_wait", &json::u64_array(&self.lock_wait_hist.buckets));
        h.field_raw("lock_hold", &json::u64_array(&self.lock_hold_hist.buckets));
        o.field_raw("hist", &h.finish());
        let mut q = json::JsonObj::new();
        for kind in OpKind::ALL {
            let hist = self.hists.of(kind);
            let mut kq = json::JsonObj::new();
            kq.field_u64("count", hist.count());
            for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)] {
                kq.field_u64(key, hist.quantile(q));
            }
            q.field_raw(kind.label(), &kq.finish());
        }
        o.field_raw("latency", &q.finish());
        o.finish()
    }
}

/// A minimal, serde-free JSON writer (objects, string escaping, numeric
/// arrays) — enough for JSON-lines benchmark records.
pub mod json {
    /// Escape `s` as JSON string *content* (no surrounding quotes).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Invert [`escape`]: decode JSON string content back to the original
    /// text. Returns `None` on malformed escapes (used by round-trip
    /// tests and quick validators).
    pub fn unescape(s: &str) -> Option<String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{08}'),
                'f' => out.push('\u{0c}'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                    let cp = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(cp)?);
                }
                _ => return None,
            }
        }
        Some(out)
    }

    /// Render a `u64` slice as a JSON array.
    pub fn u64_array(xs: &[u64]) -> String {
        let items: Vec<String> = xs.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(","))
    }

    /// An incrementally built JSON object.
    #[derive(Debug, Default)]
    pub struct JsonObj {
        buf: String,
    }

    impl JsonObj {
        /// Start an empty object.
        pub fn new() -> JsonObj {
            JsonObj { buf: String::new() }
        }

        fn key(&mut self, k: &str) {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
            self.buf.push('"');
            self.buf.push_str(&escape(k));
            self.buf.push_str("\":");
        }

        /// Add a string field (escaped).
        pub fn field_str(&mut self, k: &str, v: &str) {
            self.key(k);
            self.buf.push('"');
            self.buf.push_str(&escape(v));
            self.buf.push('"');
        }

        /// Add an unsigned integer field.
        pub fn field_u64(&mut self, k: &str, v: u64) {
            self.key(k);
            self.buf.push_str(&v.to_string());
        }

        /// Add a float field (`null` for non-finite values).
        pub fn field_f64(&mut self, k: &str, v: f64) {
            self.key(k);
            if v.is_finite() {
                self.buf.push_str(&format!("{v}"));
            } else {
                self.buf.push_str("null");
            }
        }

        /// Add a pre-rendered JSON value verbatim.
        pub fn field_raw(&mut self, k: &str, v: &str) {
            self.key(k);
            self.buf.push_str(v);
        }

        /// Close the object and return it.
        pub fn finish(self) -> String {
            format!("{{{}}}", self.buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every sample falls inside its bucket's [low, high) bounds.
        for ns in [0u64, 1, 2, 3, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = bucket_index(ns);
            assert!(ns >= bucket_low(b), "{ns} below bucket {b} low");
            if b < HIST_BUCKETS - 1 {
                assert!(ns < bucket_high(b), "{ns} above bucket {b} high");
            }
        }
    }

    #[test]
    fn histogram_record_merge_since() {
        let mut a = LatencyHistogram::default();
        a.record(0);
        a.record(5);
        a.record(5);
        assert_eq!(a.count(), 3);
        let snap = a;
        a.record(1000);
        let d = a.since(&snap);
        assert_eq!(d.count(), 1);
        assert_eq!(d.buckets[bucket_index(1000)], 1);
        let mut b = LatencyHistogram::default();
        b.record(7);
        b.merge(&a);
        assert_eq!(b.count(), a.count() + 1);
    }

    #[test]
    fn metrics_registry_counts_and_disabled_is_noop() {
        let m = CoreMetrics::new(true);
        m.tcache_event(3, TcacheEvent::Hit);
        m.tcache_event(3, TcacheEvent::Hit);
        m.tcache_event(5, TcacheEvent::Miss);
        m.bump(Counter::WalAppends);
        m.add(Counter::SlabAllocs, 4);
        m.record_hist(OpKind::Free, 700);
        let s = m.snapshot();
        assert_eq!(s.tcache_hits, 2);
        assert_eq!(s.tcache_misses, 1);
        assert_eq!(s.tcache_by_class[3].hits, 2);
        assert_eq!(s.tcache_by_class[5].misses, 1);
        assert_eq!(s.wal_appends, 1);
        assert_eq!(s.slab_allocs, 4);
        assert_eq!(s.hists.of(OpKind::Free).count(), 1);

        let off = CoreMetrics::new(false);
        off.tcache_event(0, TcacheEvent::Hit);
        off.bump(Counter::WalAppends);
        off.record_hist(OpKind::Free, 1);
        let s = off.snapshot();
        assert_eq!(
            s,
            MetricsSnapshot { tcache_by_class: s.tcache_by_class.clone(), ..Default::default() }
        );
        assert_eq!(s.tcache_hits, 0);
    }

    #[test]
    fn snapshot_since_diffs() {
        let m = CoreMetrics::new(true);
        m.tcache_event(0, TcacheEvent::Hit);
        m.bump(Counter::WalAppends);
        let a = m.snapshot();
        m.tcache_event(0, TcacheEvent::Hit);
        m.tcache_event(1, TcacheEvent::Flush);
        m.bump(Counter::MorphStarted);
        m.record_hist(OpKind::MallocSmall, 300);
        let d = m.snapshot().since(&a);
        assert_eq!(d.tcache_hits, 1);
        assert_eq!(d.tcache_by_class[0].hits, 1);
        assert_eq!(d.tcache_flushes, 1);
        assert_eq!(d.wal_appends, 0);
        assert_eq!(d.morph_started, 1);
        assert_eq!(d.hists.of(OpKind::MallocSmall).count(), 1);
        // Mixed-instance diffs saturate instead of panicking.
        let other = CoreMetrics::new(true);
        let z = other.snapshot().since(&m.snapshot());
        assert_eq!(z.tcache_hits, 0);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200] {
            h.record(ns);
        }
        let (p50, p95, p99, p999) =
            (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999, "{p50} {p95} {p99} {p999}");
        // Every quantile lands inside the recorded range's buckets.
        assert!(p50 >= bucket_low(bucket_index(100)));
        assert!(p999 <= bucket_high(bucket_index(51200)));
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        // A single-sample histogram puts every quantile in that bucket.
        let mut one = LatencyHistogram::default();
        one.record(1000);
        let b = bucket_index(1000);
        for q in [0.0, 0.5, 1.0] {
            let v = one.quantile(q);
            assert!(v >= bucket_low(b) && v <= bucket_high(b), "q={q} v={v}");
        }
    }

    #[test]
    fn snapshot_json_has_latency_quantiles() {
        let m = CoreMetrics::new(true);
        m.record_hist(OpKind::MallocSmall, 500);
        m.record_hist(OpKind::MallocSmall, 900);
        let j = m.snapshot().to_json();
        assert!(j.contains("\"latency\":{\"malloc_small\":{\"count\":2,\"p50\":"), "{j}");
        assert!(j.contains("\"p999\":"), "{j}");
    }

    #[test]
    fn json_escape_and_object() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::unescape(&json::escape("tab\there")).unwrap(), "tab\there");
        assert_eq!(json::unescape("\\u0041").unwrap(), "A");
        assert!(json::unescape("\\x").is_none());
        let mut o = json::JsonObj::new();
        o.field_str("name", "NVAlloc-LOG");
        o.field_u64("ops", 42);
        o.field_f64("mops", 1.5);
        o.field_raw("arr", &json::u64_array(&[1, 2, 3]));
        assert_eq!(
            o.finish(),
            "{\"name\":\"NVAlloc-LOG\",\"ops\":42,\"mops\":1.5,\"arr\":[1,2,3]}"
        );
    }

    #[test]
    fn metrics_to_json_is_valid_shape() {
        let m = CoreMetrics::new(true);
        m.tcache_event(2, TcacheEvent::Hit);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"tcache_hits\":1"));
        assert!(j.contains("\"tcache_by_class\":[{\"class\":2,"));
        assert!(j.contains("\"hist\":{\"malloc_small\":["));
        // Quiet classes are omitted from the per-class list.
        assert!(!j.contains("\"class\":0,"));
    }
}
