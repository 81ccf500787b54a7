//! The three closed-loop workloads, driven through the allocator's public
//! API. Each pass builds a fresh pool and allocator, pre-populates it
//! (the timed set-up), runs the measured phase for a host-time budget or
//! a fixed number of operations, and then checks the heap. Passes on the modelled clock also keep a crash
//! image for the recovery measurement.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use nvalloc::api::{AllocThread, PmAllocator};
use nvalloc::telemetry::MetricsSnapshot;
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{FlushKind, LatencyMode, PmOffset, PmemConfig, PmemPool, StatsSnapshot};
use nvalloc_workloads::harness::spread_root;

use crate::rec::{Clock, Name, Rec, Rng, NO_PARENT};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LarsonLog,
    ThreadtestGc,
    KvMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LarsonLog, Workload::ThreadtestGc, Workload::KvMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LarsonLog => "larson_log",
            Workload::ThreadtestGc => "threadtest_gc",
            Workload::KvMixed => "kv_mixed",
        }
    }

    /// Operations per thread of the modelled pass. The count is fixed,
    /// so the modelled figures and the crash image depend on the seed
    /// alone; each takes about 4 s on a 2-vCPU host.
    pub fn model_ops(self) -> u64 {
        match self {
            Workload::LarsonLog => 800_000,
            Workload::ThreadtestGc => 1_400_000,
            Workload::KvMixed => 1_000_000,
        }
    }

    pub fn config(self) -> NvConfig {
        match self {
            Workload::ThreadtestGc => NvConfig::gc(),
            _ => NvConfig::log(),
        }
    }
}

/// Worker threads of every workload (one per vCPU of the 2-vCPU hosts the
/// baseline was taken on).
pub const THREADS: usize = 2;
/// Pool size of every pass: the largest working set (kv_mixed, about
/// 11 MiB live) plus the metadata regions fit with room to spare.
const POOL_BYTES: usize = 64 << 20;
/// Larson: slots per range (one range per thread).
const LARSON_SLOTS: usize = 1024;
const LARSON_SIZES: (usize, usize) = (64, 256);
/// Threadtest: largest batch, object size.
const TT_BATCH: usize = 1000;
const TT_SIZE: usize = 64;
/// KV store: keys (split evenly between the threads), and puts per size
/// phase per thread (the small-size range flips between the two phases
/// every `KV_PHASE_PUTS` puts of a thread, so a phase rewrites about 95 %
/// of the keys).
const KV_KEYS: usize = 4096;
const KV_PHASE_PUTS: u64 = 3 * KV_KEYS as u64 / THREADS as u64;
/// Each small range covers two size classes, so each class spans more
/// than a dozen slabs per thread. A morph candidate must have no block
/// parked in a thread cache, and the 64 blocks a cache bin keeps of a
/// class the phase has left then pin a few of its slabs only. With ranges
/// spread over many classes of a few slabs each, those parked blocks pin
/// nearly every sparse slab, and the store carves new slabs instead of
/// morphing old ones.
const KV_SMALL: [(usize, usize); 2] = [(769, 1024), (1537, 2048)];
const KV_LARGE: (usize, usize) = (nvalloc::LARGE_MIN, 256 << 10);
/// KV ops between checks of the pass length.
const KV_GROUP: u64 = 256;

/// How long the measured phase runs. Rounds, batches and KV op groups
/// always complete, so a pass overruns its length by at most one of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// Host seconds (host-clock passes).
    Seconds(f64),
    /// Operations per thread (modelled passes, so that the modelled
    /// figures and the crash image do not depend on host speed).
    Ops(u64),
}

/// One pass of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub clock: Clock,
    pub threads: usize,
    pub length: Length,
    pub trace: bool,
    pub seed: u64,
}

/// What a recovered heap must hold at one root.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub root: PmOffset,
    pub block: PmOffset,
    pub min_size: usize,
    pub key_word: Option<u64>,
}

/// A crash image of a modelled-clock pass and the state it must recover to.
#[derive(Debug)]
pub struct Image {
    pub words: Vec<u64>,
    pub cfg: NvConfig,
    pub expect: Vec<Expect>,
    /// Host ms of `crash()` + `from_crash_image`.
    pub crash_ms: f64,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct PassOut {
    pub setup_s: f64,
    pub recs: Vec<Rec>,
    /// `MetricsSnapshot::since(..).to_json()` over the measured phase.
    pub metrics_json: String,
    /// Pool counters over the measured phase.
    pub stats: StatsSnapshot,
    pub peak_mapped: usize,
    /// Peak requested live bytes (sum of per-range / per-thread peaks).
    pub peak_live: u64,
    pub image: Option<Image>,
    /// Failed end-of-pass checks.
    pub errors: Vec<String>,
}

impl PassOut {
    pub fn ops(&self) -> u64 {
        self.recs.iter().map(|r| r.ops).sum()
    }
}

/// The key word a put persists into its record.
fn key_word(seed: u64, key: usize, version: u64) -> u64 {
    Rng::new(seed ^ version << 20, key as u64 + 1).next() | 1
}

/// Shared phase gates: workers finish set-up, the coordinator snapshots
/// counters, workers run, the coordinator snapshots again, workers do
/// their unmeasured epilogue.
struct Gates {
    gate: Barrier,
    origin: OnceLock<Instant>,
    deadline: OnceLock<Instant>,
}

impl Gates {
    fn new(threads: usize) -> Gates {
        Gates {
            gate: Barrier::new(threads + 1),
            origin: OnceLock::new(),
            deadline: OnceLock::new(),
        }
    }

    /// Worker side of the start gates; returns the pass origin.
    fn worker_start(&self) -> Instant {
        self.gate.wait();
        self.gate.wait();
        *self.origin.get().expect("origin set before the second gate")
    }

    /// Whether the thread recorded by `rec` has finished its measured phase.
    fn done(&self, spec: &Spec, rec: &Rec) -> bool {
        match spec.length {
            Length::Seconds(_) => {
                Instant::now() >= *self.deadline.get().expect("deadline set before the second gate")
            }
            Length::Ops(n) => rec.ops >= n,
        }
    }

    fn worker_stop(&self) {
        self.gate.wait();
        self.gate.wait();
    }
}

/// Run one pass.
pub fn run(spec: Spec) -> PassOut {
    let t0 = Instant::now();
    let mode = match spec.clock {
        Clock::Host => LatencyMode::Off,
        Clock::Model => LatencyMode::Virtual,
    };
    let pool = PmemPool::new(
        PmemConfig::default()
            .pool_size(POOL_BYTES)
            .latency_mode(mode)
            .crash_tracking(spec.clock == Clock::Model),
    );
    let cfg = spec.workload.config();
    let alloc = NvAllocator::create(Arc::clone(&pool), cfg.clone()).expect("create allocator");
    let gates = Gates::new(spec.threads);
    let shared = Shared::new(spec);

    let mut setup_s = 0.0;
    let (mut m0, mut s0) = (MetricsSnapshot::default(), StatsSnapshot::default());
    let (mut m1, mut s1) = (MetricsSnapshot::default(), StatsSnapshot::default());
    let recs: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|k| {
                let (alloc, gates, shared) = (&alloc, &gates, &shared);
                s.spawn(move || worker(spec, k, alloc, gates, shared, t0))
            })
            .collect();
        gates.gate.wait();
        setup_s = t0.elapsed().as_secs_f64();
        m0 = alloc.metrics();
        s0 = pool.stats().snapshot();
        let origin = Instant::now();
        gates.origin.set(origin).expect("origin set once");
        if let Length::Seconds(s) = spec.length {
            gates.deadline.set(origin + Duration::from_secs_f64(s)).expect("deadline set once");
        }
        gates.gate.wait();
        gates.gate.wait();
        m1 = alloc.metrics();
        s1 = pool.stats().snapshot();
        gates.gate.wait();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let metrics_json = m1.since(&m0).to_json();
    let stats = s1.since(&s0);
    let peak_mapped = alloc.peak_mapped_bytes();
    let peak_live = shared.peak_live();

    let mut errors = Vec::new();
    let image = (spec.clock == Clock::Model)
        .then(|| crash_image(spec, &pool, &alloc, &shared, cfg.clone()));
    end_checks(spec, &pool, &alloc, &cfg, &mut errors);
    PassOut { setup_s, recs, metrics_json, stats, peak_mapped, peak_live, image, errors }
}

/// State shared by the workers of one pass. Larson ranges change hands
/// only across a barrier, so each is touched by one thread at a time.
struct Shared {
    ranges: Vec<Range>,
    stop: AtomicBool,
    round_gate: Barrier,
    /// Per-thread peaks of requested live bytes (threadtest, kv).
    thread_peaks: Vec<AtomicU64>,
    /// kv_mixed: the model of every key (block, size, key word, version).
    kv_final: Vec<OnceLock<Vec<KvEntry>>>,
}

struct Range {
    sizes: Vec<AtomicU32>,
    live: AtomicU64,
    peak: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default)]
struct KvEntry {
    block: PmOffset,
    size: usize,
    word: u64,
    version: u64,
}

impl Shared {
    fn new(spec: Spec) -> Shared {
        let nranges = if spec.workload == Workload::LarsonLog { spec.threads } else { 0 };
        Shared {
            ranges: (0..nranges)
                .map(|_| Range {
                    sizes: (0..LARSON_SLOTS).map(|_| AtomicU32::new(0)).collect(),
                    live: AtomicU64::new(0),
                    peak: AtomicU64::new(0),
                })
                .collect(),
            stop: AtomicBool::new(false),
            round_gate: Barrier::new(spec.threads),
            thread_peaks: (0..spec.threads).map(|_| AtomicU64::new(0)).collect(),
            kv_final: (0..spec.threads).map(|_| OnceLock::new()).collect(),
        }
    }

    fn peak_live(&self) -> u64 {
        self.ranges.iter().map(|r| r.peak.load(Relaxed)).sum::<u64>()
            + self.thread_peaks.iter().map(|p| p.load(Relaxed)).sum::<u64>()
    }
}

fn worker(
    spec: Spec,
    k: usize,
    alloc: &NvAllocator,
    gates: &Gates,
    shared: &Shared,
    t0: Instant,
) -> Rec {
    let mut t = alloc.thread();
    let mut rec = Rec::new(k, spec.seed, spec.clock, spec.trace, t0);
    match spec.workload {
        Workload::LarsonLog => larson(spec, k, alloc, &mut *t, &mut rec, gates, shared),
        Workload::ThreadtestGc => threadtest(spec, k, alloc, &mut *t, &mut rec, gates, shared),
        Workload::KvMixed => kv(spec, k, alloc, &mut *t, &mut rec, gates, shared),
    }
    rec
}

/// Larson-small slot churn. In round `r` thread `k` holds range
/// `(k + r + 1) % T`; it walks the range twice, each step freeing the
/// slot's block and allocating a new one. On the first walk the blocks
/// were allocated by the range's previous holder (a neighbour), on the
/// second by this thread, so with two threads half the frees are remote.
fn larson(
    spec: Spec,
    k: usize,
    alloc: &NvAllocator,
    t: &mut dyn AllocThread,
    rec: &mut Rec,
    gates: &Gates,
    shared: &Shared,
) {
    let n = spec.threads;
    let (lo, hi) = LARSON_SIZES;
    // Set-up: fill this thread's own range.
    let own = &shared.ranges[k];
    for i in 0..LARSON_SLOTS {
        let size = rec.rng.range(lo, hi);
        let slot = spread_root(alloc, k * LARSON_SLOTS + i);
        if rec.call("malloc_to", t.malloc_to(size, slot)).is_some() {
            own.sizes[i].store(size as u32, Relaxed);
            own.live.fetch_add(size as u64, Relaxed);
        }
    }
    own.peak.fetch_max(own.live.load(Relaxed), Relaxed);

    rec.start(gates.worker_start(), t);
    let mut round = 0usize;
    loop {
        let j = (k + round + 1) % n;
        let range = &shared.ranges[j];
        let mut live = range.live.load(Relaxed);
        let mut peak = range.peak.load(Relaxed);
        for walk in 0..2 {
            let local = walk == 1 || n == 1;
            let stride = 2 * rec.rng.range(0, LARSON_SLOTS / 2 - 1) + 1;
            let start = rec.rng.range(0, LARSON_SLOTS - 1);
            for step in 0..LARSON_SLOTS {
                let i = (start + step * stride) % LARSON_SLOTS;
                let slot = spread_root(alloc, j * LARSON_SLOTS + i);
                let old = range.sizes[i].load(Relaxed) as usize;
                let m = rec.begin(t);
                let r = rec.span(Name::free(old, local), NO_PARENT, || t.free_from(slot));
                rec.end(t, m);
                rec.call("free_from", r);
                rec.frees += 1;
                live -= old as u64;

                let size = rec.rng.range(lo, hi);
                let m = rec.begin(t);
                let r = rec.span(Name::Malloc, NO_PARENT, || t.malloc_to(size, slot));
                rec.end(t, m);
                let got = rec.call("malloc_to", r).map_or(0, |_| size);
                range.sizes[i].store(got as u32, Relaxed);
                live += got as u64;
                peak = peak.max(live);
            }
        }
        range.live.store(live, Relaxed);
        range.peak.store(peak, Relaxed);
        shared.round_gate.wait();
        if k == 0 {
            shared.stop.store(gates.done(&spec, rec), Relaxed);
        }
        shared.round_gate.wait();
        if shared.stop.load(Relaxed) {
            break;
        }
        round += 1;
    }
    rec.finish(t);
    gates.worker_stop();
}

/// Threadtest: batches of thread-local 64 B allocations, then frees.
fn threadtest(
    spec: Spec,
    k: usize,
    alloc: &NvAllocator,
    t: &mut dyn AllocThread,
    rec: &mut Rec,
    gates: &Gates,
    shared: &Shared,
) {
    let slot = |i: usize| spread_root(alloc, k * TT_BATCH + i);
    // Set-up: one full batch carves this thread's slabs.
    for i in 0..TT_BATCH {
        rec.call("malloc_to", t.malloc_to(TT_SIZE, slot(i)));
    }
    for i in 0..TT_BATCH {
        rec.call("free_from", t.free_from(slot(i)));
    }
    let peak = &shared.thread_peaks[k];
    peak.fetch_max((TT_BATCH * TT_SIZE) as u64, Relaxed);

    rec.start(gates.worker_start(), t);
    loop {
        let n = rec.rng.range(TT_BATCH / 2, TT_BATCH);
        for i in 0..n {
            let m = rec.begin(t);
            let r = rec.span(Name::Malloc, NO_PARENT, || t.malloc_to(TT_SIZE, slot(i)));
            rec.end(t, m);
            rec.call("malloc_to", r);
        }
        let backwards = rec.rng.one_in(2);
        for step in 0..n {
            let i = if backwards { n - 1 - step } else { step };
            let m = rec.begin(t);
            let r = rec.span(Name::FreeLocal, NO_PARENT, || t.free_from(slot(i)));
            rec.end(t, m);
            rec.call("free_from", r);
            rec.frees += 1;
        }
        if gates.done(&spec, rec) {
            break;
        }
    }
    rec.finish(t);
    gates.worker_stop();
    if spec.clock == Clock::Model {
        // Leave one full batch for the crash image. NVAlloc-GC recovers by
        // tracing the roots, so the application persists them (the GC
        // model's contract); none of this is measured.
        let pool = Arc::clone(alloc.pool());
        for i in 0..TT_BATCH {
            rec.call("malloc_to", t.malloc_to(TT_SIZE, slot(i)));
            pool.flush(t.pm_mut(), slot(i), 8, FlushKind::Data);
        }
        pool.fence(t.pm_mut());
    }
}

/// The KV store: one record per key, one root slot (own cache line) per
/// key; each thread serves its own contiguous share of the keys. A get
/// reads the root and the record's key word and asks the allocator for
/// the record's usable size; a put frees the record, allocates a new one
/// and persists its key word. Three ops in four are gets.
fn kv(
    spec: Spec,
    k: usize,
    alloc: &NvAllocator,
    t: &mut dyn AllocThread,
    rec: &mut Rec,
    gates: &Gates,
    shared: &Shared,
) {
    let pool = Arc::clone(alloc.pool());
    let keys = KV_KEYS / spec.threads;
    let first = k * keys;
    let mut model = vec![KvEntry::default(); keys];
    let mut live = 0u64;
    let mut peak = 0u64;
    let mut puts = 0u64;

    // Set-up: insert every key with first-phase sizes.
    for (i, e) in model.iter_mut().enumerate() {
        let key = first + i;
        let size = kv_size(&mut rec.rng, 0);
        let slot = spread_root(alloc, key);
        if let Some(block) = rec.call("malloc_to", t.malloc_to(size, slot)) {
            let word = key_word(spec.seed, key, 0);
            pool.write_u64(block, word);
            pool.flush(t.pm_mut(), block, 8, FlushKind::Data);
            pool.fence(t.pm_mut());
            *e = KvEntry { block, size, word, version: 0 };
            live += size as u64;
        }
    }
    peak = peak.max(live);

    rec.start(gates.worker_start(), t);
    loop {
        for _ in 0..KV_GROUP {
            let i = rec.rng.range(0, keys - 1);
            let key = first + i;
            let slot = spread_root(alloc, key);
            let e = model[i];
            let m = rec.begin(t);
            // 3 gets per put. With an even mix the op-latency median
            // would sit in the gap between the get and put latency
            // clusters and jump between them from run to run.
            if !rec.rng.one_in(4) {
                let p = rec.open(Name::KvGet);
                let block = rec.span(Name::PmRead, p, || pool.read_u64(slot));
                let word = rec.span(Name::PmRead, p, || pool.read_u64(block));
                let usable = rec.span(Name::UsableSize, p, || alloc.usable_size(block));
                rec.close(p);
                rec.end(t, m);
                if block != e.block || word != e.word || usable.is_none_or(|u| u < e.size) {
                    rec.error(format!(
                        "get key {key}: block {block:#x} word {word:#x} usable {usable:?}, \
                         model block {:#x} word {:#x} size {}",
                        e.block, e.word, e.size
                    ));
                }
            } else {
                let size = kv_size(&mut rec.rng, puts);
                let p = rec.open(Name::KvPut);
                let r = rec.span(Name::free(e.size, true), p, || t.free_from(slot));
                let r2 = rec.span(Name::malloc(size), p, || t.malloc_to(size, slot));
                let version = e.version + 1;
                let word = key_word(spec.seed, key, version);
                if let Ok(block) = r2 {
                    rec.span(Name::PmWrite, p, || pool.write_u64(block, word));
                    rec.span(Name::PmFlush, p, || {
                        pool.flush(t.pm_mut(), block, 8, FlushKind::Data)
                    });
                    rec.span(Name::PmFence, p, || pool.fence(t.pm_mut()));
                }
                rec.close(p);
                rec.end(t, m);
                rec.call("free_from", r);
                rec.frees += 1;
                rec.large_ops += u64::from(e.size >= nvalloc::LARGE_MIN);
                rec.large_ops += u64::from(size >= nvalloc::LARGE_MIN);
                live -= e.size as u64;
                model[i] = match rec.call("malloc_to", r2) {
                    Some(block) => {
                        live += size as u64;
                        KvEntry { block, size, word, version }
                    }
                    None => KvEntry::default(),
                };
                peak = peak.max(live);
                puts += 1;
            }
        }
        if gates.done(&spec, rec) {
            break;
        }
    }
    rec.finish(t);
    shared.thread_peaks[k].fetch_max(peak, Relaxed);
    shared.kv_final[k].set(model).expect("one model per kv worker");
    gates.worker_stop();
}

/// A put's request size: 1 % large, the rest small from the current phase.
fn kv_size(rng: &mut Rng, puts: u64) -> usize {
    if rng.next().is_multiple_of(100) {
        rng.range(KV_LARGE.0, KV_LARGE.1)
    } else {
        let (lo, hi) = KV_SMALL[(puts / KV_PHASE_PUTS % 2) as usize];
        rng.range(lo, hi)
    }
}

/// Take the crash image of a finished modelled-clock pass and note the
/// state it must recover to: every root's committed block (and, for the
/// KV store, each record's size and key word).
fn crash_image(
    spec: Spec,
    pool: &Arc<PmemPool>,
    alloc: &NvAllocator,
    shared: &Shared,
    cfg: NvConfig,
) -> Image {
    let t = Instant::now();
    let rebooted = PmemPool::from_crash_image(pool.crash());
    let crash_ms = t.elapsed().as_secs_f64() * 1e3;
    let words = rebooted.clean_shutdown_image().words().to_vec();
    drop(rebooted);
    let expect = match spec.workload {
        Workload::KvMixed => {
            let model: Vec<KvEntry> = shared
                .kv_final
                .iter()
                .flat_map(|m| m.get().expect("kv model published").iter().copied())
                .collect();
            model
                .iter()
                .enumerate()
                .map(|(key, e)| Expect {
                    root: spread_root(alloc, key),
                    block: e.block,
                    min_size: e.size,
                    key_word: Some(e.word),
                })
                .collect()
        }
        w => {
            let (slots, min_size) = match w {
                Workload::LarsonLog => (spec.threads * LARSON_SLOTS, LARSON_SIZES.0),
                _ => (spec.threads * TT_BATCH, TT_SIZE),
            };
            (0..slots)
                .map(|i| {
                    let r = spread_root(alloc, i);
                    Expect { root: r, block: pool.read_u64(r), min_size, key_word: None }
                })
                .collect()
        }
    };
    Image { words, cfg, expect, crash_ms }
}

/// End-of-pass checks on the live heap. Larson and threadtest free every
/// slot and must end with `live_bytes() == 0`; every workload must pass
/// the doctor audit after `quiesce()`.
fn end_checks(
    spec: Spec,
    pool: &PmemPool,
    alloc: &NvAllocator,
    cfg: &NvConfig,
    errors: &mut Vec<String>,
) {
    if spec.workload != Workload::KvMixed {
        let mut t = alloc.thread();
        let slots = match spec.workload {
            Workload::LarsonLog => spec.threads * LARSON_SLOTS,
            _ => spec.threads * TT_BATCH,
        };
        for i in 0..slots {
            let r = spread_root(alloc, i);
            if pool.read_u64(r) != 0 {
                if let Err(e) = t.free_from(r) {
                    errors.push(format!("drain: free_from(root {i}) returned Err({e:?})"));
                }
            }
        }
        drop(t);
        alloc.quiesce();
        if alloc.live_bytes() != 0 {
            errors.push(format!("live_bytes() is {} after freeing every slot", alloc.live_bytes()));
        }
    } else {
        alloc.quiesce();
    }
    let report = nvalloc::doctor::audit_pool(pool, cfg);
    if !report.clean() {
        errors.push(format!("doctor audit after quiesce: {:?}", report.violations));
    }
}

/// Recover the image `reps` times on latency-off pools; returns the host
/// ms of each `NvAllocator::recover` call. The last recovered heap is
/// checked against the image's expectations and audited.
pub fn recover(image: &Image, reps: usize, errors: &mut Vec<String>) -> Vec<f64> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let pool = PmemPool::from_words(
            image.words.clone(),
            PmemConfig::default().latency_mode(LatencyMode::Off),
        );
        let t = Instant::now();
        let recovered = NvAllocator::recover(Arc::clone(&pool), image.cfg.clone());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        match recovered {
            Ok((alloc, _)) if rep + 1 == reps => verify_recovered(image, &pool, &alloc, errors),
            Ok(_) => {}
            Err(e) => {
                errors.push(format!("recover returned Err({e:?})"));
                break;
            }
        }
    }
    times
}

fn verify_recovered(image: &Image, pool: &PmemPool, alloc: &NvAllocator, errors: &mut Vec<String>) {
    let mut bad = 0usize;
    for e in &image.expect {
        let block = pool.read_u64(e.root);
        let usable = alloc.usable_size(block);
        let word_ok = e.key_word.is_none_or(|w| pool.read_u64(block) == w);
        if block != e.block || usable.is_none_or(|u| u < e.min_size) || !word_ok {
            bad += 1;
            if bad <= 4 {
                errors.push(format!(
                    "after recovery root {:#x} holds {block:#x} (usable {usable:?}), \
                     expected {:#x} of at least {} B",
                    e.root, e.block, e.min_size
                ));
            }
        }
    }
    if bad > 4 {
        errors.push(format!("after recovery {bad} roots in total do not match"));
    }
    let mut objects: Vec<PmOffset> = alloc.objects().into_iter().map(|(off, _)| off).collect();
    let mut want: Vec<PmOffset> = image.expect.iter().map(|e| e.block).collect();
    objects.sort_unstable();
    want.sort_unstable();
    if objects != want {
        errors.push(format!(
            "after recovery objects() lists {} blocks, the model {}",
            objects.len(),
            want.len()
        ));
    }
    let report = nvalloc::doctor::audit_pool(pool, &image.cfg);
    if !report.clean() {
        errors.push(format!("doctor audit after recovery: {:?}", report.violations));
    }
}
