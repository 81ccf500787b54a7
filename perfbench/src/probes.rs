//! Isolated probes of single mechanisms, on latency-off pools. They
//! cover what the criterion benches in `crates/bench/benches` measure:
//! bitmap set/clear persist, rtree lookup, the large extent pair, a
//! 1k-object `recover`, plus the pmem substrate's flush and fence.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use nvalloc::api::PmAllocator;
use nvalloc::internals::{BitmapLayout, PmBitmap, RTree};
use nvalloc::{NvAllocator, NvConfig};
use nvalloc_pmem::{FlushKind, LatencyMode, PmemConfig, PmemPool, CACHE_LINE};

use crate::ledger::median;
use crate::rec::SAMPLE_EVERY;

const REPS: usize = 5;

fn pool(bytes: usize) -> Arc<PmemPool> {
    PmemPool::new(PmemConfig::default().pool_size(bytes).latency_mode(LatencyMode::Off))
}

/// Median over [`REPS`] of `f()`'s host ns divided by `n`.
fn ns_per(n: u64, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&runs)
}

/// ns of one `PmBitmap` set_persist + clear_persist pair.
pub fn bitmap_pair_ns(stripes: usize) -> f64 {
    const N: u64 = 100_000;
    let p = pool(4 << 20);
    let mut t = p.register_thread();
    let bm = PmBitmap::new(0, BitmapLayout::new(1024, stripes));
    ns_per(N, || {
        for i in 0..N as usize {
            bm.set_persist(&p, &mut t, i % 1024);
            bm.clear_persist(&p, &mut t, i % 1024);
        }
    })
}

/// ns of one `RTree::lookup` over 4096 registered 64 KiB ranges.
pub fn rtree_lookup_ns() -> f64 {
    const N: u64 = 1_000_000;
    let tree = RTree::new();
    for k in 0..4096u64 {
        tree.insert_range(k * 65536, 65536, k + 1);
    }
    ns_per(N, || {
        let mut k = 0u64;
        for _ in 0..N {
            k = (k + 9973) % 4096;
            black_box(tree.lookup(black_box(k * 65536 + 4096)));
        }
    })
}

/// ns of one `PmemPool::flush` of a distinct line, per thread, with
/// `threads` threads flushing disjoint line sets at once.
pub fn flush_ns(threads: usize) -> f64 {
    const N: u64 = 1_000_000;
    const LINES: u64 = 4096;
    let p = pool(4 << 20);
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let gate = Barrier::new(threads);
            let per_thread: Vec<f64> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..threads as u64)
                    .map(|k| {
                        let (p, gate) = (&p, &gate);
                        s.spawn(move || {
                            let mut t = p.register_thread();
                            let base = k * LINES / threads as u64;
                            let span = LINES / threads as u64;
                            gate.wait();
                            let start = Instant::now();
                            for i in 0..N {
                                let line = base + i % span;
                                p.flush(&mut t, line * CACHE_LINE as u64, 8, FlushKind::Data);
                            }
                            start.elapsed().as_nanos() as f64 / N as f64
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().expect("flush probe thread")).collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    median(&runs)
}

/// ns of one `PmemPool::fence`.
pub fn fence_ns() -> f64 {
    const N: u64 = 1_000_000;
    let p = pool(1 << 20);
    let mut t = p.register_thread();
    ns_per(N, || {
        for _ in 0..N {
            p.fence(&mut t);
        }
    })
}

/// ns of one 128 KiB extent `malloc_to` + `free_from` pair (NVAlloc-LOG,
/// booklog bookkeeping).
pub fn large_pair_ns() -> f64 {
    const N: u64 = 10_000;
    let a = NvAllocator::create(pool(64 << 20), NvConfig::log()).expect("create allocator");
    let mut t = a.thread();
    let root = a.root_offset(0);
    ns_per(N, || {
        for _ in 0..N {
            t.malloc_to(128 << 10, root).expect("large malloc");
            t.free_from(root).expect("large free");
        }
    })
}

/// Host ms of `NvAllocator::recover` on a cleanly shut down image holding
/// 1000 objects of 64–963 B.
pub fn recover_1k_ms() -> f64 {
    let p = pool(64 << 20);
    let a = NvAllocator::create(Arc::clone(&p), NvConfig::log()).expect("create allocator");
    {
        let mut t = a.thread();
        for i in 0..1000 {
            t.malloc_to(64 + i % 900, a.root_offset(i)).expect("populate");
        }
    }
    a.exit();
    let words = p.clean_shutdown_image().words().to_vec();
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let img = PmemPool::from_words(
                words.clone(),
                PmemConfig::default().latency_mode(LatencyMode::Off),
            );
            let t = Instant::now();
            let (_a, report) = NvAllocator::recover(img, NvConfig::log()).expect("recover 1k");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(report.slabs > 0, "recovered image has no slabs");
            ms
        })
        .collect();
    median(&runs)
}

/// Host ns one latency sample adds per workload operation: the cost of an
/// `Instant::now()` + `elapsed()` pair, divided by [`SAMPLE_EVERY`].
pub fn sample_ns_per_op() -> f64 {
    const N: u64 = 1_000_000;
    ns_per(N, || {
        for _ in 0..N {
            black_box(black_box(Instant::now()).elapsed());
        }
    }) / SAMPLE_EVERY as f64
}
