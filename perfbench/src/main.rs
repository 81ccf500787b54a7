//! Two-clock benchmark of the NVAlloc allocator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <larson_log|threadtest_gc|kv_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics: host-clock throughput and
//! sampled op latency from `LatencyMode::Off` passes, the modelled-PM
//! throughput from a `LatencyMode::Virtual` pass over the same seed, the
//! space overhead and set-up time. `--trace 1` runs the traced passes, the
//! timed recoveries and the isolated probes, prints the per-layer ledger
//! and writes a sample of the traced spans to
//! `perfbench/target/spans-<workload>.jsonl`. Both run every correctness
//! check; the last stdout line is one JSON object, and the exit code is 0
//! only when every check passed.

mod ledger;
mod probes;
mod rec;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{host_mops, host_samples, median, pm_mops, pm_quantiles, quantile, ratio};
use rec::{Clock, Name};
use work::{Length, PassOut, Spec, Workload};

/// Host-clock passes per `--trace 0` run (`setup_s` is the median of
/// their set-ups), and rounds of untraced, traced and 1-thread passes per
/// `--trace 1` run.
const HOST_CHUNKS: usize = 8;
/// Timed recoveries per `--trace 1` run; `recovery_ms` is their median.
const RECOVER_REPS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                workload = Some(w.ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order, with checks and call counts gathered on the way.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Fold a pass's call counts and check failures into the report.
    fn absorb(&mut self, what: &str, pass: &PassOut) {
        for r in &pass.recs {
            self.attempted += r.attempted;
            self.failed += r.failed;
            if r.error_count > 0 {
                self.errors.push(format!("{what}: {} failed checks", r.error_count));
                self.errors.extend(r.errors.iter().map(|e| format!("{what}: {e}")));
            }
        }
        self.errors.extend(pass.errors.iter().map(|e| format!("{what}: {e}")));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A host-clock pass over `share` of the run's seconds.
fn host_pass(args: &Args, threads: usize, share: f64, trace: bool) -> PassOut {
    work::run(Spec {
        workload: args.workload,
        clock: Clock::Host,
        threads,
        length: Length::Seconds(args.seconds * share),
        trace,
        seed: args.seed,
    })
}

/// The modelled-clock pass: a fixed op count per workload, so the
/// modelled figures and the crash image do not depend on host speed or
/// on `--seconds`.
fn model_pass(args: &Args) -> PassOut {
    work::run(Spec {
        workload: args.workload,
        clock: Clock::Model,
        threads: work::THREADS,
        length: Length::Ops(args.workload.model_ops()),
        trace: false,
        seed: args.seed,
    })
}

/// Recover the modelled pass's crash image `reps` times and verify the
/// last recovered heap (see [`work::recover`]); returns the host ms of
/// each recovery.
fn recover(rep: &mut Report, model: &PassOut, reps: usize) -> Vec<f64> {
    let image = model.image.as_ref().expect("modelled pass keeps a crash image");
    let mut errors = Vec::new();
    let times = work::recover(image, reps, &mut errors);
    rep.errors.extend(errors.into_iter().map(|e| format!("recovery: {e}")));
    times
}

/// `--trace 0`: the end-to-end metrics. The host clock is measured in
/// [`HOST_CHUNKS`] passes spread over the run, each with its own set-up,
/// so that the host-timed metrics sample the same spread of host
/// conditions.
fn end_to_end(args: &Args, rep: &mut Report) {
    let threads = work::THREADS;
    let model = model_pass(args);
    rep.absorb("modelled pass", &model);
    let mut hosts = Vec::with_capacity(HOST_CHUNKS);
    recover(rep, &model, 1);
    for _ in 0..HOST_CHUNKS {
        let host = host_pass(args, threads, 1.0 / HOST_CHUNKS as f64, false);
        rep.absorb("host pass", &host);
        hosts.push(host);
    }
    let setups: Vec<f64> = hosts.iter().map(|h| h.setup_s).collect();

    let samples = host_samples(&hosts);
    let (pm_q, pm_n) = pm_quantiles(&model, &[0.5, 0.99]);
    rep.put("throughput_mops", host_mops(&hosts), "Mops/s");
    rep.put("op_p50_ns", quantile(&samples, 0.5), "ns");
    rep.put("op_p99_ns", quantile(&samples, 0.99), "ns");
    rep.put("pm_throughput_mops", pm_mops(&model), "Mops/s");
    let space: Vec<f64> = hosts
        .iter()
        .chain([&model])
        .map(|p| ratio(p.peak_mapped as f64, p.peak_live as f64))
        .collect();
    rep.put("peak_mapped_per_live", median(&space), "ratio");
    rep.put("setup_s", median(&setups), "s");

    let all = || hosts.iter().chain([&model]).flat_map(|p| &p.recs);
    let attempted = all().map(|r| r.attempted).sum::<u64>();
    let failed = all().map(|r| r.failed).sum::<u64>();
    rep.note(format!(
        "host latency: {} samples (1 op in {}), sampling cost {:.2} ns/op",
        samples.len(),
        rec::SAMPLE_EVERY,
        probes::sample_ns_per_op()
    ));
    rep.note(format!(
        "modelled clock: pm_op_p50_ns {} pm_op_p99_ns {} over {pm_n} ops",
        pm_q[0], pm_q[1]
    ));
    rep.note(format!(
        "ops: host {} in {HOST_CHUNKS} passes, modelled {}; error_rate {}",
        hosts.iter().map(PassOut::ops).sum::<u64>(),
        model.ops(),
        ratio(failed as f64, attempted as f64)
    ));
    rep.note(format!("setup_s over {} set-ups: {setups:.4?}", setups.len()));
}

/// Where a traced run writes its sample of spans.
fn spans_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("spans-{}.jsonl", workload.name()))
}

/// `--trace 1`: the per-layer ledger. The untraced, traced and 1-thread
/// host passes run in [`HOST_CHUNKS`] interleaved rounds and are pooled
/// by kind, so the ratios between them (`trace.overhead_pct`,
/// `front.scaling_2t`) do not carry the host's drift over the run.
fn per_layer(args: &Args, rep: &mut Report) {
    let threads = work::THREADS;
    let share = 1.0 / HOST_CHUNKS as f64;
    let (mut bases, mut traceds, mut singles) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..HOST_CHUNKS {
        // Rotate the order within a round so no kind always runs first.
        for kind in (0..3).map(|i| (i + round) % 3) {
            match kind {
                0 => bases.push(host_pass(args, threads, 0.4 * share, false)),
                1 => traceds.push(host_pass(args, threads, 0.4 * share, true)),
                _ => singles.push(host_pass(args, 1, 0.2 * share, false)),
            }
        }
    }
    for (what, passes) in
        [("untraced pass", &bases), ("traced pass", &traceds), ("1-thread pass", &singles)]
    {
        for p in passes {
            rep.absorb(what, p);
        }
    }
    let model = model_pass(args);
    rep.absorb("modelled pass", &model);
    let recovery = recover(rep, &model, RECOVER_REPS);
    let path = spans_path(args.workload);
    match ledger::write_spans(&traceds, &path) {
        Ok(n) => rep.note(format!("wrote {n} spans to {}", path.display())),
        Err(e) => rep.errors.push(format!("writing spans to {}: {e}", path.display())),
    }

    let ops = bases.iter().map(PassOut::ops).sum::<u64>() as f64;
    let kop = ops / 1e3;
    let c = |key: &str| bases.iter().map(|b| ledger::counter(&b.metrics_json, key)).sum::<f64>();
    let all_recs = || bases.iter().flat_map(|b| &b.recs);
    let frees: u64 = all_recs().map(|r| r.frees).sum();
    let large_ops: u64 = all_recs().map(|r| r.large_ops).sum();
    let spans = ledger::SpanStats::of(&traceds);
    let base_mops = host_mops(&bases);
    let traced_mops = host_mops(&traceds);
    let flush_ns = probes::flush_ns(1);
    // The share estimate charges each flush at its cost with two threads
    // flushing, as in every workload.
    let flush_ns_2t = probes::flush_ns(2);
    let fence_ns = probes::fence_ns();
    let flushes_per_op = ratio(bases.iter().map(|b| b.stats.flushes).sum::<u64>() as f64, ops);
    let fences_per_op = ratio(bases.iter().map(|b| b.stats.fences).sum::<u64>() as f64, ops);
    let host_ns_per_op_thread = ratio(threads as f64 * 1e3, base_mops);
    let (pm_q, pm_n) = pm_quantiles(&model, &[0.5, 0.99]);
    let tc_lookups = c("tcache_hits") + c("tcache_misses");

    rep.put("front.malloc_ns", spans.mean(Name::Malloc), "ns");
    rep.put("front.free_local_ns", spans.mean(Name::FreeLocal), "ns");
    rep.put("front.free_remote_ns", spans.mean(Name::FreeRemote), "ns");
    rep.put("front.usable_size_ns", spans.mean(Name::UsableSize), "ns");
    rep.put("front.scaling_2t", ratio(base_mops, host_mops(&singles)), "ratio");
    rep.put("tcache.hit_rate", ratio(c("tcache_hits"), tc_lookups), "fraction");
    rep.put("tcache.refills_per_kop", ratio(c("tcache_refills"), kop), "1/kop");
    rep.put("slab.carves_per_kop", ratio(c("slab_allocs"), kop), "1/kop");
    rep.put("slab.retires_per_kop", ratio(c("slab_retires"), kop), "1/kop");
    rep.put(
        "slab.reservoir_hit_rate",
        ratio(c("reservoir_hits"), c("reservoir_hits") + c("reservoir_misses")),
        "fraction",
    );
    rep.put("arena.lock_wait_ns_per_op", ratio(c("lock_wait_ns"), ops), "ns/op");
    rep.put("arena.free_locks_per_op", ratio(c("free_locks"), ops), "1/op");
    rep.put("bitmap.persist_pair_ns", probes::bitmap_pair_ns(6), "ns");
    rep.put("bitmap.persist_pair_ns_1stripe", probes::bitmap_pair_ns(1), "ns");
    rep.put("morph.completed_per_kop", ratio(c("morph_completed"), kop), "1/kop");
    rep.put("remote.free_share", ratio(c("free_remote"), frees as f64), "fraction");
    rep.put(
        "remote.drained_per_batch",
        ratio(c("remote_drained"), c("remote_drain_batches")),
        "blocks",
    );
    rep.put("wal.appends_per_op", ratio(c("wal_appends"), ops), "1/op");
    rep.put("large.malloc_ns", spans.mean(Name::LargeMalloc), "ns");
    rep.put("large.free_ns", spans.mean(Name::LargeFree), "ns");
    rep.put("large.splits_per_kop", ratio(c("extent_splits"), kop), "1/kop");
    rep.put("large.coalesces_per_kop", ratio(c("extent_coalesces"), kop), "1/kop");
    rep.put("probe.large_pair_ns", probes::large_pair_ns(), "ns");
    rep.put("booklog.appends_per_large_op", ratio(c("booklog_appends"), large_ops as f64), "1/op");
    rep.put(
        "booklog.gc_runs_per_kop",
        ratio(c("booklog_fast_gc_runs") + c("booklog_slow_gc_runs"), kop),
        "1/kop",
    );
    rep.put("rtree.lookup_ns", probes::rtree_lookup_ns(), "ns");
    rep.put("probe.recover_1k_ms", probes::recover_1k_ms(), "ms");
    rep.put("pmem.flushes_per_op", flushes_per_op, "1/op");
    rep.put("pmem.fences_per_op", fences_per_op, "1/op");
    rep.put("pmem.reflush_pct", model.stats.reflush_pct(), "%");
    rep.put(
        "pmem.xpbuf_misses_per_op",
        ratio(model.stats.xpbuf_misses as f64, model.ops() as f64),
        "1/op",
    );
    rep.put("pmem.flush_ns", flush_ns, "ns");
    rep.put("pmem.flush_ns_2t", flush_ns_2t, "ns");
    rep.put("pmem.fence_ns", fence_ns, "ns");
    rep.put(
        "pmem.share_est",
        ratio(flushes_per_op * flush_ns_2t + fences_per_op * fence_ns, host_ns_per_op_thread),
        "fraction",
    );
    rep.put("pmem.crash_image_ms", model.image.as_ref().map_or(0.0, |i| i.crash_ms), "ms");
    rep.put("recovery_ms", median(&recovery), "ms");
    rep.put("pm_op_p50_ns", pm_q[0], "ns");
    rep.put("pm_op_p99_ns", pm_q[1], "ns");
    rep.put("kv.self_ns", spans.kv_self_ns, "ns");
    rep.put("trace.overhead_pct", ratio(base_mops - traced_mops, base_mops) * 100.0, "%");
    rep.put("trace.sample_ns_per_op", probes::sample_ns_per_op(), "ns/op");

    rep.note(format!(
        "telemetry schema_version {}; untraced {base_mops:.4} Mops/s, traced {traced_mops:.4} \
         Mops/s over {} spans (1 op in {})",
        ledger::counter(&bases[0].metrics_json, "schema_version"),
        spans.spans,
        rec::SPAN_EVERY
    ));
    rep.note(format!("modelled per-op deltas over {pm_n} ops"));
}

/// Pin glibc's malloc thresholds: mmap only above 32 MiB (the largest
/// value glibc accepts) and never trim the heap. Left dynamic, glibc
/// raises its mmap threshold each time a large block is freed, so whether
/// a later allocation reuses heap memory or faults in fresh pages depends
/// on the process's history, and `setup_s` came out bimodal from run to
/// run. Pinned, the allocator's DRAM structures come from reused heap
/// memory; the 64 MiB pools are still mapped afresh.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes plain
    // integers, changes only the allocator's own settings, and runs here
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    // A panicking worker would leave the others waiting at a barrier:
    // exit at once instead, without a result line.
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report_panic(info);
        std::process::exit(101);
    }));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    if args.trace {
        per_layer(&args, &mut rep);
    } else {
        end_to_end(&args, &mut rep);
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} threads {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        work::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit) in &mut rep.metrics {
        if !value.is_finite() {
            rep.errors.push(format!("metric {name} is not finite ({value})"));
            *value = 0.0;
        }
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    for n in &rep.notes {
        println!("  # {n}");
    }
    for e in &rep.errors {
        println!("  ! {e}");
    }
    println!("{}", rep.json());
    if rep.errors.is_empty() && rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
