//! Turning passes into metrics: medians and quantiles, host throughput, the modelled-clock figures, allocator counters read by
//! their JSON keys, and span self times.

use std::collections::{BTreeMap, HashMap};

use nvalloc_workloads::harness::CPU_NS_PER_OP;

use crate::rec::{Name, NO_PARENT};
use crate::work::PassOut;

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Host throughput of passes in Mops/s: workload ops per host second of
/// their measured phases (each ends when its last thread finishes).
pub fn host_mops(passes: &[PassOut]) -> f64 {
    let ops: u64 = passes.iter().map(PassOut::ops).sum();
    let ns: u64 = passes.iter().map(|p| p.recs.iter().map(|r| r.end_ns).max().unwrap_or(0)).sum();
    ratio(ops as f64 * 1e3, ns as f64)
}

/// Sampled host op latencies of passes, merged and sorted.
pub fn host_samples(passes: &[PassOut]) -> Vec<f64> {
    let mut v: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.recs)
        .flat_map(|r| r.host_ns.iter().map(|&n| n as f64))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The paper's modelled throughput: ops ÷ the slowest thread's
/// (virtual PM ns + ops × `CPU_NS_PER_OP`), in Mops/s.
pub fn pm_mops(pass: &PassOut) -> f64 {
    let span = pass.recs.iter().map(|r| r.virtual_ns + r.ops * CPU_NS_PER_OP).max().unwrap_or(0);
    ratio(pass.ops() as f64 * 1e3, span as f64)
}

/// Nearest-rank quantile of the exact modelled per-op deltas, and the
/// number of ops they cover.
pub fn pm_quantiles(pass: &PassOut, qs: &[f64]) -> (Vec<f64>, u64) {
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &pass.recs {
        for (&v, &c) in &r.pm_ns {
            *merged.entry(v).or_default() += c;
        }
    }
    let total: u64 = merged.values().sum();
    let out = qs
        .iter()
        .map(|&q| {
            let rank = ((q * total as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (&v, &c) in &merged {
                seen += c;
                if seen >= rank {
                    return v as f64;
                }
            }
            0.0
        })
        .collect();
    (out, total)
}

/// The allocator counter `key` of a `MetricsSnapshot::since(..).to_json()`
/// object, read by its key.
///
/// # Panics
/// Panics when the key is missing: the ledger would silently report zero
/// for a renamed counter otherwise.
pub fn counter(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("telemetry JSON has no key {key:?}"));
    let digits: String = json[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse::<u64>().unwrap_or_else(|_| panic!("telemetry key {key:?} is not an integer"))
        as f64
}

/// Per-name span statistics of traced passes: mean duration, count, and
/// the mean self time of `kv.*` spans (duration minus child spans).
#[derive(Debug, Default)]
pub struct SpanStats {
    mean_ns: HashMap<&'static str, f64>,
    pub kv_self_ns: f64,
    pub spans: u64,
}

impl SpanStats {
    pub fn of(passes: &[PassOut]) -> SpanStats {
        let mut sums: HashMap<&'static str, (f64, u64)> = HashMap::new();
        let (mut kv_self, mut kv_n) = (0.0, 0u64);
        let mut spans = 0u64;
        for r in passes.iter().flat_map(|p| &p.recs) {
            let mut child = vec![0u64; r.spans.len()];
            for s in &r.spans {
                if s.parent != NO_PARENT {
                    child[s.parent as usize] += s.end - s.start;
                }
            }
            for (i, s) in r.spans.iter().enumerate() {
                let dur = s.end - s.start;
                let e = sums.entry(s.name.label()).or_default();
                e.0 += dur as f64;
                e.1 += 1;
                if matches!(s.name, Name::KvGet | Name::KvPut) {
                    kv_self += dur.saturating_sub(child[i]) as f64;
                    kv_n += 1;
                }
            }
            spans += r.spans.len() as u64;
        }
        let mean_ns = sums.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect();
        SpanStats { mean_ns, kv_self_ns: ratio(kv_self, kv_n as f64), spans }
    }

    /// Mean duration of the spans named `name` (0 when there are none).
    pub fn mean(&self, name: Name) -> f64 {
        self.mean_ns.get(name.label()).copied().unwrap_or(0.0)
    }
}

/// Traced operations per thread and pass whose spans [`write_spans`]
/// writes. The ledger uses every span; the file is a sample for
/// inspection (all spans of a `--trace 1` run of kv_mixed would be over
/// 100 MB).
pub const SPANS_OUT_OPS: usize = 256;

/// Write the span trees of the first [`SPANS_OUT_OPS`] traced operations
/// of each thread of each pass as JSON lines, creating the file's
/// directory if needed. `id` and `parent` index the spans of one thread
/// in one pass. Returns the number of spans written.
pub fn write_spans(passes: &[PassOut], path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for (pass, p) in passes.iter().enumerate() {
        for r in &p.recs {
            // Spans are stored op by op, each parent before its children,
            // so a prefix of whole ops keeps every parent index valid.
            let mut ops = 0;
            let mut last_op = None;
            for (i, s) in r.spans.iter().enumerate() {
                if last_op != Some(s.op) {
                    ops += 1;
                    last_op = Some(s.op);
                    if ops > SPANS_OUT_OPS {
                        break;
                    }
                }
                let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
                writeln!(
                    w,
                    "{{\"pass\":{pass},\"thread\":{},\"id\":{i},\"op\":{},\"name\":\"{}\",\
                     \"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    r.thread,
                    s.op,
                    s.name.label(),
                    s.start,
                    s.end
                )?;
                written += 1;
            }
        }
    }
    w.flush()?;
    Ok(written)
}
