//! Golden test for the exported metrics surface: a `MetricsSnapshot` with
//! every field set to a distinct non-zero value must render to exactly
//! this JSON (key order included), `since` must diff every field, and a
//! reversed `since` must saturate every field to zero. External scrapers
//! (the perfbench ledger, the CI fig22 gate) read these keys by name.

use nvalloc::telemetry::{
    LatencyHistogram, MetricsSnapshot, OpHistograms, OpKind, TcacheClassCounters,
};

/// A histogram with `n` samples in bucket `b`.
fn hist(b: usize, n: u64) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    h.buckets[b] = n;
    h
}

/// A snapshot in which the entry numbered `k` holds `base + step * k`:
/// scalars are numbered 1..=58, per-class counters 90..=97, per-shard
/// entries 22..=25 and histogram counts 80..=85 (op kinds, in buckets
/// 1..=6) and 34..=35 (lock wait/hold, in buckets 10 and 11).
fn snapshot(base: u64, step: u64) -> MetricsSnapshot {
    let v = |k: u64| base + step * k;
    let class = |class: usize, k: u64| TcacheClassCounters {
        class,
        hits: v(k),
        misses: v(k + 1),
        refills: v(k + 2),
        flushes: v(k + 3),
    };
    let mut hists = OpHistograms::default();
    for (i, kind) in OpKind::ALL.into_iter().enumerate() {
        hists.hists[i] = hist(i + 1, v(80 + i as u64));
        assert_eq!(hists.of(kind), &hists.hists[i]);
    }
    MetricsSnapshot {
        tcache_hits: v(1),
        tcache_misses: v(2),
        tcache_refills: v(3),
        tcache_flushes: v(4),
        tcache_by_class: vec![class(0, 90), class(1, 94)],
        cursor_rotations: v(5),
        slab_allocs: v(6),
        slab_retires: v(7),
        morph_candidates: v(8),
        morph_started: v(9),
        morph_completed: v(10),
        morph_undone: v(11),
        wal_appends: v(12),
        wal_replays: v(13),
        free_locks: v(14),
        free_fast_local: v(15),
        free_remote: v(16),
        remote_drain_batches: v(17),
        remote_drained: v(18),
        remote_drain_foreign: v(19),
        large_lock_acquires: v(20),
        large_lock_contended: v(21),
        large_shard_acquires: vec![v(22), v(23)],
        large_shard_contended: vec![v(24), v(25)],
        reservoir_hits: v(26),
        reservoir_misses: v(27),
        lock_wait_ns: v(28),
        lock_hold_ns: v(29),
        service_requests: v(30),
        service_completions: v(31),
        service_ticks: v(32),
        service_rebalances: v(33),
        lock_wait_hist: hist(10, v(34)),
        lock_hold_hist: hist(11, v(35)),
        trace_events: v(36),
        trace_dropped: v(37),
        booklog_appends: v(38),
        booklog_tombstones: v(39),
        booklog_fast_gc_runs: v(40),
        booklog_fast_gc_reaps: v(41),
        booklog_slow_gc_runs: v(42),
        booklog_slow_gc_copied: v(43),
        booklog_alt_flips: v(44),
        extent_best_fit: v(45),
        extent_splits: v(46),
        extent_coalesces: v(47),
        decay_epochs: v(48),
        pmsan_store_unfenced: v(49),
        pmsan_empty_fence: v(50),
        pmsan_redundant_flush: v(51),
        pmsan_shutdown_dirty: v(52),
        pmsan_violations: v(53),
        prof_samples: v(54),
        prof_appends: v(55),
        prof_frees: v(56),
        prof_compactions: v(57),
        prof_dropped: v(58),
        hists,
    }
}

/// The exact expected JSON of `snapshot(base, step)` up to (not including)
/// its `latency` object. Written as a template in which `@k` stands for
/// `base + step * k` and `#b:k` for a 64-bucket array holding `@k` in
/// bucket `b` and zero elsewhere.
fn expected_prefix(base: u64, step: u64) -> String {
    let template = concat!(
        "{\"schema_version\":2,",
        "\"tcache_hits\":@1,\"tcache_misses\":@2,\"tcache_refills\":@3,\"tcache_flushes\":@4,",
        "\"tcache_by_class\":[",
        "{\"class\":0,\"hits\":@90,\"misses\":@91,\"refills\":@92,\"flushes\":@93},",
        "{\"class\":1,\"hits\":@94,\"misses\":@95,\"refills\":@96,\"flushes\":@97}],",
        "\"cursor_rotations\":@5,\"slab_allocs\":@6,\"slab_retires\":@7,",
        "\"morph_candidates\":@8,\"morph_started\":@9,\"morph_completed\":@10,",
        "\"morph_undone\":@11,\"wal_appends\":@12,\"wal_replays\":@13,",
        "\"free_locks\":@14,\"free_fast_local\":@15,\"free_remote\":@16,",
        "\"remote_drain_batches\":@17,\"remote_drained\":@18,\"remote_drain_foreign\":@19,",
        "\"large_lock_acquires\":@20,\"large_lock_contended\":@21,",
        "\"large_shard_acquires\":[@22,@23],\"large_shard_contended\":[@24,@25],",
        "\"reservoir_hits\":@26,\"reservoir_misses\":@27,",
        "\"lock_wait_ns\":@28,\"lock_hold_ns\":@29,",
        "\"service_requests\":@30,\"service_completions\":@31,",
        "\"service_ticks\":@32,\"service_rebalances\":@33,",
        "\"trace_events\":@36,\"trace_dropped\":@37,",
        "\"booklog_appends\":@38,\"booklog_tombstones\":@39,",
        "\"booklog_fast_gc_runs\":@40,\"booklog_fast_gc_reaps\":@41,",
        "\"booklog_slow_gc_runs\":@42,\"booklog_slow_gc_copied\":@43,",
        "\"booklog_alt_flips\":@44,",
        "\"pmsan_store_unfenced\":@49,\"pmsan_empty_fence\":@50,",
        "\"pmsan_redundant_flush\":@51,\"pmsan_shutdown_dirty\":@52,",
        "\"pmsan_violations\":@53,",
        "\"prof_samples\":@54,\"prof_appends\":@55,\"prof_frees\":@56,",
        "\"prof_compactions\":@57,\"prof_dropped\":@58,",
        "\"extent_best_fit\":@45,\"extent_splits\":@46,\"extent_coalesces\":@47,",
        "\"decay_epochs\":@48,",
        "\"hist\":{\"malloc_small\":#1:80,\"malloc_large\":#2:81,\"free\":#3:82,",
        "\"morph\":#4:83,\"slow_gc\":#5:84,\"recovery\":#6:85,",
        "\"lock_wait\":#10:34,\"lock_hold\":#11:35},",
    );
    let mut out = String::new();
    let mut rest = template;
    while let Some(at) = rest.find(['@', '#']) {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let len = tail.find(|c: char| !c.is_ascii_digit() && c != ':').unwrap_or(tail.len());
        let (spec, after) = tail.split_at(len);
        if rest.as_bytes()[at] == b'@' {
            let k: u64 = spec.parse().unwrap();
            out.push_str(&(base + step * k).to_string());
        } else {
            let (b, k) = spec.split_once(':').unwrap();
            let (b, k): (usize, u64) = (b.parse().unwrap(), k.parse().unwrap());
            let cells: Vec<String> = (0..64)
                .map(|i| if i == b { (base + step * k).to_string() } else { "0".into() })
                .collect();
            out.push_str(&format!("[{}]", cells.join(",")));
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

// Quantiles of a one-bucket histogram interpolate linearly inside the
// bucket: bucket b spans [2^(b-1), 2^b) (bucket 1 spans [0, 2)), and the
// q-quantile sits at low + width * ceil(q * n) / n, truncated.

#[test]
fn snapshot_json_is_pinned_key_by_key() {
    let want = expected_prefix(1000, 1)
        + concat!(
            "\"latency\":{",
            "\"malloc_small\":{\"count\":1080,\"p50\":1,\"p95\":1,\"p99\":1,\"p999\":1},",
            "\"malloc_large\":{\"count\":1081,\"p50\":3,\"p95\":3,\"p99\":3,\"p999\":3},",
            "\"free\":{\"count\":1082,\"p50\":6,\"p95\":7,\"p99\":7,\"p999\":7},",
            "\"morph\":{\"count\":1083,\"p50\":12,\"p95\":15,\"p99\":15,\"p999\":15},",
            "\"slow_gc\":{\"count\":1084,\"p50\":24,\"p95\":31,\"p99\":31,\"p999\":31},",
            "\"recovery\":{\"count\":1085,\"p50\":48,\"p95\":62,\"p99\":63,\"p999\":63}",
            "}}",
        );
    assert_eq!(snapshot(1000, 1).to_json(), want);
}

#[test]
fn since_diffs_every_field_and_saturates_backwards() {
    // (1000 + 2k) - (300 + k) = 700 + k: every diffed entry is distinct.
    let (a, b) = (snapshot(1000, 2), snapshot(300, 1));
    let want = expected_prefix(700, 1)
        + concat!(
            "\"latency\":{",
            "\"malloc_small\":{\"count\":780,\"p50\":1,\"p95\":1,\"p99\":1,\"p999\":2},",
            "\"malloc_large\":{\"count\":781,\"p50\":3,\"p95\":3,\"p99\":3,\"p999\":4},",
            "\"free\":{\"count\":782,\"p50\":6,\"p95\":7,\"p99\":7,\"p999\":8},",
            "\"morph\":{\"count\":783,\"p50\":12,\"p95\":15,\"p99\":15,\"p999\":16},",
            "\"slow_gc\":{\"count\":784,\"p50\":24,\"p95\":31,\"p99\":31,\"p999\":32},",
            "\"recovery\":{\"count\":785,\"p50\":48,\"p95\":62,\"p99\":63,\"p999\":64}",
            "}}",
        );
    assert_eq!(a.since(&b).to_json(), want);

    // Backwards, every field saturates to zero; vector shapes and class
    // indices are kept.
    let zero_class = |class| TcacheClassCounters { class, ..Default::default() };
    let zero = MetricsSnapshot {
        tcache_by_class: vec![zero_class(0), zero_class(1)],
        large_shard_acquires: vec![0, 0],
        large_shard_contended: vec![0, 0],
        ..Default::default()
    };
    assert_eq!(b.since(&a), zero);
    assert_eq!(a.since(&a), zero);
}
