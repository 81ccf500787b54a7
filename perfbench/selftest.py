#!/usr/bin/env python3
"""Quick self-test of the benchmark.

Checks that BENCHMARK.json is well formed, then runs every workload for one
second in both modes and checks that each run passes its correctness checks
and emits exactly the metrics BENCHMARK.json names, each finite and with
its declared unit. Traced runs must also write a well-formed span file.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPAN_KEYS = {"pass", "thread", "id", "op", "name", "parent", "start_ns", "end_ns"}
SPAN_NAMES = {
    "kv.get", "kv.put", "front.malloc", "front.free_local", "front.free_remote",
    "large.malloc", "large.free", "front.usable_size",
    "pmem.read", "pmem.write", "pmem.flush", "pmem.fence",
}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            fail(f"workload entry {w}")
        names.add(w["name"])
    bounds = {}
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
        bounds[m["name"]] = m["bound"]
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["better"] not in ("higher", "lower"):
            fail(f"metric {m['name']} has better={m['better']!r}")
        if m["name"] in names:
            fail(f"name {m['name']} used twice")
        names.add(m["name"])
    if bounds.get("setup_s") != max(bounds.values()):
        fail("setup_s must exist and carry the largest bound")


def check_spans(workload, path):
    """Every span has its keys, a known name, end >= start, and a parent
    that is -1 or an earlier span of the same thread and pass."""
    if not os.path.exists(path):
        fail(f"{workload}: traced run wrote no span file {path}")
    seen = set()
    names = set()
    with open(path) as f:
        for n, line in enumerate(f, 1):
            s = json.loads(line)
            if set(s) != SPAN_KEYS or s["name"] not in SPAN_NAMES or s["end_ns"] < s["start_ns"]:
                fail(f"{workload}: span line {n} is malformed: {line.strip()}")
            if s["parent"] != -1 and (s["pass"], s["thread"], s["parent"]) not in seen:
                fail(f"{workload}: span line {n} names an unknown parent: {line.strip()}")
            seen.add((s["pass"], s["thread"], s["id"]))
            names.add(s["name"])
    if not seen:
        fail(f"{workload}: span file {path} is empty")
    if workload == "kv_mixed" and not {"kv.get", "kv.put"} <= names:
        fail(f"{workload}: span file has no kv.get / kv.put parents")
    print(f"selftest: {workload}: {len(seen)} spans in {os.path.relpath(path, ROOT)} ok")


def run(spec, workload, trace):
    spans = os.path.join(ROOT, "perfbench", "target", f"spans-{workload}.jsonl")
    if trace and os.path.exists(spans):
        os.remove(spans)
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{workload} trace {trace}: exit {p.returncode}\n{p.stdout}\n{p.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(out)}")
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        fail(f"{workload} trace {trace}: correct={out['correct']} failed={out['failed']}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = out["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace {trace}: metric names differ: {sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        v = got[m["name"]]
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{workload}: {m['name']} = {v['value']!r} is not finite")
        if v["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {v['unit']!r} != {m['unit']!r}")
        if trace == 0 and v["value"] == 0:
            fail(f"{workload}: end-to-end metric {m['name']} is 0")
    print(f"selftest: {workload} trace {trace}: {len(got)} metrics ok")
    if trace:
        check_spans(workload, spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            run(spec, w["name"], trace)
    print("selftest: ok")


if __name__ == "__main__":
    main()
