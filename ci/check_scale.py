#!/usr/bin/env python3
"""Scale-regression gate over the committed BENCH_scale.json.

Compares a fresh CI smoke run of `bench_scale --smoke` against the
committed file's `smoke_baseline` and `wide_probes` sections:

* wall-time metrics (preprocess_ms, ingest_flush_ms, load p99) must not
  regress beyond RATIO (1.5x), with an absolute noise floor so
  microsecond-scale jitter on shared runners never trips the gate;
* the `wide_probes` lookup time at 16 and 20 predicates must not regress
  beyond RATIO either, with a 50 us floor: probe counts cannot tell the
  bounded generalization walk from a 2^n one (both probe twice), and a
  2^n walk (~7 ms at 16 predicates) or a store scan (~0.1 ms at 20)
  fails this gate;
* the wide-probe counts (wide_probe_16 / wide_probe_20) are pure
  functions of the seeded store contents and must match *exactly* — a
  drift means the lookup algorithm or the secondary index changed, which
  is a finding to record in BENCH_scale.json, not noise.

Two further gates read the fresh file alone and hold on any machine:

* the `overload` section's peak queue depth must not exceed its queue
  capacity (admission control bounds the queue whatever the load);
* every `load` block must report `internal == 0`: an `Answer::Internal`
  is a contained panic, a bug signal rather than load.

The committed baseline is regenerated per perf-relevant PR with
`cargo run --release -p vqs-bench --bin bench_scale -- --out BENCH_scale.json`.

Usage: check_scale.py BENCH_scale.json BENCH_scale.ci.json
"""

import json
import sys

RATIO = 1.5
# (metric path, absolute floor below which both values are "fast enough
# to not matter": ms for wall times, micros for latencies)
WALL_METRICS = [
    (("smoke_baseline", "preprocess_ms"), 20.0),
    (("smoke_baseline", "ingest_flush_ms"), 20.0),
    (("smoke_baseline", "load", "p99_intended_micros"), 20000.0),
]
# (predicate count, absolute floor in nanoseconds) of the gated
# `wide_probes` lookup times.
WIDE_LOOKUPS = [(16, 50000.0), (20, 50000.0)]
EXACT_METRICS = [
    ("smoke_baseline", "wide_probe_16"),
    ("smoke_baseline", "wide_probe_20"),
]


def dig(data, path):
    for key in path:
        data = data[key]
    return data


def wide_lookup_nanos(data, predicates):
    for entry in data["wide_probes"]:
        if entry["predicates"] == predicates:
            return float(entry["lookup_nanos"])
    raise SystemExit(f"no wide_probes entry for {predicates} predicates")


def load_blocks(data, path=()):
    """Yield (path, block) for every object stored under a "load" key."""
    if isinstance(data, dict):
        for key, value in data.items():
            if key == "load":
                yield path + (key,), value
            else:
                yield from load_blocks(value, path + (key,))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            yield from load_blocks(value, path + (str(index),))


def ratio_gate(name, base, now, floor, failures):
    if base <= floor and now <= floor:
        verdict = "ok (under noise floor)"
    elif now > RATIO * max(base, floor):
        verdict = f"REGRESSED (> {RATIO}x)"
        failures.append(name)
    else:
        verdict = "ok"
    print(f"{name}: committed {base:.3f}, fresh {now:.3f} -- {verdict}")


def main(committed_path, fresh_path):
    with open(committed_path) as handle:
        committed = json.load(handle)
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    if committed["schema"] != "vqs-bench-scale/v1":
        raise SystemExit(f"unexpected schema in {committed_path}")
    if fresh["schema"] != "vqs-bench-scale/v1":
        raise SystemExit(f"unexpected schema in {fresh_path}")

    failures = []
    for path, floor in WALL_METRICS:
        name = ".".join(path)
        ratio_gate(name, float(dig(committed, path)), float(dig(fresh, path)), floor, failures)

    for predicates, floor in WIDE_LOOKUPS:
        name = f"wide_probes[{predicates}].lookup_nanos"
        base = wide_lookup_nanos(committed, predicates)
        now = wide_lookup_nanos(fresh, predicates)
        ratio_gate(name, base, now, floor, failures)

    for path in EXACT_METRICS:
        name = ".".join(path)
        base = dig(committed, path)
        now = dig(fresh, path)
        if base != now:
            print(f"{name}: committed {base}, fresh {now} -- MISMATCH")
            failures.append(name)
        else:
            print(f"{name}: {base} -- ok (exact)")

    overload = fresh["overload"]
    peak, capacity = overload["peak_queued"], overload["queue_capacity"]
    if peak > capacity:
        print(f"overload.peak_queued: {peak} > queue_capacity {capacity} -- OVER CAP")
        failures.append("overload.peak_queued")
    else:
        print(f"overload.peak_queued: {peak} <= queue_capacity {capacity} -- ok")

    blocks = list(load_blocks(fresh))
    for path, block in blocks:
        if block["internal"] != 0:
            name = ".".join(path) + ".internal"
            print(f"{name}: {block['internal']} -- INTERNAL ANSWERS")
            failures.append(name)
    print(f"load blocks with internal == 0: checked {len(blocks)}")

    if failures:
        raise SystemExit(f"scale gate failed on: {failures}")
    print("scale gate OK")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
