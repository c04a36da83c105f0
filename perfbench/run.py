#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <kv-pipelined|map-churn|map-long-reads>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own cargo
workspace; target directory `$CARGO_TARGET_DIR`, default `.bench_build`),
then starts measuring processes for each reclamation scheme (hpp, ebr,
hyaline), a fresh one per measurement, so the process-global counter ledger
never carries over between measurements. The `--seconds` budget is split
evenly between the processes.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs each scheme's
process with an untraced and a traced window, adds the ladder rungs and the
defect probe (`perfbench rungs`) and prints the per-layer metrics. Spans are
written under `<target dir>/perfbench-spans/<workload>/`.

The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The exit code is non-zero when an output check failed or a measuring
process could not run. README.md in this directory explains the choices.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMES = ("hpp", "ebr", "hyaline")
WORKLOADS = ("kv-pipelined", "map-churn", "map-long-reads")
# Untraced runs start ROUNDS[workload] processes per scheme, one round of
# all schemes after another, and report the median over the rounds.
# kv-pipelined gets more, shorter processes: on the 2-core host its hpp
# throughput varied by IQR/median ~0.35 from one 1 s process to the next
# (the same at 333 ms), against ~0.08 for a map workload's process.
ROUNDS = {"kv-pipelined": 30, "map-churn": 10, "map-long-reads": 10}
# Time given to the kv rungs in a traced run: a sixth each to the noop
# service and the direct store, the rest to the defect probe.
RUNG_MS = 6000
# Seconds a measuring process may take beyond its measuring window.
SLACK_S = 40

SCHEME_LAYER = {"hpp": "hp-plus", "ebr": "ebr", "hyaline": "hyaline"}

END_TO_END = [("setup_s", "s")] + [
    (f"mops.{s}", "Mops/s") for s in SCHEMES
] + [("p50_us.hpp", "us"), ("p99_us.hpp", "us")] + [
    (f"garbage_mean.{s}", "blocks") for s in SCHEMES
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr so the result stays the last stdout line.
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench"), target


def measure(binary, args, window_s):
    """Runs one measuring process and returns its JSON figures."""
    try:
        r = subprocess.run([binary] + [str(a) for a in args], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, timeout=window_s + SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, args))}")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"exit {r.returncode}: {' '.join(map(str, args))}")
    return json.loads(lines[-1])


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(res):
    m = {"setup_s": sum(res[s]["setup_s"] for s in SCHEMES)}
    for s in SCHEMES:
        m[f"mops.{s}"] = res[s]["mops"]
    m["p50_us.hpp"] = res["hpp"]["lat_p50_us"]
    m["p99_us.hpp"] = res["hpp"]["lat_p99_us"]
    for s in SCHEMES:
        m[f"garbage_mean.{s}"] = res[s]["garbage_mean"]
    return m


def per_layer(workload, res, rungs):
    """Every per-layer metric. A layer the workload does not call from the
    benchmark's side (the service on map-*, map spans on kv-pipelined)
    reads 0."""
    kv = workload == "kv-pipelined"
    hpp = res["hpp"]
    m = {}
    m["kv-service.submit_ns"] = hpp["submit_ns"] if kv else 0.0
    m["kv-service.drain_ns"] = hpp["drain_ns"] if kv else 0.0
    m["kv-service.ops_per_batch"] = hpp["ops_per_batch"] if kv else 0.0
    m["kv.window_self_ns"] = hpp["window_self_ns"] if kv else 0.0
    m["kv-service.noop_op_ns"] = rungs["noop_op_ns"]
    m["kv-service.store_op_ns"] = rungs["store_op_ns"]
    procs = list(res.values()) + [rungs]
    # The defect probe's errors count here, but not in the result's
    # `failed`, which counts the workload's own ops.
    for f in ("retry_after", "deadline", "stopped", "wrong_reply"):
        m[f"kv-service.failed.{f}"] = float(sum(p[f"failed.{f}"] for p in procs)
                                            + rungs[f"probe.{f}"])
    ops = sum(res[s]["ops_traced"] for s in SCHEMES)

    def total(key):
        return sum(res[s][key] for s in SCHEMES)

    m["smr-common.backoff_spins_per_op"] = ratio(total("d_spins"), ops)
    m["smr-common.backoff_yields_per_op"] = ratio(total("d_yields"), ops)
    m["smr-common.backoff_parks_per_op"] = ratio(total("d_parks"), ops)
    m["smr-common.cas_failures_per_op"] = ratio(total("d_cas_failures"), ops)
    m["smr-common.policy_scans_per_retire"] = ratio(total("d_scans_forced"), total("d_retired"))
    for s in SCHEMES:
        r = res[s]
        for op in ("get", "insert", "remove"):
            m[f"ds.{op}_ns.{s}"] = 0.0 if kv else r[f"{op}_ns"]
        for op in ("insert", "remove"):
            m[f"ds.{op}_hit_frac.{s}"] = 0.0 if kv else r[f"{op}_hit_frac"]
        layer = SCHEME_LAYER[s]
        m[f"{layer}.retired_per_op"] = ratio(r["d_retired"], r["ops_traced"])
        m[f"{layer}.freed_per_retired"] = ratio(r["d_freed"], r["d_retired"])
        m[f"trace.overhead_mops.{s}"] = r["mops"] - r["mops_traced"]
    for k in ("hp.protect_ns", "hp-plus.protect_ns", "ebr.pin_ns", "hyaline.pin_ns",
              "hp.retire_ns", "ebr.defer_ns", "hyaline.defer_ns"):
        m[k] = rungs[k]
    return m


def unit_of(name):
    for key, unit in END_TO_END:
        if key == name:
            return unit
    if "_ns" in name:
        return "ns"
    if "failed." in name:
        return "count"
    if name.startswith("trace.overhead_mops"):
        return "Mops/s"
    if name.endswith("_per_op"):
        return "count/op"
    if name.endswith("_per_retire"):
        return "count/retire"
    if name.endswith("ops_per_batch"):
        return "ops/batch"
    return "ratio"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1 or a.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    binary, target = build()
    common = ["--workload", a.workload, "--seed", a.seed, "--trace", a.trace]
    if a.trace:
        # One process per scheme: an untraced window, then a traced one.
        window_ms = a.seconds * 1000 // len(SCHEMES)
        spans = os.path.join(target, "perfbench-spans", a.workload)
        res = {s: measure(binary, ["work", "--scheme", s, "--millis", window_ms,
                                   "--spans", spans] + common, window_ms / 1000)
               for s in SCHEMES}
        by_scheme = {s: [r] for s, r in res.items()}
        rungs = measure(binary, ["rungs", "--seed", a.seed, "--millis", RUNG_MS],
                        RUNG_MS / 1000)
        procs = list(res.values()) + [rungs]
        metrics = per_layer(a.workload, res, rungs)
    else:
        # ROUNDS rounds of one process per scheme: throughput varied more
        # between processes than within one, and a slow spell of the host
        # lands in some rounds of every scheme, not in all of one.
        n = ROUNDS[a.workload]
        window_ms = a.seconds * 1000 // (len(SCHEMES) * n)
        rounds = {s: [] for s in SCHEMES}
        for _ in range(n):
            for s in SCHEMES:
                rounds[s].append(measure(binary, ["work", "--scheme", s, "--millis", window_ms]
                                         + common, window_ms / 1000))
        by_scheme = rounds
        procs = [r for rs in rounds.values() for r in rs]
        res = {s: {k: statistics.median(r[k] for r in rs) for k in rs[0]}
               for s, rs in rounds.items()}
        metrics = end_to_end(res)

    attempted = int(sum(p["attempted"] for p in procs))
    failed = int(sum(p["failed"] for p in procs))
    correct = all(p["correct"] == 1 for p in procs)

    print(f"workload {a.workload}  seed {a.seed}  seconds {a.seconds}  trace {a.trace}")
    for s, rs in by_scheme.items():
        # The highest percentile with ten samples beyond it, per process.
        tops = "  ".join(f"p{r['lat_top_pct']:g} {r['lat_top_us']:.1f}" for r in rs)
        print(f"  {s:8} processes {len(rs)}  attempted {int(sum(r['attempted'] for r in rs))}"
              f"  failed {int(sum(r['failed'] for r in rs))}"
              f"  latency samples {int(sum(r['lat_samples'] for r in rs))}  us: {tops}")
    if a.trace:
        print(f"  defect probe  attempted {int(rungs['probe.attempted'])}  "
              + "  ".join(f"{f} {int(rungs[f'probe.{f}'])}"
                          for f in ("retry_after", "deadline", "stopped", "wrong_reply")))
    for name, value in metrics.items():
        print(f"  {name:40} {value:14.6f} {unit_of(name)}")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    sys.stdout.flush()
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
