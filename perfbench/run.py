"""Benchmark of mqcardinal: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload series --seed 1 --seconds 15 --trace 0

Every run starts fresh worker processes (``worker.py``) with BLAS, OpenMP
and MKL pinned to one thread.  Each worker imports mqcardinal from ``src``,
sets the workload up and makes one untimed warm-up pass over every op
class.  With ``--trace 0`` one worker runs the seeded schedule of whole
passes, closed loop with one client, between set-up-only workers before and
after it, and the end-to-end metrics are printed.  With ``--trace 1`` one
worker runs the passes alternately untraced and traced and the per-layer
metrics are printed.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every op that returned passed its output check, 1 otherwise, and 2
when the checkout holds no mqcardinal sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9  # set-ups per timed run: 4 before the timed worker, its own, 4 after
DEADLINE_S = 170.0
DIGITS_CAP = 15.0


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def spawn(cfg, deadline):
    """Run one worker to completion and return its result object."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['mode']} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{cfg['mode']} worker failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_ms, q):
    """Linear-interpolation percentile of an ascending list."""
    pos = q * (len(sorted_ms) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_ms) - 1)
    return sorted_ms[lo] + (pos - lo) * (sorted_ms[hi] - sorted_ms[lo])


def goodput(records):
    """Ops that passed their check per second of all timed op time."""
    total_s = sum(r[1] for r in records) / 1e3
    return sum(1 for r in records if r[2] == "ok") / total_s


def class_table(records):
    """Per op class: count, share of ops, median ms of successful ops, failures."""
    rows = {}
    for cls in dict.fromkeys(r[0] for r in records):
        mine = [r for r in records if r[0] == cls]
        ok_ms = [r[1] for r in mine if r[2] == "ok"]
        rows[cls] = {
            "count": len(mine),
            "share": len(mine) / len(records),
            "median_ms": statistics.median(ok_ms) if ok_ms else None,
            "failed": len(mine) - len(ok_ms),
        }
    return rows


def end_to_end(setups, result):
    records = result["records"]
    ok = [r for r in records if r[2] == "ok"]
    ms = sorted(r[1] for r in ok)
    p90 = percentile(ms, 0.9)
    beyond = sum(1 for v in ms if v > p90)
    if beyond < 10:
        raise BenchError(f"only {beyond} successful ops beyond p90; the run is too short")
    errs = [r[4] for r in ok if r[4] is not None]
    worst = max(errs, default=0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": goodput(records),
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_mb"],
        "accuracy_digits": DIGITS_CAP if worst <= 0 else min(DIGITS_CAP, -math.log10(worst)),
        "ok_ratio": len(ok) / len(records),
    }
    notes = {"samples": len(ms), "beyond_p90": beyond, "setup_samples": setups}
    return metrics, notes


def per_layer(result):
    metrics = dict(result["layers"])
    metrics.update({
        "package.import_s": result["import_s"],
        "warmup_s": result["warmup_s"],
        "host.calib_ms": statistics.mean(result["calib_ms"]),
        "trace.overhead_ratio": goodput(result["traced"]) / goodput(result["records"]),
        "trace.self_sum_share": result["coverage"],
        "workload.shared_key_share": result["shared_key_share"],
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny op sizes, for the self-test of the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mqcardinal" / "__init__.py").is_file():
        print(f"error: no mqcardinal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in definition["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + DEADLINE_S
    cfg = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "out": str(ROOT / ".perfbench_out"),
    }

    def worker(mode, i=0):
        tmp = str(ROOT / ".perfbench_tmp" / f"{os.getpid()}-{mode}-{i}")
        return spawn(dict(cfg, mode=mode, tmp=tmp), deadline)

    try:
        if args.trace:
            result = worker("trace")
            values = per_layer(result)
            records = result["records"] + result["traced"]
            wanted = definition["per_layer"]
            notes = {}
        else:
            # Set-up samples on both sides of the timed worker, so that a slow
            # host episode at one end of the run moves fewer than half of them.
            half = (SETUP_RUNS - 1) // 2
            setups = [worker("setup", i)["setup_s"] for i in range(half)]
            result = worker("timed")
            setups.append(result["setup_s"])
            setups += [worker("setup", i)["setup_s"] for i in range(half, SETUP_RUNS - 1)]
            values, notes = end_to_end(setups, result)
            records = result["records"]
            wanted = definition["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [r for r in records if r[2] == "check"]
    failed = sum(1 for r in records if r[2] != "ok")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "classes": class_table(records),
        "raised": dict(Counter(r[3] for r in records if r[2] == "raised")),
        "check_failures": failures[:10],
        "calib_ms": result["calib_ms"],
        "host": result["info"],
        **notes,
    }
    for cls, row in report["classes"].items():
        med = "-" if row["median_ms"] is None else f"{row['median_ms']:.2f} ms"
        print(f"class {cls:<26} n={row['count']:<5} share={row['share']:.3f} "
              f"median={med} failed={row['failed']}")
    for m in wanted:
        extra = ""
        if m["name"] in ("op_p50_ms", "op_p90_ms"):
            extra = f"  (n={notes['samples']}, beyond p90={notes['beyond_p90']})"
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{extra}")
    print("run-info " + json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
