"""Smoke self-test of the benchmark at tiny sizes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that
- one op of every class of every workload runs and passes its output
  check, except the known-defect inputs, which must raise;
- a deliberately corrupted result is rejected by every check, so that no
  check passes vacuously;
- ``run.py --tiny`` prints every end-to-end and per-layer metric named in
  ``BENCHMARK.json``, with its unit, for every workload, and the traced
  run's layer self times cover each op's wall time;
- ``run.py`` fails without a result in a directory that holds only
  ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check passes and 1 otherwise.
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mqcardinal as mq  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def rejected(wl, op, inp, out):
    try:
        wl.check(op, inp, out)
    except workloads.CheckFailed:
        return True
    return False


def _rewrite_csv(path, edit):
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n")


def corruptions(name, op, inp, out):
    """Ways to damage one op's result; each must fail the check."""
    if name == "series":
        j = op.params["J"]
        node = out.copy()
        node[-(j + 1)] += 1e-6  # value at x = 0, i.e. a perturbed coefficient
        off = out.copy()
        off[0] += 1e-6
        yield "perturbed node value", node
        yield "perturbed off-node value", off
    elif name == "table-build":
        n, m = op.params["N"], op.params["M"]
        values = out.values.copy()
        values[n * m + m] += 1e-9  # L(1) shifted away from 0
        yield "shifted table value", mq.CardinalTable(
            out.kernel, n, m, values, out.epsilon, out.interp_order)
    elif name == "gram-scattered":
        g, vals = out
        a = g.a.copy()
        a[a.size // 2] += 1e-3 * np.max(np.abs(a))
        yield "perturbed Gram coefficient", (dataclasses.replace(g, a=a), vals)
        node = vals.copy()
        node[-1] += 1e-6
        yield "perturbed node value", (g, node)
    elif op.cls.startswith("interp"):
        path = os.path.join(inp["dir"], "interp.csv")
        original = Path(path).read_text()

        def bump(lines):
            x, v = lines[3].split(",")
            return lines[:3] + [f"{x},{float(v) + 1e-3!r}"] + lines[4:]

        _rewrite_csv(path, bump)
        yield "perturbed interp value", out
        Path(path).write_text(original)
        _rewrite_csv(path, lambda lines: lines[:-1])
        yield "missing interp row", out
        Path(path).write_text(original)
        yield "non-zero exit", 1
    else:
        yield "study reported fail", dict(out, **{"pass": False})
        original = Path(out["csv"]).read_text()
        _rewrite_csv(out["csv"], lambda lines: lines[:-1])
        yield "missing CSV row", out
        Path(out["csv"]).write_text(original)


def check_ops():
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_tmp")
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(tiny=True, tmp=tmp)
            wl.setup()
            for op in wl.warmup(random.Random(7)):
                inp = wl.prepare(op)
                label = f"{name}/{op.cls}"
                try:
                    out = wl.run(op, inp)
                except Exception as exc:  # only the known-defect inputs may raise
                    expect(op.cls.startswith("defect/"), f"{label} raises {type(exc).__name__}")
                    continue
                try:
                    wl.check(op, inp, out)
                    expect(True, f"{label} passes its check")
                except workloads.CheckFailed as exc:
                    expect(False, f"{label} passes its check ({exc})")
                    continue
                for what, bad in corruptions(name, op, inp, out):
                    expect(rejected(wl, op, inp, bad), f"{label} rejects {what}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_runs():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in definition["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--tiny")
            label = f"run.py {w['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} prints the four result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{label} is correct")
            metrics = result["metrics"]
            missing = [m["name"] for m in definition[kind]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing and len(metrics) == len(definition[kind]),
                   f"{label} prints every {kind} metric with its unit {missing[:5]}")
            if trace:
                # Tiny ops last a few ms, so a 0.1 ms pause of the host between
                # two spans already costs 3-5% here; full-size ops reach 0.99.
                expect(metrics["trace.self_sum_share"]["value"] >= 0.9,
                       f"{label}: layer self times cover each op's wall time")
                if w["name"] == "gram-scattered":
                    cardinal = [k for k, v in metrics.items()
                                if k.startswith("cardinal.") and k.endswith(".calls") and v["value"]]
                    expect(not cardinal, f"{label}: no cardinal calls")


def check_bare_dir():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "series", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py fails without a result when the sources are absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    check_ops()
    check_bare_dir()
    check_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
