"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload series --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, each for
``BENCHMARK.json``'s ``run_seconds``, and prints for every
end-to-end metric its median and its spread, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to a third of the metric's bound.  The same
spread of each run's host reference loop (``calib_ms``) shows how much of
it the host's own speed drift explains.  The values are also written to
``.perfbench_out/steadiness-<workload>.json``.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = definition["run_seconds"]

    values = {m["name"]: [] for m in definition["end_to_end"]}
    calib = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                out, err = proc.communicate(timeout=300)
            except BaseException:
                proc.terminate()  # run.py stops its own worker on SIGTERM
                proc.wait()
                raise
        if proc.returncode != 0:
            print(err, file=sys.stderr)
            return proc.returncode
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(next(x for x in lines if x.startswith("run-info "))[len("run-info "):])
        calib.append(statistics.mean(info["calib_ms"]))
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + f" calib_ms={calib[-1]:.3g}")

    summary = {}
    for m in definition["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        summary[m["name"]] = {"median": med, "spread": spread, "bound": m["bound"], "values": vals}
        flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO NOISY")
        print(f"{m['name']:<16} median={med:<12.6g} spread={spread:.4f} "
              f"bound/3={m['bound'] / 3:.4f} {flag}")
    q1, _, q3 = statistics.quantiles(calib, n=4) if len(calib) > 1 else (0.0, 0.0, 0.0)
    print(f"{'host calib_ms':<16} median={statistics.median(calib):<12.6g} "
          f"spread={(q3 - q1) / statistics.median(calib):.4f} (host drift, not a metric)")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steadiness-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
                    "calib_ms": calib, "metrics": summary}, indent=2))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which stops the running benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
