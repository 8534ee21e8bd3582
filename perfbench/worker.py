"""One benchmark worker: a fresh process that sets up, warms up and runs ops.

Usage: ``python3 perfbench/worker.py '<json config>'`` with ``src`` on
``PYTHONPATH``; ``run.py`` starts it with BLAS and OpenMP pinned to one
thread.  The config names the workload, seed, run length, size and mode:

``setup``  time set-up only (import, workload set-up, warm-up pass);
``timed``  then run the timed passes untraced;
``trace``  then run the passes alternately untraced and traced.

The result is one JSON object on the last line of standard output.  Output
the library prints while it runs is discarded.
"""

import gc
import json
import os
import platform
import random
import resource
import shutil
import sys
import time


def calibrate():
    """Median time in ms of a fixed reference loop (pure Python and BLAS)."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        for _ in range(20):
            a = a @ a
            a /= np.max(a)
        times.append(time.perf_counter() - t)
    times.sort()
    return 1e3 * times[2]


def execute(wl, op, tracer=None):
    """Run one op; returns [class, ms, status, error class or message, accuracy]."""
    inp = wl.prepare(op)
    gc.collect()
    if tracer is not None:
        span = tracer.begin_op()
    start = time.perf_counter()
    try:
        out, raised = wl.run(op, inp), None
    except Exception as exc:  # a failed op is counted by its exception class
        out, raised = None, type(exc).__name__
    ms = 1e3 * (time.perf_counter() - start)
    if tracer is not None:
        tracer.end_op(span)
    if raised is not None:
        return [op.cls, ms, "raised", raised, None]
    try:
        accuracy = wl.check(op, inp, out)
    except Exception as exc:  # a malformed output may break the check itself
        return [op.cls, ms, "check", f"{type(exc).__name__}: {exc}", None]
    return [op.cls, ms, "ok", None, accuracy]


def main(cfg):
    t0 = time.perf_counter()
    import mqcardinal  # noqa: F401  (the import is part of set-up time)

    t_import = time.perf_counter()
    import workloads
    import layertrace

    wl = workloads.WORKLOADS[cfg["workload"]](tiny=cfg["tiny"], tmp=cfg["tmp"])
    seed = cfg["seed"]
    wl.setup()
    # The warm-up ops do not depend on the seed: set-up does the same work
    # in every run, so setup_s does not vary with the sizes a seed draws.
    for op in wl.warmup(random.Random("warmup")):
        execute(wl, op)
    t_ready = time.perf_counter()
    # Objects alive after set-up are never garbage; freezing them keeps the
    # per-op gc.collect() from rescanning them (~25 ms each).
    gc.freeze()
    result = {"setup_s": t_ready - t0, "import_s": t_import - t0, "warmup_s": t_ready - t_import}
    if cfg["mode"] == "setup":
        return result

    calib = [calibrate()]
    count = wl.pass_count(cfg["seconds"])
    if cfg["mode"] == "trace":
        count += count % 2
    passes = wl.schedule(random.Random(f"{seed}/schedule"), count)
    records = []
    if cfg["mode"] == "timed":
        for ops in passes:
            records += [execute(wl, op) for op in ops]
    else:
        # Even passes untraced, odd passes traced: the two halves see
        # different ops of the same mix, so no op runs twice.
        tracer = layertrace.Tracer()
        traced, key_sets = [], []
        for untraced_ops, traced_ops in zip(passes[::2], passes[1::2]):
            records += [execute(wl, op) for op in untraced_ops]
            tracer.install()
            try:
                for op in traced_ops:
                    traced.append(execute(wl, op, tracer))
                    shared = {layertrace.table_key(t) for t in wl.shared_tables(op)}
                    key_sets.append(tracer.op_keys | shared)
            finally:
                tracer.uninstall()
        result["layers"] = layertrace.layer_metrics(tracer, len(traced))
        result["traced"] = traced
        result["coverage"] = layertrace.op_coverage(tracer)
        result["shared_key_share"] = _shared_share(key_sets)
        os.makedirs(cfg["out"], exist_ok=True)
        tracer.write(os.path.join(cfg["out"], f"spans-{cfg['workload']}-{seed}.json.gz"))
    calib.append(calibrate())
    result.update(
        records=records,
        calib_ms=calib,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        info=_host_info(),
    )
    return result


def _shared_share(key_sets):
    """Share of ops that use a table key some other op also uses."""
    seen = {}
    for keys in key_sets:
        for k in keys:
            seen[k] = seen.get(k, 0) + 1
    shared = sum(1 for keys in key_sets if any(seen[k] > 1 for k in keys))
    return shared / len(key_sets) if key_sets else 0.0


def _host_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:  # no procfs: the count stays unknown
        pass
    return {
        "threads": threads,
        "nproc": os.cpu_count(),
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    real_stdout = sys.stdout
    sys.stdout = open(os.devnull, "w")
    os.makedirs(config["tmp"], exist_ok=True)
    try:
        out = main(config)
    finally:
        shutil.rmtree(config["tmp"], ignore_errors=True)
        sys.stdout.close()
        sys.stdout = real_stdout
    print(json.dumps(out))
