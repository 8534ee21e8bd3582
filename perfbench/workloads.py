"""The four benchmark workloads: seeded schedules, timed ops and output checks.

Each workload draws its op parameters from a ``random.Random`` seeded by the
run seed.  A schedule is a list of whole passes; every pass holds each op
class a fixed number of times, in shuffled order, so the mix never depends
on how fast the host is.  Sizes are drawn stratified within each pass (one
draw per equal slice of the range), so every pass covers the whole range.

Per op the worker calls ``prepare`` (untimed: builds the inputs), ``run``
(timed: only calls into mqcardinal) and ``check`` (untimed: verifies the
output against a reference the benchmark computes itself).  ``check``
returns the op's accuracy error, or ``None`` where the op has none, and
raises ``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

import mqcardinal as mq
from mqcardinal import cli


class CheckFailed(Exception):
    """An op returned an output that does not pass its check."""


class Op:
    """One op of a schedule: its class name and drawn parameters."""

    def __init__(self, cls, **params):
        self.cls = cls
        self.params = params


def strata(rng, n, lo, hi, log=False):
    """n draws, one from each of n equal slices of [lo, hi], in random order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    if log:
        return [lo * (hi / lo) ** v for v in u]
    return [lo + (hi - lo) * v for v in u]


def _classes(counts):
    return [cls for cls, k in counts.items() for _ in range(k)]


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _rel_err(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def _target(rng_np, band):
    """A smooth test signal with two seeded modes below ``band``."""
    a, b = rng_np.uniform(0.2, 1.0, 2) * band
    phase = rng_np.uniform(0.0, 2.0 * math.pi)
    return lambda x: np.cos(a * x + phase) + 0.5 * np.sin(b * x)


def _cubic_table_eval(table, y):
    """4-point Lagrange evaluation of a table inside its range."""
    n, m = table.half_width_N, table.oversample_M
    u = y * m + n * m
    base = np.floor(u).astype(int) - 1
    s = u - base
    v = table.values
    return (
        -v[base] * (s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
        + v[base + 1] * s * (s - 2.0) * (s - 3.0) / 2.0
        - v[base + 2] * s * (s - 1.0) * (s - 3.0) / 2.0
        + v[base + 3] * s * (s - 1.0) * (s - 2.0) / 6.0
    )


# Successful ops a timed run needs so that at least ten lie beyond its p90.
MIN_OK_OPS = 120


class Workload:
    """Base: a pass holds ``counts[cls]`` ops of each op class."""

    counts: dict = {}
    passes_per_s = 1.0  # whole passes per second of timed ops, on a 2-vCPU host

    def __init__(self, tiny=False, tmp=None):
        self.tiny = tiny
        self.tmp = tmp

    def pass_count(self, seconds):
        """Whole passes for a run of about ``seconds`` of timed ops."""
        ok_per_pass = sum(k for cls, k in self.counts.items() if not cls.startswith("defect/"))
        return max(math.ceil(MIN_OK_OPS / ok_per_pass), round(seconds * self.passes_per_s))

    def setup(self):
        pass

    def shared_tables(self, op):
        """Tables built in set-up that the op reads."""
        return ()

    def draw_pass(self, rng):
        raise NotImplementedError

    def warmup(self, rng):
        """One op of every class, drawn from a stream of its own."""
        seen = {}
        for op in self.draw_pass(rng):
            seen.setdefault(op.cls, op)
        return list(seen.values())

    def schedule(self, rng, passes):
        return [self.draw_pass(rng) for _ in range(passes)]


class Series(Workload):
    """Uniform read path: fit or scale a cardinal series, then evaluate it."""

    counts = {"fit/poisson": 3, "fit/mq": 3, "scaled/poisson": 3, "scaled/mq": 3}
    passes_per_s = 1.6

    def __init__(self, tiny=False, tmp=None):
        super().__init__(tiny, tmp)
        self.j_lo, self.j_hi = (4, 12) if tiny else (32, 128)
        self.probes = 100 if tiny else 2000
        self.half_width = 2 * self.j_hi + 64

    def setup(self):
        self.tables = {
            "poisson": mq.build_cardinal_table(mq.poisson(1.0), 1e-12, self.half_width, 16),
            "mq": mq.build_cardinal_table(mq.multiquadric(-1.5, 1.0), 1e-12, self.half_width, 16),
        }

    def draw_pass(self, rng):
        classes = _classes(self.counts)
        rng.shuffle(classes)
        js = strata(rng, len(classes), self.j_lo, self.j_hi + 1)
        return [Op(cls, J=int(j), seed=rng.getrandbits(32)) for cls, j in zip(classes, js)]

    def shared_tables(self, op):
        return (self.tables[op.cls.split("/")[1]],)

    def prepare(self, op):
        j = op.params["J"]
        rng = np.random.default_rng(op.params["seed"])
        f = _target(rng, math.pi * j)
        nodes = np.arange(-j, j + 1) / j
        values = f(nodes)
        probes = np.concatenate([rng.uniform(-1.0, 1.0, self.probes), nodes])
        kind, family = op.cls.split("/")
        table = self.tables[family]
        samples = mq.SampleSet(nodes, values) if kind == "fit" else None
        return {"table": table, "samples": samples, "values": values, "probes": probes}

    def run(self, op, inp):
        table = inp["table"]
        if inp["samples"] is not None:
            u = mq.fit_uniform(inp["samples"], table.kernel, table)
            return mq.eval_uniform(u, inp["probes"])
        u = mq.cardinal_series(inp["values"], op.params["J"], table)
        return mq.scaled_eval(u, inp["probes"])

    def check(self, op, inp, out):
        j, values, probes = op.params["J"], inp["values"], inp["probes"]
        _require(out.shape == probes.shape and np.all(np.isfinite(out)), "bad output shape")
        err = _rel_err(out[-values.size:], values)
        _require(err <= 1e-10, f"data not reproduced at the nodes: {err:.3g}")
        # Off-node probes against the benchmark's own series sum.
        x = probes[:16]
        y = j * x[:, None] - np.arange(-j, j + 1)[None, :]
        want = _cubic_table_eval(inp["table"], y) @ values
        off = float(np.max(np.abs(out[:16] - want))) / float(np.sum(np.abs(values)))
        _require(off <= 1e-12, f"off-node values differ from the reference: {off:.3g}")
        return err


_M_WIDE = (24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60, 64)
_M_NARROW = (16, 18, 20, 24, 25, 27, 30, 32)


class TableBuild(Workload):
    """Write path of the cardinal layer: build one table per op."""

    counts = {
        "poisson": 6, "gaussian": 5, "mq-0.75": 3, "mq-1.5": 3, "mq-2.5": 3,
        # Known defects, under 10% of ops: symbol underflow and a bare
        # math domain error from compute_tau.
        "defect/poisson-c300": 1, "defect/mq-0.75-c150": 1,
    }
    passes_per_s = 1.9

    def draw_pass(self, rng):
        ops = []
        for cls, k in self.counts.items():
            eps = strata(rng, k, 1e-12, 1e-10, log=True)
            if cls.startswith("defect/"):
                c = 300.0 if "poisson" in cls else 150.0
                ops += [Op(cls, c=c, eps=e, N=32, M=16) for e in eps]
                continue
            wide = cls in ("poisson", "gaussian")
            n_hi = (64 if self.tiny else 1024) if wide else (32 if self.tiny else 256)
            ms = (16, 20) if self.tiny else (_M_WIDE if wide else _M_NARROW)
            ns = strata(rng, k, 32, n_hi + 1, log=True)
            mi = strata(rng, k, 0, len(ms))
            cs = strata(rng, k, 1.0, 4.0)
            ops += [Op(cls, c=c, eps=e, N=int(n), M=ms[int(i)])
                    for c, e, n, i in zip(cs, eps, ns, mi)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def kernel(op):
        family, c = op.cls.split("/")[-1], op.params["c"]
        if family.startswith("poisson"):
            return mq.poisson(c)
        if family == "gaussian":
            return mq.gaussian(c / 4.0)
        return mq.multiquadric(-float(family.split("-")[1]), c)

    def prepare(self, op):
        return {"kernel": self.kernel(op)}

    def run(self, op, inp):
        p = op.params
        return mq.build_cardinal_table(inp["kernel"], p["eps"], p["N"], p["M"])

    def check(self, op, inp, table):
        n, m = op.params["N"], op.params["M"]
        _require(table.values.shape == (2 * n * m + 1,), "wrong table size")
        _require(bool(np.all(np.isfinite(table.values))), "non-finite table values")
        delta = np.zeros(2 * n + 1)
        delta[n] = 1.0
        residual = float(np.max(np.abs(table.values[::m] - delta)))
        _require(residual <= op.params["eps"],
                 f"delta-property residual {residual:.3g} exceeds eps {op.params['eps']:.3g}")
        return residual


class GramScattered(Workload):
    """Scattered path: Gram fit and evaluation on a jittered integer section."""

    counts = {
        "poisson/uniform-random": 3, "poisson/alternating": 3,
        "mq-1.5/uniform-random": 3, "mq-1.5/alternating": 3,
    }
    passes_per_s = 2.1

    def __init__(self, tiny=False, tmp=None):
        super().__init__(tiny, tmp)
        self.j_lo, self.j_hi = (8, 32) if tiny else (64, 512)
        self.probes = 64 if tiny else 2048

    def draw_pass(self, rng):
        classes = _classes(self.counts)
        rng.shuffle(classes)
        n = len(classes)
        js = strata(rng, n, self.j_lo, self.j_hi + 1)
        cs = strata(rng, n, 0.5, 1.5)
        mags = strata(rng, n, 0.05, 0.24)
        return [Op(cls, J=int(j), c=c, magnitude=g, seed=rng.getrandbits(32))
                for cls, j, c, g in zip(classes, js, cs, mags)]

    def prepare(self, op):
        p = op.params
        family, pattern = op.cls.split("/")
        kernel = mq.poisson(p["c"]) if family == "poisson" else mq.multiquadric(-1.5, p["c"])
        spec = mq.JitterSpec(p["magnitude"], p["seed"], pattern)
        nodes = mq.apply_jitter(mq.NodeSequence.integers(p["J"]), spec).nodes
        rng = np.random.default_rng(p["seed"])
        values = _target(rng, 0.5 * math.pi)(nodes)
        probes = np.concatenate([rng.uniform(-p["J"], p["J"], self.probes), nodes])
        return {"kernel": kernel, "samples": mq.SampleSet(nodes, values), "probes": probes}

    def run(self, op, inp):
        g = mq.fit_gram(inp["samples"], inp["kernel"])
        return g, mq.eval_gram(g, inp["probes"])

    def check(self, op, inp, out):
        g, vals = out
        values, probes, k = inp["samples"].values, inp["probes"], inp["kernel"]
        _require(vals.shape == probes.shape and np.all(np.isfinite(vals)), "bad output shape")
        err = _rel_err(vals[-values.size:], values)
        _require(err <= 1e-8, f"data not reproduced at the nodes: {err:.3g}")
        # Off-node probes against the benchmark's own kernel sum.
        d = probes[:16, None] - g.nodes[None, :]
        want = ((d * d + k.c * k.c) ** k.alpha) @ g.a
        scale = float(np.sum(np.abs(g.a))) * k.c ** (2.0 * k.alpha)
        off = float(np.max(np.abs(vals[:16] - want))) / scale
        _require(off <= 1e-12, f"off-node values differ from the reference: {off:.3g}")
        return err


def _read_csv(path):
    """Header and data rows of a study CSV (``#`` lines are its config)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [row.split(",") for row in lines[1:]]


class Studies(Workload):
    """End-to-end user paths: the five study runners and ``mqcardinal interp``."""

    # Three cost bands: interp and jitter (5-20 ms), c-conv and conditioning
    # (50-75 ms), h-conv and noise (~90 ms).  The weights put p50 inside the
    # middle band and p90 inside the top band, clear of the 3x step below.
    counts = {
        "interp-grid": 2, "interp-scattered": 2, "jitter": 2,
        "c-conv": 3, "conditioning": 3, "h-conv": 2, "noise": 2,
    }
    passes_per_s = 1.2

    def draw_pass(self, rng):
        ops = []
        for cls, k in self.counts.items():
            cs = strata(rng, k, 1.0, 2.0)
            for c in cs:
                p = {"c": c, "seed": rng.getrandbits(31)}
                if cls == "noise":
                    p["delta"] = 10 ** rng.uniform(-2.8, -2.4)
                elif cls == "jitter":
                    p["pattern"] = rng.choice(("uniform-random", "alternating"))
                elif cls == "conditioning":
                    p["lam"] = rng.uniform(0.5, 2.0)
                elif cls == "interp-grid":
                    p["J"] = rng.randint(8, 16) if self.tiny else rng.randint(32, 64)
                elif cls == "interp-scattered":
                    p["J"] = rng.randint(8, 16) if self.tiny else rng.randint(48, 128)
                ops.append(Op(cls, **p))
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        p = op.params
        out = os.path.join(self.tmp, "op")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        inp = {"dir": out}
        # The runners keep their full grids at every size: a shorter grid
        # leaves too few points for the rate fits their pass rules use.
        if op.cls == "h-conv":
            inp["grid"] = (4, 8, 16, 32)
        elif op.cls == "c-conv":
            inp["grid"] = tuple(0.5 * p["c"] * np.array([2.0, 3.0, 4.0, 5.0, 6.0]))
        elif op.cls == "noise":
            inp["grid"] = (4, 8, 16)
            inp["rows"] = 2 * len(inp["grid"])
        elif op.cls == "jitter":
            inp["grid"] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.24)
        elif op.cls == "conditioning":
            inp["grid"] = (1, 2, 4, 8)
            inp["rows"] = 2 * len(inp["grid"])
        if op.cls.startswith("interp"):
            j = p["J"]
            rng = np.random.default_rng(p["seed"])
            if op.cls == "interp-grid":
                nodes = np.arange(-j, j + 1) / j
                values = _target(rng, 0.5 * math.pi * j)(nodes)
                probe = f"-1:1:{8 * j + 1}"
                c = p["c"]
            else:
                spec = mq.JitterSpec(0.2, p["seed"], "uniform-random")
                nodes = mq.apply_jitter(mq.NodeSequence.integers(j), spec).nodes
                values = _target(rng, 0.5 * math.pi)(nodes)
                probe = f"{float(nodes[0])!r}:{float(nodes[-1])!r}:{4 * (2 * j + 1)}"
                c = 0.5 * p["c"]
            samples = os.path.join(out, "samples.txt")
            with open(samples, "w") as fh:
                fh.writelines(f"{x!r} {v!r}\n" for x, v in zip(nodes.tolist(), values.tolist()))
            mode = op.cls.split("-")[1]
            inp["argv"] = ["interp", "--samples", samples, f"--c={c!r}", "--mode", mode,
                           f"--probe={probe}", "--out", os.path.join(out, "interp.csv")]
            inp["values"] = values
        return inp

    def run(self, op, inp):
        p, out, grid = op.params, inp["dir"], inp.get("grid")
        base = mq.poisson(p["c"])
        tag = "bench"
        if op.cls == "h-conv":
            return mq.run_h_convergence(N_grid=grid, base=base, out_dir=out, tag=tag)
        if op.cls == "c-conv":
            return mq.run_c_convergence(c_grid=grid, J=32, table_N=64, M=32, out_dir=out, tag=tag)
        if op.cls == "noise":
            return mq.run_noise_floor(delta_grid=(0.0, p["delta"]), N_grid=grid, seed=p["seed"],
                                      base=base, out_dir=out, tag=tag)
        if op.cls == "jitter":
            return mq.run_jitter_study(L_grid=grid, c=p["c"], J=16, seed=p["seed"],
                                       pattern=p["pattern"], out_dir=out, tag=tag)
        if op.cls == "conditioning":
            return mq.run_conditioning_study(N_grid=grid, kernel_list=(mq.gaussian(p["lam"]), base),
                                             out_dir=out, tag=tag)
        return cli.main(inp["argv"])

    def check(self, op, inp, out):
        if op.cls.startswith("interp"):
            _require(out == 0, f"interp exited {out}")
            with open(os.path.join(inp["dir"], "interp.csv")) as fh:
                lines = fh.read().splitlines()
            _require(lines[2] == "x,value", "interp output has no header")
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
            values = inp["values"]
            if op.cls == "interp-grid":
                _require(rows.shape == (4 * (values.size - 1) + 1, 2), "wrong interp row count")
                got = rows[::4, 1]
            else:
                _require(rows.shape == (4 * values.size, 2), "wrong interp row count")
                got, values = rows[[0, -1], 1], values[[0, -1]]
            err = _rel_err(got, values)
            _require(err <= 1e-8, f"interp does not reproduce the samples: {err:.3g}")
            return err
        _require(out.get("pass") is True, f"study {op.cls} did not pass")
        header, rows = _read_csv(out["csv"])
        _require(len(rows) == inp.get("rows", len(inp["grid"])), "wrong CSV row count")
        _require(all(len(r) == len(header) for r in rows), "ragged CSV rows")
        with open(out["csv"][:-4] + ".json") as fh:
            _require(json.load(fh).get("pass") is True, "study JSON does not record a pass")
        return None


WORKLOADS = {
    "series": Series,
    "table-build": TableBuild,
    "gram-scattered": GramScattered,
    "studies": Studies,
}
