"""Error norms, rate fits, and the five study runners.

Every runner is deterministic for a fixed (config, seed) and can emit a
CSV (one row per grid point) plus a JSON summary with fitted slopes and
pass/fail flags.  Files are written as ``<study>-<kernel>-<tag>.csv`` with
the resolved configuration in '#' comment headers, floats at 17
significant digits, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cardinal import build_cardinal_table
from .errors import (
    DomainError,
    IllConditionedError,
    InsufficientDataError,
    NumericalConsistencyError,
    NumericalError,
)
from .interpolation import (
    SampleSet,
    cardinal_series,
    eval_gram,
    eval_uniform,
    fit_gram,
    fit_uniform,
)
from .kernels import GAUSSIAN, Kernel, gaussian, multiquadric, poisson
from .sampling import (
    ALTERNATING,
    JitterSpec,
    NodeSequence,
    NoiseSpec,
    apply_jitter,
    apply_noise,
    estimate_frame_bounds,
    kadec_margin,
)
from .testfunctions import TestFunction, bspline, fejer_bandlimited

_RATE_FLOOR = 1e-13


@dataclass(frozen=True)
class ErrorReport:
    """Windowed L2 and sup error of an approximation g to a target f.

    ``self_check`` is the relative change of the L2 value when the
    quadrature step is halved, recorded with every report.
    """

    l2_window: float
    sup_window: float
    window: float
    step: float
    self_check: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (x, log error) points."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson sum of y over the nodes x, for an odd node count.

    The same operations, in the same order, as ``scipy.integrate.simpson``
    on an odd-length 1-D grid: each panel [x_2i, x_2i+2] weighs its three
    values for the two spacings h0, h1 of that panel.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    terms = hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / ratio)
                          + y[1::2] * (hsum * (hsum / (h0 * h1)))
                          + y[2::2] * (2.0 - ratio))
    return float(np.sum(terms))


def error_norms(
    f: TestFunction, g: Callable, T: float = 4.0, step: float = 1.0 / 256.0
) -> ErrorReport:
    """Composite-Simpson L2 and grid sup of |f - g| on [-T, T].

    The quadrature is evaluated at the requested step and at half the step;
    the relative difference is recorded as a self-check and the finer value
    returned.
    """
    if T <= 0 or step <= 0:
        raise DomainError("window and step must be positive")
    m = 2 * max(2, math.ceil(T / step))
    fine = np.linspace(-T, T, 2 * m + 1)
    diff = np.abs(f(fine) - np.asarray(g(fine), dtype=float))
    if not np.all(np.isfinite(diff)):
        bad = fine[~np.isfinite(diff)][0]
        raise NumericalConsistencyError(f"non-finite approximation value near x = {bad:g}")
    sq = diff * diff
    l2_fine = math.sqrt(max(0.0, _simpson(sq, fine)))
    l2_coarse = math.sqrt(max(0.0, _simpson(sq[::2], fine[::2])))
    check = abs(l2_fine - l2_coarse) / l2_fine if l2_fine > 0 else 0.0
    return ErrorReport(l2_fine, float(diff.max()), T, step, check)


def fit_rate(xs, log_errors) -> RateFit:
    """Ordinary least squares through (x, log error) pairs; needs >= 4 points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(log_errors, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    if xs.size < 4:
        raise InsufficientDataError(f"rate fit needs >= 4 finite points, got {xs.size}")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = ys - ys.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return RateFit(float(slope), float(intercept), r2, tuple(zip(xs.tolist(), ys.tolist())))


def rate_points(xs, errors, floor: float = _RATE_FLOOR):
    """Drop error values at the roundoff floor, return (xs, log errors)."""
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    return xs[keep], np.log(errors[keep])


def tuned_kernel(base: Kernel, N: int) -> Kernel:
    """Unit-lattice kernel equivalent to interpolating with ``base`` at spacing 1/N.

    Dilating the lattice by h = 1/N rescales a multiquadric shape parameter
    to c N and a gaussian one to lambda / N^2.
    """
    if base.family == GAUSSIAN:
        return gaussian(base.lam / N**2)
    if base.family == "poisson":
        return poisson(base.c * N)
    return multiquadric(base.alpha, base.c * N)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _finish(study, label, tag, config, columns, rows, summary, out_dir, csv_rows=None):
    """Complete a study summary and write its CSV + JSON pair.

    Adds ``study`` to the config and to the summary, and the stringified
    config to the summary.  With ``out_dir`` given, writes
    ``<study>-<label>-<tag>.csv`` (from ``csv_rows``, or ``rows`` if None)
    and the summary as JSON next to it.  Then adds the CSV path (or None)
    and the raw ``rows`` to the summary, and returns it.
    """
    config = {"study": study, **config}
    summary["study"] = study
    summary["config"] = {k: _fmt(v) for k, v in config.items()}
    csv_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{study}-{label}-{tag}"
        csv_path = out / f"{stem}.csv"
        with open(csv_path, "w") as fh:
            for key in sorted(config):
                fh.write(f"# {key}={_fmt(config[key])}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows if csv_rows is None else csv_rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        with open(out / f"{stem}.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary["csv"] = str(csv_path) if csv_path else None
    summary["rows"] = rows
    return summary


def _rate_fit(xs, errors, floor: float) -> RateFit:
    """Rate fit through the errors above ``floor``; all NaN when fewer than
    four remain (e.g. every error at the roundoff floor, as for the zero
    target)."""
    try:
        return fit_rate(*rate_points(xs, errors, floor))
    except InsufficientDataError:
        return RateFit(float("nan"), float("nan"), float("nan"), ())


def _kernel_label(k: Kernel) -> str:
    if k.family == GAUSSIAN:
        return f"gaussian-lam{k.lam:g}"
    if k.family == "poisson":
        return f"poisson-c{k.c:g}"
    return f"multiquadric-a{k.alpha:g}-c{k.c:g}"


def interpolate_at_spacing(
    f: TestFunction,
    N: int,
    base: Kernel,
    epsilon: float = 1e-12,
    M: int = 64,
    noise: NoiseSpec | None = None,
    cover: float = 4.0,
):
    """Cardinal interpolant of f sampled at {j/N : |j| <= N} with base kernel.

    The table half-width covers every series term for |x| <= cover, so no
    tail terms are silently truncated inside the evaluation window.
    Returns the interpolant evaluator and the tuned table used.
    """
    table = _spacing_table(base, N, epsilon, M, cover)
    return _fit_at_spacing(f, N, table, noise), table


def _spacing_table(base, N, epsilon, M, cover):
    """Table of the kernel tuned to spacing 1/N, wide enough for |x| <= cover."""
    half_width = max(4, 2 * N, math.ceil(N * (cover + 1.0)))
    return build_cardinal_table(tuned_kernel(base, N), epsilon, half_width, M)


def _fit_at_spacing(f, N, table, noise):
    """Evaluator of the interpolant of f at {j/N : |j| <= N} on a tuned table."""
    nodes = np.arange(-N, N + 1) / N
    vals = f(nodes)
    if noise is not None:
        vals = apply_noise(vals, noise)
    u = fit_uniform(SampleSet(nodes, vals), table.kernel, table)
    return lambda x: eval_uniform(u, x)


def _spacing_errors(f, N_grid, base, epsilon, M, T, noises):
    """(N, error report for each of ``noises``) of the cardinal interpolant
    at each spacing 1/N.  The noises share one table per spacing."""
    for n in N_grid:
        table = _spacing_table(base, n, epsilon, M, T)
        yield n, [error_norms(f, _fit_at_spacing(f, n, table, noise), T=T, step=1.0 / (8 * n))
                  for noise in noises]


def run_h_convergence(
    f: TestFunction | None = None,
    N_grid: Sequence[int] = (8, 16, 32, 64),
    base: Kernel | None = None,
    epsilon: float = 1e-12,
    M: int = 64,
    T: float = 4.0,
    noise: NoiseSpec | None = None,
    out_dir=None,
    tag: str = "run",
) -> dict:
    """Spacing-refinement study: log error vs log h slope for a compact target."""
    f = f if f is not None else bspline(3)
    base = base if base is not None else poisson(1.0)
    rows = [(n, 1.0 / n, rep.l2_window, rep.sup_window, rep.self_check)
            for n, (rep,) in _spacing_errors(f, N_grid, base, epsilon, M, T, (noise,))]
    errs = [r[2] for r in rows]
    fit = _rate_fit([math.log(1.0 / n) for n in N_grid], errs, _RATE_FLOOR)
    config = {
        "target": f.name, "kernel": _kernel_label(base),
        "epsilon": epsilon, "M": M, "T": T, "N_grid": " ".join(map(str, N_grid)),
        "noise_delta": 0.0 if noise is None else noise.delta,
    }
    summary = {
        "slope": fit.slope, "r_squared": fit.r_squared,
        "target_order": f.order, "errors_l2": errs,
    }
    if math.isfinite(f.order):
        summary["pass"] = bool(f.order - 0.5 <= fit.slope <= f.order + 0.5)
    columns = ("N", "h", "l2_error", "sup_error", "quad_self_check")
    return {**_finish("h-conv", _kernel_label(base), tag, config, columns, rows, summary,
                      out_dir), "fit": fit}


def run_c_convergence(
    f: TestFunction | None = None,
    c_grid: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    base_alpha: float = -1.0,
    J: int = 64,
    table_N: int = 128,
    epsilon: float = 1e-12,
    M: int = 32,
    T: float = 8.0,
    out_dir=None,
    tag: str = "run",
) -> dict:
    """Shape-parameter study: log error vs c for a bandlimited target.

    Interpolates f on the integer section |j| <= J through the cardinal
    path for each shape parameter and fits log(error) against c; the slope
    is compared to -(pi - sigma) by the caller.
    """
    f = f if f is not None else fejer_bandlimited(math.pi / 2.0)
    if len(c_grid) < 5 or np.any(np.diff(c_grid) <= 0):
        raise DomainError("c_grid must be increasing with >= 5 points")
    rows = []
    coeffs_j = np.arange(-J, J + 1, dtype=float)
    for c in c_grid:
        k = poisson(c) if base_alpha == -1.0 else multiquadric(base_alpha, c)
        table = build_cardinal_table(k, epsilon, table_N, M)
        u = cardinal_series(f(coeffs_j), 1, table)
        rep = error_norms(f, lambda x: eval_uniform(u, x), T=T, step=1.0 / 32.0)
        rows.append((c, rep.l2_window, rep.sup_window, rep.self_check))
    errs = np.array([r[1] for r in rows])
    if not np.all(errs > 1e-14):
        warnings.warn("c-grid truncated: errors below 1e-14 dropped from the fit")
    fit = _rate_fit(c_grid, errs, 1e-14)
    label = "poisson" if base_alpha == -1.0 else f"multiquadric-a{base_alpha:g}"
    config = {
        "target": f.name, "kernel": label, "alpha": base_alpha,
        "J": J, "table_N": table_N, "epsilon": epsilon, "M": M, "T": T,
        "c_grid": " ".join(_fmt(float(c)) for c in c_grid),
    }
    summary = {
        "slope": fit.slope, "r_squared": fit.r_squared,
        "band": f.band, "rate_bound": -(math.pi - f.band) if math.isfinite(f.band) else None,
        "errors_l2": errs.tolist(),
    }
    if math.isfinite(f.band):
        summary["pass"] = bool(fit.slope <= -0.8 * (math.pi - f.band))
    columns = ("c", "l2_error", "sup_error", "quad_self_check")
    return {**_finish("c-conv", label, tag, config, columns, rows, summary, out_dir), "fit": fit}


def run_noise_floor(
    f: TestFunction | None = None,
    delta_grid: Sequence[float] = (0.0, 1e-3),
    N_grid: Sequence[int] = (8, 16, 32, 64),
    seed: int = 0,
    distribution: str = "single-spike",
    base: Kernel | None = None,
    epsilon: float = 1e-12,
    M: int = 64,
    T: float = 4.0,
    out_dir=None,
    tag: str = "run",
) -> dict:
    """Noise-floor study: sup error vs spacing for each noise budget delta.

    Clean errors keep decreasing under refinement while noisy errors level
    off near delta / sqrt(A), A estimated from the node section.
    """
    f = f if f is not None else bspline(3)
    base = base if base is not None else poisson(1.0)
    # The frame bounds depend on the node section only, not on delta.
    frame_a = {n: estimate_frame_bounds(NodeSequence.integers(min(n, 64))).A for n in N_grid}
    noises = [NoiseSpec(delta, seed, distribution) if delta > 0 else None for delta in delta_grid]
    reports = list(_spacing_errors(f, N_grid, base, epsilon, M, T, noises))
    rows = []
    plateau = {}
    for i, delta in enumerate(delta_grid):
        sups = []
        for n, reps in reports:
            rep = reps[i]
            rows.append((delta, n, rep.l2_window, rep.sup_window, frame_a[n],
                         delta / math.sqrt(frame_a[n])))
            sups.append(rep.sup_window)
        if len(sups) >= 2 and sups[-1] > 0:
            change = abs(sups[-1] - sups[-2]) / max(sups[-1], sups[-2])
            plateau[delta] = bool(delta > 0 and change < 0.20)
        else:
            plateau[delta] = False
    config = {
        "target": f.name, "kernel": _kernel_label(base),
        "distribution": distribution, "seed": seed, "epsilon": epsilon, "M": M, "T": T,
        "delta_grid": " ".join(_fmt(float(d)) for d in delta_grid),
        "N_grid": " ".join(map(str, N_grid)),
    }
    clean = [r for r in rows if r[0] == 0.0]
    clean_decreasing = bool(
        len(clean) >= 2 and clean[-1][3] <= 0.6 * clean[-2][3]
    )
    summary = {
        "plateau": {_fmt(float(d)): v for d, v in plateau.items()},
        "clean_decreasing": clean_decreasing,
        "pass": bool(
            all(v for d, v in plateau.items() if d > 0)
            and (clean_decreasing or not clean)
        ),
    }
    return _finish("noise", _kernel_label(base), tag, config,
                   ("delta", "N", "l2_error", "sup_error", "frame_A", "floor"),
                   rows, summary, out_dir)


def run_jitter_study(
    f: TestFunction | None = None,
    L_grid: Sequence[float] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.24),
    pattern: str = ALTERNATING,
    c: float = 1.0,
    J: int = 32,
    seed: int = 0,
    support: tuple = (),
    epsilon: float = 1e-12,
    T: float = 8.0,
    out_dir=None,
    tag: str = "run",
) -> dict:
    """Jitter study: Gram-path error on perturbed integers vs the clean cardinal path.

    Each perturbation magnitude L < 1/4 keeps the nodes a complete
    interpolating sequence; the study reports the error ratio against the
    unperturbed run and the clean cardinal-path error for comparison.
    """
    f = f if f is not None else fejer_bandlimited(math.pi / 2.0)
    if max(L_grid) >= 0.25:
        raise DomainError("jitter magnitudes must stay below 1/4")
    kern = poisson(c)
    label = _kernel_label(kern)
    table = build_cardinal_table(kern, epsilon, 4 * J, 16)
    u = cardinal_series(f(np.arange(-J, J + 1, dtype=float)), 1, table)
    card_rep = error_norms(f, lambda x: eval_uniform(u, x), T=T, step=1.0 / 32.0)

    rows = []
    base_err = None
    for L in L_grid:
        spec = JitterSpec(L, seed, pattern, support)
        ns = apply_jitter(NodeSequence.integers(J), spec)
        g = fit_gram(SampleSet(ns.nodes, f(ns.nodes)), kern)
        rep = error_norms(f, lambda x: eval_gram(g, x), T=T, step=1.0 / 32.0)
        if base_err is None:
            base_err = rep.l2_window
        ratio = rep.l2_window / base_err if base_err > 0 else float("nan")
        rows.append((L, kadec_margin(ns), rep.l2_window, rep.sup_window, ratio,
                     card_rep.l2_window))
    config = {
        "target": f.name, "kernel": label,
        "pattern": pattern, "seed": seed, "J": J, "epsilon": epsilon, "T": T,
        "L_grid": " ".join(_fmt(float(L)) for L in L_grid),
        "support": " ".join(map(str, support)),
    }
    summary = {
        "max_ratio": max(r[4] for r in rows),
        "all_finite": bool(all(math.isfinite(r[2]) for r in rows)),
        "pass": bool(all(math.isfinite(r[2]) for r in rows)),
        "cardinal_l2": card_rep.l2_window,
    }
    return _finish("jitter", label, tag, config,
                   ("L", "kadec_margin", "l2_error", "sup_error", "ratio_to_L0",
                    "cardinal_l2"), rows, summary, out_dir)


def _fit_eval_seconds(t0: float, t1: float | None, t2: float) -> tuple:
    """(fit, eval) seconds from the start, the end of the fit (None if it
    failed) and the end of the evaluation."""
    return (t2 - t0, 0.0) if t1 is None else (t1 - t0, t2 - t1)


def run_conditioning_study(
    N_grid: Sequence[int] = (1, 2, 4, 8),
    kernel_list: Sequence[Kernel] = (),
    f: TestFunction | None = None,
    epsilon: float = 1e-12,
    M: int = 32,
    out_dir=None,
    tag: str = "run",
) -> dict:
    """Gram conditioning vs the factorization-free cardinal path.

    For each kernel and spacing 1/N on [-1, 1]: the condition estimate of
    the Gram fit (read after the timings), and from both paths on a clean
    target the interpolation error and the wall times of the fit and of the
    error evaluation, timed separately (the cardinal fit includes its table
    build).  Ill-conditioned Gram rows get an infinite condition number and
    a blank error.
    """
    f = f if f is not None else bspline(3)
    kernel_list = tuple(kernel_list) or (gaussian(1.0), poisson(1.0))
    rows = []
    for kern in kernel_list:
        for n in N_grid:
            nodes = np.arange(-n, n + 1) / n
            t0, t1, g = time.perf_counter(), None, None
            try:
                g = fit_gram(SampleSet(nodes, f(nodes)), kern)
                t1 = time.perf_counter()
                gram_err = error_norms(f, lambda x: eval_gram(g, x), T=2.0,
                                       step=1.0 / (8 * n)).l2_window
            except IllConditionedError:
                gram_err = float("nan")
            gram_times = _fit_eval_seconds(t0, t1, time.perf_counter())
            # Read outside the timed block: the estimate is computed on first read.
            cond = float("inf") if g is None else g.cond_estimate
            t0, t1 = time.perf_counter(), None
            try:
                ge, _ = interpolate_at_spacing(f, n, kern, epsilon, M, cover=2.0)
                t1 = time.perf_counter()
                card_err = error_norms(f, ge, T=2.0, step=1.0 / (8 * n)).l2_window
            except NumericalError:
                card_err = float("nan")
            card_times = _fit_eval_seconds(t0, t1, time.perf_counter())
            rows.append((_kernel_label(kern), n, 1.0 / n, cond,
                         gram_err, gram_times, card_err, card_times))
    config = {
        "target": f.name, "epsilon": epsilon, "M": M,
        "N_grid": " ".join(map(str, N_grid)),
        "kernels": " ".join(_kernel_label(k) for k in kernel_list),
    }
    # Wall times are inherently run-dependent, so they live in the JSON
    # summary; the CSV stays byte-identical across reruns.
    growth_ok = True
    for kern in kernel_list:
        conds = [r[3] for r in rows if r[0] == _kernel_label(kern) and math.isfinite(r[3])]
        if any(b < a for a, b in zip(conds, conds[1:])):
            growth_ok = False
    summary = {
        "pass": growth_ok,
        "timings": [
            {"kernel": r[0], "N": r[1],
             "gram_fit_seconds": r[5][0], "gram_eval_seconds": r[5][1],
             "cardinal_fit_seconds": r[7][0], "cardinal_eval_seconds": r[7][1]}
            for r in rows
        ],
    }
    csv_rows = [(r[0], r[1], r[2], r[3], "" if math.isnan(r[4]) else _fmt(r[4]),
                 "" if math.isnan(r[6]) else _fmt(r[6])) for r in rows]
    return _finish("conditioning", "multi", tag, config,
                   ("kernel", "N", "h", "condition", "gram_l2", "cardinal_l2"),
                   rows, summary, out_dir, csv_rows)
