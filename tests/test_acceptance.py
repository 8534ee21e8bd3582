"""Acceptance suite: twelve independently runnable end-to-end checks.

Each test prints a single ``criterion NN: PASS`` or ``criterion NN: FAIL``
line (visible with ``pytest -s``) before asserting, so the full scorecard
is readable in one pass.
"""

import math

import numpy as np
import pytest

import mqcardinal as mq
from mqcardinal.cardinal import TWO_PI
from mqcardinal.errors import BudgetExceededError


def report(num: int, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} failed{tail}"


def oracle_symbol(kernel, xis, tau):
    """Long reference periodization with 10 tau one-sided terms (vectorized)."""
    xis = np.asarray(xis, dtype=float)
    total = np.zeros_like(xis)
    for j in range(-10 * tau, 10 * tau + 1):
        args = xis + TWO_PI * j
        vals = np.where(
            args == 0.0, mq.kernel_fourier_at_zero(kernel), mq.kernel_fourier(kernel, np.where(args == 0.0, 1.0, args))
        )
        total += vals
    return total


def test_01_truncation_parameter_reproduction():
    got = (
        mq.compute_tau(mq.poisson(1.0), 1e-16).term_count,
        mq.compute_tau(mq.poisson(1.0), 1e-32).term_count,
        mq.compute_tau(mq.gaussian(1.0), 1e-16).term_count,
    )
    report(1, got == (17, 27, 25), f"term counts {got}, want (17, 27, 25)")


def test_02_truncation_guarantee():
    # At eps = 1e-16 the requested accuracy sits below double-precision
    # roundoff of the sums themselves, so the budget carries a 4-ulp floor.
    xis = np.linspace(-math.pi + 1e-9, math.pi, 512)
    ulp = float(np.finfo(float).eps)
    worst = 0.0
    for alpha in (-1.0, -1.5):
        for c in (0.5, 1.0, 2.0):
            kernel = mq.poisson(c) if alpha == -1.0 else mq.multiquadric(alpha, c)
            for eps in (1e-8, 1e-12, 1e-16):
                plan = mq.compute_tau(kernel, eps)
                budget = max(eps, 4.0 * ulp)
                s_tau = mq.periodized_symbol(plan, xis)
                s_ref = oracle_symbol(kernel, xis, plan.tau)
                rel = float(np.max(np.abs(s_tau - s_ref) / s_ref))
                worst = max(worst, rel / budget)
                if rel > budget:
                    report(2, False, f"alpha={alpha} c={c} eps={eps:g}: rel {rel:.3g}")
    report(2, True, f"worst rel error at {worst:.3g} of budget")


def test_03_cardinal_delta_property():
    table = mq.build_cardinal_table(mq.poisson(1.0), 1e-16, 32, 16)
    resid = max(
        abs(table.value_at_grid(j * 16) - (1.0 if j == 0 else 0.0)) for j in range(-32, 33)
    )
    report(3, resid <= 1e-6, f"max |L(j) - delta| = {resid:.3e}")


def test_04_frequency_partition_of_unity():
    plan = mq.compute_tau(mq.poisson(1.0), 1e-16)
    xis = np.linspace(-math.pi + 1e-9, math.pi, 512)
    shifts = TWO_PI * np.arange(-plan.tau, plan.tau + 1)
    total = mq.cardinal_hat(plan, xis[None, :] + shifts[:, None]).sum(axis=0)
    worst = float(np.max(np.abs(total - 1.0)))
    report(4, worst <= 1e-12, f"max |sum - 1| = {worst:.3e}")


def test_05_poisson_closed_form_vs_generic():
    xs = np.linspace(0.01, 30.0, 1000)
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        closed = mq.kernel_fourier(mq.poisson(c), xs)
        generic = mq.kernel_fourier(mq.multiquadric(-1.0, c), xs)
        worst = max(worst, float(np.max(np.abs(generic - closed) / closed)))
    report(5, worst <= 1e-10, f"max relative gap = {worst:.3e}")


def test_06_h_rate_slopes():
    s3 = mq.run_h_convergence(f=mq.bspline(3))["slope"]
    s1 = mq.run_h_convergence(f=mq.bspline(1))["slope"]
    ok = 2.5 <= s3 <= 3.5 and 0.6 <= s1 <= 1.6
    report(6, ok, f"degree-3 slope {s3:.3f} in [2.5, 3.5]; degree-1 slope {s1:.3f} in [0.6, 1.6]")


def test_07_c_rate_slope():
    out = mq.run_c_convergence()
    bound = -0.8 * (math.pi - math.pi / 2.0)
    report(7, out["slope"] <= bound, f"slope {out['slope']:.3f} <= {bound:.4f}")


def test_08_noise_floor():
    delta = 1e-3
    out = mq.run_noise_floor(delta_grid=(0.0, delta))
    noisy = [r for r in out["rows"] if r[0] == delta]
    clean = [r for r in out["rows"] if r[0] == 0.0]
    final = noisy[-1][3]
    in_band = 0.1 * delta <= final <= 10.0 * delta
    plateau = out["plateau"][f"{delta:.17g}"]
    decreases = all(b <= 0.6 * a for a, b in zip([r[3] for r in clean], [r[3] for r in clean][1:]))
    report(
        8,
        in_band and plateau and decreases,
        f"final noisy sup {final:.3e} vs delta {delta:g}; plateau {plateau}; "
        f"clean decreases >= 40% per refinement {decreases}",
    )


def test_09_conditioning_ordering():
    out = mq.run_conditioning_study()
    conds = [r[3] for r in out["rows"] if r[0].startswith("gaussian")]
    growth = all(b >= 10.0 * a for a, b in zip(conds, conds[1:]) if math.isfinite(b))
    card = [r[6] for r in out["rows"]]
    bounded = all(math.isfinite(e) and e < 1.0 for e in card)
    report(
        9,
        growth and bounded,
        f"gaussian condition growth >= 10x each refinement {growth}; "
        f"cardinal path bounded everywhere {bounded}",
    )


def test_10_frame_bound_arithmetic():
    budget = mq.perturbation_budget(mq.FrameBounds(1.0, 1.0))
    exact = abs(budget - math.log(2.0) / math.pi) <= 1e-12
    fb = mq.FrameBounds(1.0, 1.0)
    ident = mq.perturbed_frame_bounds(fb, 0.0) == fb
    try:
        mq.perturbed_frame_bounds(fb, budget)
        raised = False
    except BudgetExceededError:
        raised = True
    report(10, exact and ident and raised,
           f"budget {budget:.12f}; identity at L=0 {ident}; error at L=budget {raised}")


def test_11_scaled_interpolant_identity():
    n = 8
    table = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16)
    nodes = np.arange(-n, n + 1) / n
    values = np.cos(2.0 * nodes) + 0.3 * nodes
    u = mq.fit_uniform(mq.SampleSet(nodes, values), mq.poisson(1.0), table)
    probes = np.linspace(-1.0, 1.0, 100)
    gap = float(np.max(np.abs(mq.eval_uniform(u, probes) - mq.scaled_eval(u, probes))))
    report(11, gap <= 1e-8, f"max dual-path gap = {gap:.3e}")


def test_12_deterministic_csv_output(tmp_path):
    runs = {
        "h-conv": lambda d: mq.run_h_convergence(N_grid=(4, 8, 16), M=16, T=2.0, out_dir=d),
        "c-conv": lambda d: mq.run_c_convergence(J=32, table_N=64, T=4.0, out_dir=d),
        "noise": lambda d: mq.run_noise_floor(N_grid=(4, 8, 16), M=16, T=2.0, out_dir=d),
        "jitter": lambda d: mq.run_jitter_study(L_grid=(0.0, 0.1, 0.2), J=16, T=4.0, out_dir=d),
        "conditioning": lambda d: mq.run_conditioning_study(N_grid=(1, 2, 4), M=16, out_dir=d),
    }
    mismatched = []
    for name, run in runs.items():
        d1, d2 = tmp_path / name / "a", tmp_path / name / "b"
        p1 = run(d1)["csv"]
        p2 = run(d2)["csv"]
        if open(p1, "rb").read() != open(p2, "rb").read():
            mismatched.append(name)
    report(12, not mismatched,
           "all five study CSVs byte-identical" if not mismatched
           else f"mismatched: {', '.join(mismatched)}")
