"""Error-norm, rate-fit, and study-runner tests."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import mqcardinal as mq
from mqcardinal import experiments
from mqcardinal.errors import DomainError, InsufficientDataError
from mqcardinal.testfunctions import zero


class TestSimpson:
    """The private Simpson rule against scipy's, on the odd grids error_norms uses."""

    @pytest.mark.parametrize("points", [3, 5, 33, 257, 1025, 4097])
    def test_bit_identical_to_scipy(self, points):
        x = np.linspace(-4.0, 4.0, points)
        y = np.random.default_rng(points).standard_normal(points) ** 2
        for xs, ys in ((x, y), (x[::2], y[::2])):
            if xs.size >= 3:
                assert experiments._simpson(ys, xs) == simpson(ys, x=xs)

    def test_uneven_panels_bit_identical(self):
        x = np.cumsum(np.random.default_rng(7).uniform(0.5, 1.5, 65))
        y = np.sin(x)
        assert experiments._simpson(y, x) == simpson(y, x=x)


class TestErrorNorms:
    def test_zero_for_identical_functions(self):
        f = mq.bspline(3)
        rep = mq.error_norms(f, f)
        assert rep.l2_window == 0.0
        assert rep.sup_window == 0.0
        assert rep.self_check == 0.0

    def test_self_check_recorded(self):
        f = mq.bspline(1)
        rep = mq.error_norms(f, zero(), T=2.0, step=1.0 / 64.0)
        assert 0.0 <= rep.self_check < 1e-3
        # The L2 of the degree-1 spline itself: known closed form 2/3.
        assert rep.l2_window == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-6)
        assert rep.sup_window == pytest.approx(1.0, abs=1e-12)

    def test_scaled_cardinal_l2(self):
        # For g(x) = L(N x) the window L2 scales like N^{-1/2}.
        table = mq.build_cardinal_table(mq.poisson(1.0), 1e-12, 32, 16)
        norms = {}
        for n in (4, 16):
            rep = mq.error_norms(
                zero(), lambda x: mq.eval_cardinal(table, n * np.asarray(x)),
                T=1.0, step=1.0 / (64 * n),
            )
            norms[n] = rep.l2_window
        assert norms[4] / norms[16] == pytest.approx(2.0, rel=0.05)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mq.error_norms(zero(), zero(), T=0.0)
        with pytest.raises(ValueError):
            mq.error_norms(zero(), zero(), step=-1.0)

    def test_argument_errors_are_typed(self):
        # A DomainError is still a ValueError, so the CLI exits 2 on it.
        with pytest.raises(DomainError, match="window and step"):
            mq.error_norms(zero(), zero(), T=-1.0)


class TestFitRate:
    def test_exact_line(self):
        xs = np.log(1.0 / np.array([4.0, 8.0, 16.0, 32.0]))
        fit = mq.fit_rate(xs, 2.0 * xs + 1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_gives_zero_slope(self):
        fit = mq.fit_rate([1.0, 2.0, 3.0, 4.0], [5.0] * 4)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_exponential_decay(self):
        cs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        xs, ys = mq.rate_points(cs, np.exp(-cs))
        fit = mq.fit_rate(xs, ys)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            mq.fit_rate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            mq.fit_rate([1, 2, 3, 4], [1.0, math.nan, math.nan, 2.0])

    def test_rate_points_floor(self):
        xs, ys = mq.rate_points([1.0, 2.0, 3.0], [1e-3, 1e-20, 1e-5])
        np.testing.assert_array_equal(xs, [1.0, 3.0])
        assert np.all(np.isfinite(ys))


class TestTunedKernel:
    def test_families(self):
        assert mq.tuned_kernel(mq.poisson(1.0), 8).c == 8.0
        assert mq.tuned_kernel(mq.multiquadric(-1.5, 2.0), 4).c == 8.0
        assert mq.tuned_kernel(mq.gaussian(1.0), 4).lam == pytest.approx(1.0 / 16.0)

    def test_identity_at_unit_spacing(self):
        k = mq.poisson(2.0)
        assert mq.tuned_kernel(k, 1) == k


@pytest.fixture(scope="module")
def h_study():
    return mq.run_h_convergence(N_grid=(4, 8, 16, 32), M=32, T=2.0)


@pytest.fixture(scope="module")
def c_study():
    return mq.run_c_convergence(J=48, table_N=96, T=6.0)


@pytest.fixture(scope="module")
def cond_study():
    return mq.run_conditioning_study(N_grid=(1, 2, 4), M=16)


class TestHConvergence:
    def test_slope_matches_smoothness(self, h_study):
        study = h_study
        assert 2.5 <= study["slope"] <= 3.5

    def test_errors_decrease(self, h_study):
        errs = h_study["errors_l2"]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_fine_spacings_pass(self):
        # The tuned kernel at N = 256 is poisson(256), whose transform and
        # symbol underflow on the table grid; this raised "periodized symbol
        # underflowed".
        out = mq.run_h_convergence(N_grid=(32, 64, 128, 256))
        assert out["pass"], out["slope"]

    def test_zero_target_does_not_crash(self):
        out = mq.run_h_convergence(f=zero(), N_grid=(4, 8, 16, 32), M=16, T=2.0)
        assert math.isnan(out["slope"])

    def test_amplitude_scales_linearly(self):
        base = mq.run_h_convergence(N_grid=(4, 8, 16, 32), M=16, T=2.0)
        f = mq.bspline(3)
        doubled = mq.TestFunction("2*bspline(3)", lambda x: 2.0 * f(x), order=3.0)
        out = mq.run_h_convergence(f=doubled, N_grid=(4, 8, 16, 32), M=16, T=2.0)
        for e2, e1 in zip(out["errors_l2"], base["errors_l2"]):
            assert e2 == pytest.approx(2.0 * e1, rel=1e-8)
        assert out["slope"] == pytest.approx(base["slope"], abs=1e-6)


class TestCConvergence:
    def test_rate_bound(self, c_study):
        assert c_study["slope"] <= -0.8 * (math.pi - math.pi / 2.0)
        assert c_study["pass"]

    def test_wider_band_slows_decay(self, c_study):
        wide = mq.run_c_convergence(
            f=mq.fejer_bandlimited(0.95 * math.pi), J=48, table_N=96, T=6.0
        )
        assert abs(wide["slope"]) < abs(c_study["slope"])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mq.run_c_convergence(c_grid=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            mq.run_c_convergence(c_grid=(1.0, 3.0, 2.0, 4.0, 5.0))

    def test_grid_errors_are_typed(self):
        with pytest.raises(DomainError, match="c_grid"):
            mq.run_c_convergence(c_grid=(1.0, 2.0, 3.0, 4.0))


class TestNoiseFloor:
    def test_plateau_and_clean_decrease(self):
        out = mq.run_noise_floor(
            delta_grid=(0.0, 1e-3), N_grid=(8, 16, 32), M=32, T=2.0
        )
        assert out["plateau"]["0.001"]
        assert out["clean_decreasing"]
        assert out["pass"]
        # Noisy sup errors sit within an order of magnitude of delta.
        noisy = [r for r in out["rows"] if r[0] > 0]
        assert 0.1 * 1e-3 <= noisy[-1][3] <= 10.0 * 1e-3

    def test_one_table_per_spacing(self, monkeypatch):
        # The clean and the noisy rows of a spacing read the same table.
        build, built = experiments.build_cardinal_table, []

        def spy(*args, **kwargs):
            built.append(args[:4])
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_cardinal_table", spy)
        out = mq.run_noise_floor(delta_grid=(0.0, 1e-3), N_grid=(4, 8, 16), M=16, T=2.0)
        assert len(built) == 3
        assert len(set(built)) == 3
        assert [r[:2] for r in out["rows"]] == [(d, n) for d in (0.0, 1e-3) for n in (4, 8, 16)]

    @pytest.mark.parametrize("delta_grid", [(0.0, -1.0), (0.0, 1e-3, -1e-3), (0.0, math.nan),
                                            (0.0, math.inf)])
    def test_bad_noise_level_is_domain_error(self, tmp_path, delta_grid):
        # A negative or NaN level ran as a clean one, and the study passed.
        with pytest.raises(DomainError, match="finite nonnegative"):
            mq.run_noise_floor(delta_grid=delta_grid, N_grid=(4, 8), M=16, T=2.0,
                               out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delta_grid", [(0.0,), (0.0, 0.0), ()])
    def test_grid_without_noisy_level_is_domain_error(self, tmp_path, delta_grid):
        # Such a grid reported a noise-floor PASS with no noisy run.
        with pytest.raises(DomainError, match="delta > 0"):
            mq.run_noise_floor(delta_grid=delta_grid, N_grid=(4, 8), M=16, T=2.0,
                               out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestJitterStudy:
    def test_bounded_ratio_and_determinism(self, tmp_path):
        out1 = mq.run_jitter_study(L_grid=(0.0, 0.1, 0.2), J=16, T=4.0,
                                   out_dir=tmp_path / "a")
        out2 = mq.run_jitter_study(L_grid=(0.0, 0.1, 0.2), J=16, T=4.0,
                                   out_dir=tmp_path / "b")
        assert out1["pass"]
        assert out1["max_ratio"] < 100.0
        csv1 = (tmp_path / "a" / "jitter-poisson-c1-run.csv").read_bytes()
        csv2 = (tmp_path / "b" / "jitter-poisson-c1-run.csv").read_bytes()
        assert csv1 == csv2

    def test_magnitude_cap(self):
        with pytest.raises(ValueError):
            mq.run_jitter_study(L_grid=(0.0, 0.3))

    def test_magnitude_error_is_typed(self):
        with pytest.raises(DomainError, match="below 1/4"):
            mq.run_jitter_study(L_grid=(0.0, 0.25))
        # The ratio column is to the first run, which must be the unperturbed one.
        with pytest.raises(DomainError, match="start at 0"):
            mq.run_jitter_study(L_grid=(0.1, 0.2))


class TestConditioningStudy:
    def test_gaussian_condition_grows(self, cond_study):
        conds = [r[3] for r in cond_study["rows"] if r[0].startswith("gaussian")]
        assert conds[1] > 10 * conds[0]
        assert conds[2] > 10 * conds[1]

    def test_cardinal_path_stays_accurate(self, cond_study):
        card = [r[6] for r in cond_study["rows"]]
        assert all(math.isfinite(e) and e < 1.0 for e in card)

    def test_pass_flag(self, cond_study):
        assert cond_study["pass"]

    def test_condition_equals_gram_condition(self):
        # The study reads the condition from the Gram fit's own LU; it must
        # be the standalone estimate, bit for bit.
        out = mq.run_conditioning_study()
        kernels = (mq.gaussian(1.0), mq.poisson(1.0))
        expected = [(k, n) for k in kernels for n in (1, 2, 4, 8)]
        assert len(out["rows"]) == len(expected)
        finite = 0
        for row, (k, n) in zip(out["rows"], expected):
            if math.isfinite(row[3]):
                finite += 1
                assert row[3] == mq.gram_condition(np.arange(-n, n + 1) / n, k)
        assert finite >= 6

    def test_singular_gram_row(self, tmp_path):
        out = mq.run_conditioning_study(N_grid=(1,), kernel_list=(mq.gaussian(1e-20),),
                                        out_dir=tmp_path)
        assert out["rows"][0][3] == math.inf
        lines = (tmp_path / "conditioning-multi-run.csv").read_text().splitlines()
        assert lines[-2] == "kernel,N,h,condition,gram_l2,cardinal_l2"
        assert lines[-1].split(",")[3:5] == ["inf", ""]

    def test_timings_split_fit_and_eval(self, cond_study):
        keys = ("gram_fit_seconds", "gram_eval_seconds",
                "cardinal_fit_seconds", "cardinal_eval_seconds")
        assert len(cond_study["timings"]) == len(cond_study["rows"])
        for entry in cond_study["timings"]:
            assert all(entry[k] >= 0.0 for k in keys)


class TestDeterministicEmission:
    def test_h_conv_csv_byte_identical(self, tmp_path):
        kw = dict(N_grid=(4, 8, 16, 32), M=16, T=2.0)
        mq.run_h_convergence(out_dir=tmp_path / "a", **kw)
        mq.run_h_convergence(out_dir=tmp_path / "b", **kw)
        a = (tmp_path / "a" / "h-conv-poisson-c1-run.csv").read_bytes()
        b = (tmp_path / "b" / "h-conv-poisson-c1-run.csv").read_bytes()
        assert a == b
        assert a.startswith(b"# M=16")


DATA = Path(__file__).parent / "data"
# Columns compared with a tolerance; every other field, the '#' config
# lines and the header must match byte for byte.  The errors move in the
# last bits when the table build's arithmetic changes; the LAPACK-derived
# columns may differ between numpy/scipy wheels.
ABS_TOL = {"l2_error": 1e-13, "sup_error": 1e-13, "cardinal_l2": 1e-13, "gram_l2": 1e-13,
           "quad_self_check": 1e-6}
REL_TOL = {"condition": 1e-9, "ratio_to_L0": 1e-9, "frame_A": 1e-9, "floor": 1e-9}
DEFAULT_STUDIES = {
    "h-conv-poisson-c1-run.csv": mq.run_h_convergence,
    "c-conv-poisson-run.csv": mq.run_c_convergence,
    "noise-poisson-c1-run.csv": mq.run_noise_floor,
    "jitter-poisson-c1-run.csv": mq.run_jitter_study,
    "conditioning-multi-run.csv": mq.run_conditioning_study,
}

# The keys of each default study's JSON summary.
JSON_KEYS = {
    "h-conv-poisson-c1-run.csv": "config errors_l2 pass r_squared slope study target_order",
    "c-conv-poisson-run.csv": "band config errors_l2 pass r_squared rate_bound slope study",
    "noise-poisson-c1-run.csv": "clean_decreasing config pass plateau study",
    "jitter-poisson-c1-run.csv": "all_finite cardinal_l2 config max_ratio pass study",
    "conditioning-multi-run.csv": "config pass study timings",
}


def _field_matches(column, got, want):
    if got == want:
        return True
    if not (got and want) or column not in ABS_TOL.keys() | REL_TOL.keys():
        return False
    g, w = float(got), float(want)
    if column in ABS_TOL:
        return abs(g - w) <= ABS_TOL[column]
    return abs(g - w) <= REL_TOL[column] * abs(w)


class TestDefaultStudyRecord:
    """Behaviour oracle: the five default studies against their recorded CSVs."""

    @pytest.mark.parametrize("name", DEFAULT_STUDIES)
    def test_csv_matches_record(self, name, tmp_path):
        got = Path(DEFAULT_STUDIES[name](out_dir=tmp_path)["csv"]).read_text().splitlines()
        want = (DATA / name).read_text().splitlines()
        head = sum(line.startswith("#") for line in want) + 1
        assert got[:head] == want[:head]
        assert len(got) == len(want)
        columns = want[head - 1].split(",")
        for got_row, want_row in zip(got[head:], want[head:]):
            for column, g, w in zip(columns, got_row.split(","), want_row.split(","), strict=True):
                assert _field_matches(column, g, w), (column, got_row, want_row)

    @pytest.mark.parametrize("name", DEFAULT_STUDIES)
    def test_json_matches_summary(self, name, tmp_path):
        summary = DEFAULT_STUDIES[name](out_dir=tmp_path)
        written = json.loads(Path(summary["csv"]).with_suffix(".json").read_text())
        assert sorted(written) == JSON_KEYS[name].split()
        want = {k: v for k, v in summary.items() if k not in ("csv", "rows", "fit")}
        if "timings" in want:
            # Wall times differ from run to run: compare the entries' keys only.
            assert [sorted(t) for t in written.pop("timings")] == \
                [sorted(t) for t in want.pop("timings")]
        assert written == want
