"""Command-line interface tests via main() return codes and captured output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mqcardinal
from mqcardinal import cli
from mqcardinal.cli import main
from test_cardinal import TABLE_CORRUPTIONS, corrupt_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def row(id, command, code, out="", err="", setup=None):
    return pytest.param(command.split(), code, out, err, setup, id=id)


README_CACHE = "table --family poisson --c 1 --eps 1e-12 --N 32 --M 16 --cache ./tables"
MQ = "--family multiquadric --alpha"

# Command-line outcomes whose whole check is the exit code and output: id,
# command, exit code, a substring of stdout and one of stderr, and the
# fixture, if any, that writes the input files.  A new case of this kind is
# a row here; a case that checks files or state is a test of its own below.
OUTCOMES = [
    # The README's table examples.
    row("table-out", "table --family poisson --c 1 --eps 1e-12 --N 32 --M 16 --out table.txt", 0,
        "delta-property residual: 4.921e-18\nwrote: table.txt"),
    row("table-cache", README_CACHE, 0, "cached: tables/table-"),
    # A cached table whose value line does not parse.
    row("table-cache-corrupt", README_CACHE, 2, err="malformed cardinal-table file tables/",
        setup="corrupt_cache"),
    # alpha < -1: the symbol's lower bound is phihat(pi).
    row("tau-mq-1.5", f"tau {MQ} -1.5 --c 1", 0, "tau: 7"),
    # An odd M, whose read-out has no t = M/2 column.
    row("table-mq-1.5-odd-M", f"table {MQ} -1.5 --c 1 --N 16 --M 17", 0, "values: 545"),
    # The log transform is filled between anchors.
    row("table-mq-0.75", f"table {MQ} -0.75 --c 2 --eps 1e-12 --N 64 --M 24", 0, "values: 3073"),
    # K_99.5 overflows on the small slots, which take K's small-argument series.
    row("table-mq-100", f"table {MQ} -100 --c 2 --eps 1e-11 --N 32 --M 64", 0, "values: 4097"),
    # The inverse FFT runs over blocks of rows.
    row("table-M4096", "table --family poisson --c 1 --eps 1e-10 --N 32 --M 4096", 0,
        "values: 262145"),
    # Kernels wide enough that c |xi| overflows.
    row("tau-poisson-c3e301", "tau --family poisson --c 3e301", 0, "tau: 1\n"),
    row("table-poisson-c3e301", "table --family poisson --c 3e301 --eps 1e-12 --N 32 --M 16", 0,
        "values: 1025"),
    row("table-mq-0.75-c1e306", f"table {MQ} -0.75 --c 1e306 --eps 1e-12 --N 32 --M 16", 0,
        "values: 1025"),
    row("table-mq-1.5-c1e307", f"table {MQ} -1.5 --c 1e307 --eps 1e-12 --N 32 --M 16", 0,
        "values: 1025"),
    # Past the widest c.
    row("tau-mq-0.75-c5e307", f"tau {MQ} -0.75 --c 5e307", 2, err="use a smaller c"),
    row("table-mq-0.75-c5e307", f"table {MQ} -0.75 --c 5e307", 2, err="use a smaller c"),
    # A subnormal eps: its products underflowed to 0 before their logs were sums of logs.
    row("tau-poisson-eps5e-324", "tau --family poisson --c 1 --eps 5e-324", 0, "tau: 120"),
    row("tau-gaussian-eps5e-324", "tau --family gaussian --lambda 1 --eps 5e-324", 0, "tau: 156"),
    row("tau-mq-0.75-eps5e-324", f"tau {MQ} -0.75 --c 1 --eps 5e-324", 0, "tau: 122"),
    row("table-eps4e-323", "table --family poisson --c 3 --eps 4e-323 --N 8 --M 16", 1,
        err="increase M to at least 128"),
    # Too narrow for the slot budget; the band is found by bisection.
    row("table-mq-1.5-narrow", f"table {MQ} -1.5 --c 8.939258925946754e-06 --eps 1e-2 --N 8 "
        "--M 16", 1, err="828157 rows of 2048 slots"),
    row("table-gaussian-narrow", "table --family gaussian --lambda 2.9e10 --eps 6.2e-3 --N 14 "
        "--M 45", 1, err="365221 rows of 2048 slots"),
    # 1 - exp(-2 pi c) rounded to 0, and the kernel was called too wide.
    row("tau-mq-0.5-c1e-18", f"tau {MQ} -0.5 --c 1e-18 --eps 1e-2", 2,
        err="too narrow: its symbol needs over 1048576 shifts; use a larger c"),
    # The transform is singular at xi = 0, which every table samples.
    row("table-mq-0.5", f"table {MQ} -0.5 --c 1", 2, err="cardinal table requires alpha < -1/2"),
    row("table-mq-0.25", f"table {MQ} -0.25 --c 1", 2, err="cardinal table requires alpha < -1/2"),
    # The gaussian transform at pi underflows.
    row("table-lambda1e-310", "table --family gaussian --lambda 1e-310 --N 8 --M 16", 2,
        err="pi^2 / (4 lambda) overflows"),
    row("interp-scattered", "interp --samples jittered.txt --mode scattered --out jittered.csv", 0,
        "wrote: jittered.csv", setup="input_files"),
    # Not positive definite to working precision.
    row("interp-gaussian-grid", "interp --samples grid.txt --family gaussian --lambda 1 "
        "--mode scattered", 1, err="not positive definite", setup="input_files"),
    # The kernel's square overflows to its limit 0 at the far probes: their
    # differences are one BLAS product, and neither it nor the kernel may warn.
    row("interp-probes-1e200", "interp --samples jittered257.txt --mode scattered "
        "--probe=-1e200:1e200:5", 0, "\n9.9999999999999997e+199,0\n", setup="input_files"),
    row("study-jitter", "study jitter --out .", 0, "study jitter: PASS"),
    row("study-c-conv-seed", "study c-conv --seed 3 --out .", 2,
        err="study c-conv does not read: --seed"),
    # A kernel option that the family does not read, from a flag or a config.
    row("tau-poisson-alpha", "tau --alpha -1.5 --c 1", 2,
        err="poisson kernel does not read: --alpha"),
    row("tau-gaussian-c", "tau --family gaussian --c 1", 2,
        err="gaussian kernel does not read: --c"),
    row("table-mq-lambda", f"table {MQ} -1.5 --c 1 --lambda 2", 2,
        err="multiquadric kernel does not read: --lambda"),
    row("interp-gaussian-c-config", "interp --samples grid.txt --config gaussian.json", 2,
        err="gaussian kernel does not read: --c", setup="input_files"),
]


@pytest.fixture()
def input_files():
    """Sample files: 17 and 257 jittered integer nodes, and 49 nodes on
    [-1, 1], of sin; and a config for a gaussian with a width c."""
    for name, x in [
        ("jittered.txt", np.arange(-8, 9) + np.random.default_rng(0).uniform(-0.2, 0.2, 17)),
        ("jittered257.txt",
         np.arange(-128, 129) + np.random.default_rng(1).uniform(-0.2, 0.2, 257)),
        ("grid.txt", np.arange(-24, 25) / 24),
    ]:
        np.savetxt(name, np.c_[x, np.sin(x)])
    Path("gaussian.json").write_text(json.dumps({"family": "gaussian", "c": 1.0}))


@pytest.fixture()
def corrupt_cache():
    """The README's cached table, with a value line that does not parse."""
    assert main(README_CACHE.split()) == 0
    (path,) = Path("tables").glob("table-*.txt")
    corrupt_table(path, "value")


@pytest.mark.parametrize("argv, code, out, err, setup", OUTCOMES)
def test_outcome(capsys, tmp_path, monkeypatch, request, argv, code, out, err, setup):
    """Run in process in an empty directory.  An exception other than
    SystemExit fails the row; so does a traceback in stderr, or a stderr
    that does not open as its exit code's class of failure says."""
    monkeypatch.chdir(tmp_path)
    if setup:
        request.getfixturevalue(setup)
        capsys.readouterr()
    got, stdout, stderr = cached_run(capsys, argv)
    assert (got, out in stdout, err in stderr) == (code, True, True), (stdout, stderr)
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.startswith("numerical failure: ")
    elif code == 2:
        assert stderr.startswith(("error: ", "usage: "))


class TestTau:
    def test_poisson_default(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--family", "poisson", "--c", "1")
        assert code == 0
        assert "tau: 8" in out
        assert "terms (2 tau + 1): 17" in out

    def test_gaussian(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--family", "gaussian", "--lambda", "1")
        assert code == 0
        assert "tau: 12" in out
        assert "terms (2 tau + 1): 25" in out

    def test_bad_epsilon_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tau", "--eps", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("alpha, c", [("-200", "1"), ("-3", "1e-120")])
    def test_overflowing_kernel_is_numerical_failure(self, capsys, alpha, c):
        code, _, err = run_cli(
            capsys, "tau", "--family=multiquadric", f"--alpha={alpha}", f"--c={c}",
            "--eps=1e-10",
        )
        assert code == 1
        assert "numerical failure" in err and "overflows" in err

    @pytest.mark.parametrize(
        "kernel, code",
        [
            (("--family=poisson", "--c=1e-300"), 2),  # was a traceback (OverflowError)
            (("--family=multiquadric", "--alpha=-3", "--c=1e200"), 0),  # was exit 2 (ValueError)
            (("--family=multiquadric", "--alpha=-2.5", "--c=1e-200"), 1),
            # was exit 1: the alpha < -1 tail envelope overflowed
            (("--family=multiquadric", "--alpha=-1.5", "--c=1e-150"), 2),
        ],
    )
    def test_extreme_width_exit_codes(self, capsys, kernel, code):
        got, out, err = run_cli(capsys, "tau", *kernel, "--eps=1e-10")
        assert got == code
        assert ("tau: 1" in out) if code == 0 else ("larger c" in err)

    def test_multiquadric_needs_alpha(self, capsys):
        code, _, err = run_cli(capsys, "tau", "--family", "multiquadric")
        assert code == 2
        assert "alpha" in err


class TestTable:
    def test_build_and_write(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        code, text, _ = run_cli(
            capsys, "table", "--family", "poisson", "--c", "1",
            "--eps", "1e-12", "--N", "8", "--M", "16", "--out", str(out),
        )
        assert code == 0
        assert "delta-property residual" in text
        assert out.exists()

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ("table", "--family", "poisson", "--c", "1", "--eps", "1e-12",
                "--N", "8", "--M", "16", "--cache", str(cache))
        code1, out1, _ = run_cli(capsys, *argv)
        assert code1 == 0 and "cached" in out1
        files = list(cache.glob("table-*.txt"))
        assert len(files) == 1
        before = files[0].read_bytes()
        code2, out2, _ = run_cli(capsys, *argv)
        assert code2 == 0 and "cache hit" in out2
        assert files[0].read_bytes() == before

    @pytest.mark.parametrize("corruption", TABLE_CORRUPTIONS)
    def test_malformed_cached_table_is_usage_error(self, capsys, tmp_path, corruption):
        argv = ("table", "--family", "poisson", "--c", "1", "--eps", "1e-8",
                "--N", "8", "--M", "8", "--cache", str(tmp_path))
        assert run_cli(capsys, *argv)[0] == 0
        (path,) = tmp_path.glob("table-*.txt")
        corrupt_table(path, corruption)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"malformed cardinal-table file {path}" in err and "Traceback" not in err

    def test_bandwidth_failure_is_numerical(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--family", "poisson", "--c", "1",
            "--eps", "1e-16", "--N", "8", "--M", "8",
        )
        assert code == 1
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "kernel, hint",
        [
            # Gamma(200) in the transform's constant overflows.  Alpha = -100
            # at c = 2, whose K_99.5 overflowed on the small slots (the build
            # warned and found its spectrum not finite), now builds from K's
            # small-argument series.
            (("--alpha", "-200", "--c", "2", "--eps", "1e-11", "--N", "32", "--M", "64"),
             "larger c"),
            # The transform's constant underflowed: a bare math domain error.
            (("--alpha", "-160"), "increase M"),
            # Gamma(171.7) overflows.  Alpha = -160 at M = 64, whose K_159.5
            # overflowed on the small slots, now builds too.
            (("--alpha", "-171.7", "--M", "64"), "larger c"),
        ],
    )
    def test_extreme_order_is_numerical_failure(self, capsys, kernel, hint):
        code, _, err = run_cli(capsys, "table", "--family", "multiquadric", *kernel)
        assert code == 1
        assert "numerical failure" in err and hint in err

    def test_oversampling_past_band_reach_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--family", "poisson", "--c", "1",
            "--eps", "1e-10", "--N", "4", "--M", "4194304",
        )
        assert code == 2
        assert "M <= 2097153" in err


class TestInterp:
    @pytest.fixture()
    def grid_samples(self, tmp_path):
        n = 8
        nodes = np.arange(-n, n + 1) / n
        path = tmp_path / "samples.txt"
        path.write_text(
            "\n".join(f"{x:.17g} {np.sin(x):.17g}" for x in nodes) + "\n"
        )
        return path, nodes

    def test_grid_mode_reproduces_nodes(self, capsys, grid_samples, tmp_path):
        path, nodes = grid_samples
        out = tmp_path / "vals.csv"
        code, text, _ = run_cli(
            capsys, "interp", "--samples", str(path), "--family", "poisson",
            "--c", "1", "--eps", "1e-12", "--M", "16",
            "--probe=-1:1:17", "--out", str(out),
        )
        assert code == 0 and "wrote" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "# mode=grid"
        got = np.array([float(l.split(",")[1]) for l in lines[3:]])
        np.testing.assert_allclose(got, np.sin(nodes), atol=1e-6)

    def test_scattered_mode(self, capsys, tmp_path):
        path = tmp_path / "scatter.txt"
        path.write_text("-1.3 0.5\n-0.2 1.0\n0.4 -0.5\n1.7 2.0\n")
        code, text, _ = run_cli(
            capsys, "interp", "--samples", str(path), "--family", "poisson",
            "--c", "1", "--probe=-1.3:1.7:4",
        )
        assert code == 0
        assert "# mode=scattered" in text

    @pytest.mark.parametrize("text", ["0.0 1.0\n", "-1.0 1.0\n-0.5 0.0\n0.5 2.0\n1.0 1.0\n"])
    def test_auto_mode_needs_an_odd_grid(self, capsys, tmp_path, text):
        # One node, or an even number of evenly spaced ones, is no {j/N} grid.
        path = tmp_path / "samples.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "interp", "--samples", str(path), "--probe=0:1:3")
        assert code == 0
        assert out.startswith("# mode=scattered\n")

    def test_singular_gram_is_numerical_failure(self, capsys, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("0.0 1.0\n1.0 2.0\n2.0 3.0\n")
        code, _, err = run_cli(
            capsys, "interp", "--samples", str(path), "--family", "gaussian",
            "--lambda", "1e-20",
        )
        assert code == 1 and "numerical failure" in err

    def test_kernel_overflow_is_numerical_failure(self, capsys, tmp_path):
        # (x^2 + c^2)^alpha overflows on the Gram diagonal: exit 1, not 2.
        path = tmp_path / "samples.txt"
        path.write_text("0.0 1.0\n1.0 2.0\n2.0 3.0\n")
        code, _, err = run_cli(
            capsys, "interp", "--samples", str(path), "--family", "multiquadric",
            "--alpha", "-3", "--c", "1e-120",
        )
        assert code == 1 and "not finite" in err

    def test_missing_samples(self, capsys):
        code, _, err = run_cli(capsys, "interp", "--family", "poisson")
        assert code == 2 and "samples" in err

    def test_malformed_sample_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0\n0.5\n")
        code, _, err = run_cli(capsys, "interp", "--samples", str(path))
        assert code == 2 and "error" in err

    def test_bad_probe_spec(self, capsys, grid_samples):
        path, _ = grid_samples
        code, _, err = run_cli(
            capsys, "interp", "--samples", str(path), "--probe", "nonsense"
        )
        assert code == 2 and "probe" in err


class TestStudy:
    def test_h_conv_pass_line(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "study", "h-conv", "--out", str(tmp_path))
        assert code == 0
        assert "study h-conv: PASS" in out
        summary = json.loads((tmp_path / "h-conv-poisson-c1-run.json").read_text())
        assert summary["pass"] is True

    def test_degree_past_finite_seminorm_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "study", "h-conv", "--degree", "200", "--out", str(tmp_path))
        assert code == 2 and "at most 143" in err

    def test_unknown_study(self, capsys):
        code, _, err = run_cli(capsys, "study", "nosuch")
        assert code == 2 and "unknown study" in err

    def test_study_name_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": "jitter", "out": str(tmp_path)}))
        code, out, _ = run_cli(capsys, "study", "--config", str(cfg))
        assert code == 0
        assert "study jitter: PASS" in out

    @pytest.mark.parametrize("delta, message", [("-1", "finite nonnegative"), ("0", "delta > 0")])
    def test_noise_level_that_is_not_positive_is_usage_error(self, capsys, tmp_path, delta,
                                                             message):
        # Both runs printed "study noise: PASS": -1 ran as a clean level,
        # and 0 ran the clean section twice with no noisy run.
        code, out, err = run_cli(capsys, "study", "noise", "--delta", delta, "--out", str(tmp_path))
        assert code == 2 and message in err and "PASS" not in out
        assert list(tmp_path.iterdir()) == []


class TestConfigMerge:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "poisson", "c": 1.0, "eps": 1e-16}))
        code, out, _ = run_cli(capsys, "tau", "--config", str(cfg), "--eps", "1e-32")
        assert code == 0
        assert "tau: 13" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"familly": "poisson"}))
        code, _, err = run_cli(capsys, "tau", "--config", str(cfg))
        assert code == 2 and "familly" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "tau", "--config", str(tmp_path / "none.json"))
        assert code == 2 and "cannot read config" in err

    @pytest.mark.parametrize(
        "command, key, val",
        [
            pytest.param("table", "N", "many", id="N-many"),
            pytest.param("table", "eps", True, id="eps-True"),
            pytest.param("interp", "mode", "bogus", id="mode-bogus"),
        ],
    )
    def test_malformed_config_value_is_usage_error(self, capsys, tmp_path, command, key, val):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        code, _, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and f"config value {key}=" in err

    def test_bare_value_error_is_not_a_usage_error(self, monkeypatch):
        # Only the package's typed errors map to exit codes; a bare
        # ValueError is a bug, and propagates with its traceback.
        def broken(cfg):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "_cmd_tau", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["tau"])

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "tau", "--config", str(cfg))
        assert code == 2 and "JSON object" in err


KERNEL = {"--family", "--alpha", "--c", "--lambda", "--eps"}
TABLE = KERNEL | {"--N", "--M", "--order", "--cache", "--out"}
FLAGS = {
    "tau": KERNEL,
    "table": TABLE,
    "interp": TABLE | {"--samples", "--probe", "--mode"},
    "study": {"--study", "--out", "--seed", "--delta", "--jitter", "--pattern", "--degree", "--tag"},
}


class TestOptionSets:
    """Each subcommand takes, from flags or a config, only the options it reads."""

    @staticmethod
    def subparsers():
        parser, options = cli._build_parser()
        (sub,) = (a for a in parser._actions if a.dest == "command")
        return sub.choices, options

    def test_flag_sets(self):
        parsers, _ = self.subparsers()
        assert set(parsers) == set(FLAGS)
        for name, p in parsers.items():
            flags = {f for a in p._actions for f in a.option_strings}
            assert flags - {"-h", "--help", "--config"} == FLAGS[name], name
            positional = [a.dest for a in p._actions if not a.option_strings]
            assert positional == (["name"] if name == "study" else []), name

    def test_config_keys_are_the_flags(self):
        parsers, options = self.subparsers()
        assert set(options) == set(FLAGS)
        for name, keys in options.items():
            assert {keys[k].option_strings[0] for k in keys} == FLAGS[name], name
            assert {"help", "config", "name"}.isdisjoint(keys)
        assert sum(map(len, options.values())) == 36

    @pytest.mark.parametrize(
        "argv",
        [
            ("study", "h-conv", "--c", "2", "--eps", "1e-8", "--M", "128"),
            ("tau", "--out", "t.txt"),
            ("tau", "--N", "8"),
            ("table", "--seed", "1"),
            ("interp", "--seed", "1"),
        ],
    )
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "unrecognized arguments" in captured.err and "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, key, val",
        [("table", "delta", 1e-3), ("table", "pattern", "uniform"), ("table", "mode", "grid"),
         ("tau", "N", 8), ("interp", "seed", 1), ("study", "c", 2.0)],
    )
    def test_config_key_of_another_subcommand_is_usage_error(self, capsys, tmp_path, command,
                                                            key, val):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        code, _, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and f"unknown config keys: {key}" in err

    def test_interp_order_flag_matches_config(self, capsys, tmp_path):
        n = 8
        path = tmp_path / "samples.txt"
        path.write_text("".join(f"{x:.17g} {np.sin(x):.17g}\n" for x in np.arange(-n, n + 1) / n))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 2}))
        base = ("interp", "--samples", str(path), "--probe=-0.93:0.91:7")  # off the table grid
        _, by_flag, _ = run_cli(capsys, *base, "--order", "2")
        _, by_config, _ = run_cli(capsys, *base, "--config", str(cfg))
        _, cubic, _ = run_cli(capsys, *base)
        assert by_flag == by_config != cubic


STUDY_READS = {
    "c-conv": set(),
    "h-conv": {"degree"},
    "noise": {"seed", "delta"},
    "jitter": {"seed", "jitter", "pattern"},
    "conditioning": set(),
}
STUDY_VALUES = {"seed": "3", "degree": "5", "delta": "1", "jitter": "0.3", "pattern": "alternating"}


class TestStudyOptions:
    """A study takes only the study flags it reads, besides --study, --out and --tag."""

    @pytest.mark.parametrize(
        "study, key",
        [(study, key) for study in STUDY_READS for key in STUDY_VALUES
         if key not in STUDY_READS[study]],
    )
    def test_flag_the_study_does_not_read_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                          study, key):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "study", study, f"--{key}", STUDY_VALUES[key])
        assert code == 2 and f"does not read: --{key}" in err and "PASS" not in out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": study, key: STUDY_VALUES[key]}))
        code, _, err = run_cli(capsys, "study", "--config", str(cfg))
        assert code == 2 and f"does not read: --{key}" in err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    def test_all_unread_flags_are_named(self, capsys, tmp_path, monkeypatch):
        # This call used to run the default c-conv and print PASS.
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "study", "c-conv", "--seed", "3", "--degree", "5",
                               "--delta", "1", "--jitter", "0.3")
        assert code == 2
        assert "study c-conv does not read: --degree, --delta, --jitter, --seed" in err
        assert list(tmp_path.iterdir()) == []

    def test_flags_the_study_reads_run_it(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "study", "jitter", "--seed", "1", "--jitter", "0.1",
                               "--pattern", "alternating", "--tag", "t", "--out", str(tmp_path))
        assert code == 0 and "study jitter: PASS" in out
        assert (tmp_path / "jitter-poisson-c1-t.csv").exists()

    def test_degree_help_names_h_conv_only(self):
        parser, _ = cli._build_parser()
        (sub,) = (a for a in parser._actions if a.dest == "command")
        (degree,) = (a for a in sub.choices["study"]._actions if a.dest == "degree")
        assert "h-conv only" in degree.help


class TestUnknownFlagUsage:
    @pytest.mark.parametrize(
        "argv",
        [("tau", "--out", "t.txt"), ("table", "--seed", "1"), ("interp", "--seed", "1"),
         ("study", "h-conv", "--c", "2")],
    )
    def test_usage_is_the_subcommand_s(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: mqcardinal {argv[0]} ")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def fresh_run(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with a newly built parser."""
    cli._build_parser.cache_clear()
    return cached_run(capsys, argv)


def cached_run(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) with the process's parser."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserCache:
    """main() builds its parser once per process, and a call leaves it as it was."""

    def test_built_once(self):
        cli._build_parser.cache_clear()
        main(["tau"])
        main(["tau", "--c", "2"])
        assert cli._build_parser.cache_info().misses == 1

    def test_usage_error_then_good_call(self, capsys):
        calls = [("tau", "--out", "t.txt"), ("tau", "--family", "gaussian", "--lambda", "2")]
        want = [fresh_run(capsys, argv) for argv in calls]
        assert [w[0] for w in want] == [2, 0]
        cli._build_parser.cache_clear()
        assert [cached_run(capsys, argv) for argv in calls] == want

    def test_subcommands_with_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        configs = {"tau.json": {"family": "multiquadric", "alpha": -1.5, "eps": 1e-10},
                   "table.json": {"family": "gaussian", "lam": 1.0, "eps": 1e-8, "N": 8, "M": 8},
                   "study.json": {"study": "noise", "delta": -1, "seed": 2},
                   "bad.json": {"N": 8}}
        for name, cfg in configs.items():
            (tmp_path / name).write_text(json.dumps(cfg))
        calls = [("tau", "--config", "tau.json"), ("table", "--config", "table.json"),
                 ("study", "--config", "study.json"), ("tau", "--config", "bad.json"),
                 ("table", "--config", "table.json", "--order", "2"),
                 ("tau", "--config", "tau.json", "--c", "3")]
        want = [fresh_run(capsys, argv) for argv in calls]
        assert [w[0] for w in want] == [0, 0, 2, 2, 0, 0]
        cli._build_parser.cache_clear()
        assert [cached_run(capsys, argv) for argv in calls] == want
        assert [cached_run(capsys, argv) for argv in reversed(calls)] == want[::-1]


SRC = Path(mqcardinal.__file__).resolve().parent.parent


class TestModuleEntryPoint:
    """python -m mqcardinal runs the command line."""

    @staticmethod
    def run_module(*argv):
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "mqcardinal", *argv],
                              capture_output=True, text=True, env=env)

    def test_tau(self):
        run = self.run_module("tau", "--family", "poisson", "--c", "1")
        assert run.returncode == 0 and "tau: 8" in run.stdout
        assert run.stderr == ""

    def test_unknown_flag_is_usage_error(self):
        run = self.run_module("tau", "--bogus")
        assert run.returncode == 2
        assert run.stderr.startswith("usage: mqcardinal tau ")
        assert "unrecognized arguments: --bogus" in run.stderr and "Traceback" not in run.stderr

    def test_flag_of_another_subcommand_writes_nothing(self, tmp_path):
        # The study once ran with c = 1 and printed PASS.
        run = self.run_module("study", "h-conv", "--c", "2", "--out", str(tmp_path))
        assert run.returncode == 2
        assert "unrecognized arguments: --c 2" in run.stderr and "Traceback" not in run.stderr
        assert list(tmp_path.iterdir()) == []
