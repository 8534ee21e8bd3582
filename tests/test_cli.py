"""Command-line interface tests via main() return codes and captured output."""

import json

import numpy as np
import pytest

from mqcardinal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bandwidth_failure_is_numerical(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--family", "poisson", "--c", "1",
            "--eps", "1e-16", "--N", "8", "--M", "8",
        )
        assert code == 1
        assert "numerical failure" in err


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

    def test_unknown_study(self, capsys):
        code, _, err = run_cli(capsys, "study", "nosuch")
        assert code == 2 and "unknown study" in err

    def test_study_name_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": "jitter", "out": str(tmp_path)}))
        code, out, _ = run_cli(capsys, "study", "--config", str(cfg))
        assert code == 0
        assert "study jitter: PASS" in out


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

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "tau", "--config", str(cfg))
        assert code == 2 and "JSON object" in err
