"""Command-line interface.

Four subcommands: ``tau`` (truncation report), ``table`` (build/cache a
cardinal table), ``interp`` (interpolate a sample file onto a probe grid),
and ``study`` (run one of the named experiments).  A subcommand's options
may come from flags or a JSON config file (flags win); a config key that is
not one of the subcommand's own options is rejected, and so is a study
option that the named study does not read or a kernel option that the
kernel family does not read.

Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cardinal import build_cardinal_table, compute_tau, load_table, save_table
from .errors import ConfigError, GridMismatchError, MqcError, NumericalError
from .experiments import (
    run_c_convergence,
    run_conditioning_study,
    run_h_convergence,
    run_jitter_study,
    run_noise_floor,
)
from .interpolation import (
    SampleSet,
    _grid_half_count,
    eval_gram,
    eval_uniform,
    fit_gram,
    fit_uniform,
)
from .kernels import GAUSSIAN, MULTIQUADRIC, POISSON, Kernel, gaussian, multiquadric, poisson
from .sampling import NoiseSpec
from .testfunctions import bspline

# Each study's runner, and the options it reads besides study, out and tag:
# each maps the option's value to the runner's keyword arguments.
_STUDIES = {
    "c-conv": (run_c_convergence, {}),
    "h-conv": (run_h_convergence, {"degree": lambda v: {"f": bspline(v)}}),
    "noise": (run_noise_floor, {"seed": lambda v: {"seed": v},
                                "delta": lambda v: {"delta_grid": (0.0, v)}}),
    "jitter": (run_jitter_study, {"seed": lambda v: {"seed": v},
                                  "jitter": lambda v: {"L_grid": tuple(np.linspace(0.0, v, 6))},
                                  "pattern": lambda v: {"pattern": v}}),
    "conditioning": (run_conditioning_study, {}),
}

# Each kernel option's flag, and the options each kernel family reads.
_KERNEL_FLAGS = {"alpha": "--alpha", "c": "--c", "lam": "--lambda"}
_KERNEL_READS = {POISSON: {"c"}, GAUSSIAN: {"lam"}, MULTIQUADRIC: {"alpha", "c"}}


@functools.cache
def _build_parser():
    """The parser, and each subcommand's options by name: the keys its JSON
    config may set, which are all its options but --config.

    Built once per process: a build takes about 1 ms, and main() may run
    many times in one process.  Parsing leaves the parser as it was.
    """
    parser = argparse.ArgumentParser(
        prog="mqcardinal",
        description="Cardinal-function interpolation with multiquadric, "
        "Poisson, and Gaussian kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel(p):
        p.add_argument("--family", choices=(MULTIQUADRIC, POISSON, GAUSSIAN))
        p.add_argument("--alpha", type=float)
        p.add_argument("--c", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--eps", type=float)

    def add_table(p):
        add_kernel(p)
        p.add_argument("--N", type=int)
        p.add_argument("--M", type=int)
        p.add_argument("--order", type=int, help="table interpolation order (2 or 4)")
        p.add_argument("--cache")
        p.add_argument("--out")

    add_kernel(sub.add_parser("tau", help="report the truncation parameter"))
    add_table(sub.add_parser("table", help="build (or fetch from cache) a cardinal table"))

    p_interp = sub.add_parser("interp", help="interpolate a two-column sample file")
    add_table(p_interp)
    p_interp.add_argument("--samples", help="two-column text file of (node, value)")
    p_interp.add_argument("--probe", help="probe grid lo:hi:count (default from samples)")
    p_interp.add_argument("--mode", choices=("auto", "grid", "scattered"))

    p_study = sub.add_parser("study", help="run a named experiment")
    p_study.add_argument("name", nargs="?", help=f"one of {', '.join(_STUDIES)}")
    p_study.add_argument("--study", dest="study")
    p_study.add_argument("--out", help="output directory")
    p_study.add_argument("--seed", type=int, help="random seed (noise and jitter only)")
    p_study.add_argument("--delta", type=float, help="noise level (noise only)")
    p_study.add_argument("--jitter", type=float, help="maximum jitter magnitude (jitter only)")
    p_study.add_argument("--pattern", help="jitter pattern (jitter only)")
    p_study.add_argument("--degree", type=int, help="B-spline degree (h-conv only)")
    p_study.add_argument("--tag")

    options = {}
    for name, p in sub.choices.items():
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        # No prefixes: `study --c 2` would read a config file named 2.
        p.allow_abbrev = False
        options[name] = {
            a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")
        }
    return parser, options


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Fold a JSON config under the explicit flags; reject unknown keys.

    A config value goes through its flag's type and choices, as it would
    on the command line.
    """
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, val in loaded.items():
            option = options[key]
            try:
                cfg[key] = (option.type or str)(str(val))
            except ValueError as exc:
                raise ConfigError(f"config value {key}={val!r}: {exc}") from exc
            if option.choices and cfg[key] not in option.choices:
                raise ConfigError(f"config value {key}={val!r} is not one of {option.choices}")
    for key, val in vars(args).items():
        if key in ("command", "config", "name"):
            continue
        if val is not None:
            cfg[key] = val
    return cfg


def _kernel_from(cfg: dict) -> Kernel:
    family = cfg.get("family", POISSON)
    if family not in _KERNEL_READS:
        raise ConfigError(f"unknown kernel family {family!r}")
    unread = (_KERNEL_FLAGS.keys() - _KERNEL_READS[family]) & cfg.keys()
    if unread:
        raise ConfigError(f"{family} kernel does not read: "
                          f"{', '.join(sorted(_KERNEL_FLAGS[key] for key in unread))}")
    if family == GAUSSIAN:
        return gaussian(float(cfg.get("lam", 1.0)))
    if family == POISSON:
        return poisson(float(cfg.get("c", 1.0)))
    if "alpha" not in cfg:
        raise ConfigError("multiquadric kernel requires --alpha")
    return multiquadric(float(cfg["alpha"]), float(cfg.get("c", 1.0)))


def _cmd_tau(cfg: dict) -> int:
    kern = _kernel_from(cfg)
    plan = compute_tau(kern, float(cfg.get("eps", 1e-16)))
    print(f"kernel: {kern}")
    print(f"epsilon: {plan.epsilon:g}")
    print(f"tau: {plan.tau}")
    print(f"terms (2 tau + 1): {plan.term_count}")
    print(f"gamma: {plan.gamma:.17g}")
    print(f"d_lower: {plan.d_lower:.17g}")
    return 0


def _table_key(kern: Kernel, eps: float, n: int, m: int, order: int) -> str:
    blob = f"{kern.family}|{kern.alpha!r}|{kern.c!r}|{kern.lam!r}|{eps!r}|{n}|{m}|{order}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _get_table(cfg: dict, report=lambda *_: None):
    kern = _kernel_from(cfg)
    eps = float(cfg.get("eps", 1e-16))
    n = int(cfg.get("N", 32))
    m = int(cfg.get("M", 16))
    order = int(cfg.get("order", 4))
    cache = cfg.get("cache")
    if cache:
        path = Path(cache) / f"table-{_table_key(kern, eps, n, m, order)}.txt"
        if path.exists():
            report("cache hit", path)
            return load_table(path), kern
        table = build_cardinal_table(kern, eps, n, m, order)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_table(table, path)
        report("cached", path)
        return table, kern
    return build_cardinal_table(kern, eps, n, m, order), kern


def _cmd_table(cfg: dict) -> int:
    table, kern = _get_table(cfg, report=lambda what, p: print(f"{what}: {p}"))
    n, m = table.half_width_N, table.oversample_M
    vals = table.values[::m]
    target = np.zeros(2 * n + 1)
    target[n] = 1.0
    residual = float(np.max(np.abs(vals - target)))
    print(f"kernel: {kern}")
    print(f"half-width N: {n}, oversampling M: {m}, values: {table.values.size}")
    print(f"delta-property residual: {residual:.3e}")
    if cfg.get("out"):
        save_table(table, cfg["out"])
        print(f"wrote: {cfg['out']}")
    return 0


def _parse_probe(spec: str, lo: float, hi: float):
    if not spec:
        return np.linspace(lo, hi, 201)
    try:
        a, b, count = spec.split(":")
        return np.linspace(float(a), float(b), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad probe spec {spec!r}, expected lo:hi:count") from exc


def _cmd_interp(cfg: dict) -> int:
    if "samples" not in cfg:
        raise ConfigError("interp requires --samples FILE")
    samples = SampleSet.from_file(cfg["samples"])
    mode = cfg.get("mode", "auto")
    if mode == "auto":
        try:
            _grid_half_count(samples.nodes)
            mode = "grid"
        except GridMismatchError:
            mode = "scattered"
    kern = _kernel_from(cfg)
    probe = _parse_probe(cfg.get("probe", ""), samples.nodes[0], samples.nodes[-1])
    if mode == "grid":
        sub = dict(cfg)
        sub.setdefault("N", max(2 * _grid_half_count(samples.nodes), 4))
        table, _ = _get_table(sub)
        u = fit_uniform(samples, kern, table)
        values = eval_uniform(u, probe)
    else:
        g = fit_gram(samples, kern)
        values = eval_gram(g, probe)
    out = cfg.get("out")
    lines = [f"# mode={mode}", f"# kernel={kern}", "x,value"]
    lines += [f"{x:.17g},{v:.17g}" for x, v in zip(probe, values)]
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
        print(f"wrote: {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_study(cfg: dict, name: str | None) -> int:
    study = name or cfg.get("study")
    if study not in _STUDIES:
        raise ConfigError(f"unknown study {study!r}; choose from {', '.join(_STUDIES)}")
    runner, reads = _STUDIES[study]
    unread = set(cfg) - {"study", "out", "tag", *reads}
    if unread:
        raise ConfigError(f"study {study} does not read: "
                          f"{', '.join('--' + key for key in sorted(unread))}")
    kwargs = {"out_dir": cfg.get("out", "."), "tag": cfg.get("tag", "run")}
    for key in reads.keys() & cfg.keys():
        kwargs.update(reads[key](cfg[key]))
    summary = runner(**kwargs)
    for key in ("slope", "r_squared", "max_ratio"):
        if key in summary:
            print(f"{key}: {summary[key]:.6g}")
    if "plateau" in summary:
        print(f"plateau: {summary['plateau']}")
    status = summary.get("pass")
    print(f"study {study}: {'PASS' if status else 'FAIL' if status is not None else 'done'}")
    if summary.get("csv"):
        print(f"wrote: {summary['csv']}")
    return 0


def main(argv=None) -> int:
    parser, options = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # Reported by the subcommand's parser, so the usage shows its flags.
        (commands,) = (a for a in parser._actions if a.dest == "command")
        commands.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = _merge_config(args, options[args.command])
        if args.command == "tau":
            return _cmd_tau(cfg)
        if args.command == "table":
            return _cmd_table(cfg)
        if args.command == "interp":
            return _cmd_interp(cfg)
        return _cmd_study(cfg, getattr(args, "name", None))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
