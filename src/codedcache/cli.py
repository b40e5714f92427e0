"""Command-line front end.

Subcommands wire the library into plot-ready CSV (stdout or --out) plus
an optional JSON summary (--summary).  Data rows never carry timestamps,
so outputs are byte-deterministic for fixed inputs and seeds; run
metadata lives in '#'-prefixed header comments.  Floats are printed with
9 significant digits.

Exit codes: 0 success, 2 validation error, 3 runtime error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import acceptance
from .bounds import gap_profile, lower_bounds
from .model import (
    ConfigError,
    SystemConfig,
    config_to_dict,
    load_config,
)
from .pama import (
    build_threshold_table,
    grid_search_alpha,
    optimize_access_structure,
    pama_rate,
)
from .popularity import (
    CountsError,
    EmpiricalDistribution,
    brute_force_partition,
    discretize,
    fit_zipf,
    load_counts,
    zipf_distribution,
    zipf_split_heuristic,
)
from .rate import lfu_rate, single_level_rate, small_k_rate
from .sim import lfu_simulate, simulate_stochastic

USAGE_EXIT = 64
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return format(float(value), ".9g")


def _parse_mspec(text: str, default_max: float) -> np.ndarray:
    """Parse MIN:MAX:POINTS[:log] into a memory grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"--m expects MIN:MAX:POINTS[:log], got {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1]) if parts[1] else default_max
        points = int(parts[2])
    except ValueError:
        raise ConfigError(f"--m expects numeric MIN:MAX:POINTS, got {text!r}") from None
    if points < 2:
        raise ConfigError("--m needs at least 2 points")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"unknown --m scale {parts[3]!r}")
        if lo <= 0:
            raise ConfigError("log-scale --m requires MIN > 0")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _memory_grid(args: argparse.Namespace, config: SystemConfig) -> Sequence[float]:
    """The --m grid up to full storage, or just the config's memory."""
    return _parse_mspec(args.m, config.full_memory) if args.m else [config.memory]


def _load_distribution(args: argparse.Namespace) -> EmpiricalDistribution:
    if getattr(args, "counts", None):
        return load_counts(args.counts)
    if getattr(args, "zipf", None) is not None:
        files = getattr(args, "files", None)
        if not files:
            raise ConfigError("--zipf requires --files")
        return zipf_distribution(args.zipf, files)
    raise ConfigError("need --counts PATH or --zipf S --files N")


def _emit(args: argparse.Namespace, lines: list[str], summary: dict | None) -> None:
    text = "\n".join(lines) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    summary_path = getattr(args, "summary", None)
    if summary_path and summary is not None:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--summary", help="write a JSON summary here")


def _cmd_rate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    lines = [
        f"# rate at M={_fmt(config.memory)} K={config.num_caches}",
        "level,N,U,d,R_single_level",
    ]
    for idx, lv in enumerate(config.levels):
        r = single_level_rate(
            min(config.memory, lv.full_memory),
            config.num_caches,
            lv.n_files,
            lv.users_per_cache,
            lv.access_degree,
        )
        lines.append(
            f"{idx + 1},{lv.n_files},{lv.users_per_cache},{lv.access_degree},{_fmt(r)}"
        )
    summary = {
        "M": config.memory,
        "K": config.num_caches,
        "lfu_rate": lfu_rate(config),
        "small_k_rate": small_k_rate(config),
    }
    _emit(args, lines, summary)
    return 0


def _pama_header(lcount: int) -> str:
    """CSV header of the rows :func:`_pama_row` writes."""
    shares = ",".join(f"share_{i + 1}" for i in range(lcount))
    rates = ",".join(f"rate_{i + 1}" for i in range(lcount))
    return f"M,R_exact,R_closed,partition,{shares},{rates}"


def _pama_row(config: SystemConfig, table, memory: float) -> tuple[str, dict]:
    res = pama_rate(config.with_memory(memory), table)
    closed = res.closed.value
    shares = ",".join(_fmt(s) for s in res.allocation.shares)
    rates = ",".join(_fmt(r) for r in res.exact.per_level)
    line = (
        f"{_fmt(memory)},{_fmt(res.exact.total)},{_fmt(closed)},"
        f"\"{res.partition.label()}\",{shares},{rates}"
    )
    summary = {
        "M": memory,
        "partition": res.partition.label(),
        "shares": list(res.allocation.shares),
        "R_exact": res.exact.total,
        "R_closed": closed,
        "closed_in_validity": res.closed.in_validity,
        "per_level_rates": list(res.exact.per_level),
    }
    return line, summary


def _cmd_pama(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    table = build_threshold_table(config)
    header = _pama_header(config.num_levels)
    line, summary = _pama_row(config, table, config.memory)
    lines = [f"# pama allocation for {args.config}", header, line]
    if args.grid_step is not None:
        alloc, oracle = grid_search_alpha(config, args.grid_step)
        summary["oracle_rate"] = oracle
        summary["oracle_shares"] = list(alloc.shares)
        lines.insert(1, f"# oracle (grid step {_fmt(args.grid_step)}): {_fmt(oracle)}")
    _emit(args, lines, summary)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    table = build_threshold_table(config)
    grid = _parse_mspec(args.m, config.full_memory)
    lines = [f"# sweep over {len(grid)} memory points", _pama_header(config.num_levels)]
    last = None
    for m in grid:
        line, last = _pama_row(config, table, float(m))
        lines.append(line)
    _emit(args, lines, {"points": len(grid), "last": last})
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = _memory_grid(args, config)
    lines = ["# best lower bound per memory point", "M,best_LB,witness_kind,witness_params"]
    best = None
    for m, w in zip(grid, lower_bounds(config, grid)):
        lines.append(f"{_fmt(m)},{_fmt(w.value)},{w.kind},\"{w.param_str()}\"")
        best = {"M": float(m), "value": w.value, "kind": w.kind, "params": w.param_str()}
    _emit(args, lines, best)
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.m:
        grid = _parse_mspec(args.m, config.full_memory * 0.999)
    else:
        grid = np.geomspace(1.0, config.full_memory * 0.999, 50)
    profile = gap_profile(config, grid)
    lines = [
        f"# gap profile over {len(grid)} points",
        "M,R_exact,best_LB,ratio,witness_kind,witness_params",
    ]
    for p in profile.points:
        lines.append(
            f"{_fmt(p.memory)},{_fmt(p.achievable)},{_fmt(p.lower_bound)},"
            f"{_fmt(p.ratio)},{p.witness.kind},\"{p.witness.param_str()}\""
        )
    summary = {"max_ratio": profile.max_ratio, "argmax_M": profile.argmax_memory}
    _emit(args, lines, summary)
    return 0


def _cmd_discretize(args: argparse.Namespace) -> int:
    dist = _load_distribution(args)
    degrees = [int(x) for x in args.degrees.split(",")] if args.degrees else None
    if args.heuristic:
        exponent = args.zipf if args.zipf is not None else fit_zipf(dist)
        part = zipf_split_heuristic(exponent, dist.n_files, args.caches, args.memory)
    else:
        levels = args.levels
        part, _ = brute_force_partition(
            dist,
            levels,
            args.caches,
            args.memory,
            degrees or [1] * levels,
            args.users,
            coarsening=args.coarsen,
            budget=args.budget,
        )
    if degrees is None:
        degrees = [1] * part.num_levels
    config = discretize(dist, part, args.caches, args.users, degrees, args.memory)
    _emit(args, [json.dumps(config_to_dict(config), indent=2)], None)
    return 0


def _cmd_access_opt(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    degrees, rate = optimize_access_structure(config, args.dmax, args.davg)
    lines = [
        f"# access optimization dmax={args.dmax} davg={_fmt(args.davg)}",
        "M," + ",".join(f"d_{i + 1}" for i in range(config.num_levels)) + ",R_exact",
        f"{_fmt(config.memory)},"
        + ",".join(str(d) for d in degrees)
        + f",{_fmt(rate)}",
    ]
    _emit(args, lines, {"degrees": list(degrees), "R_exact": rate})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    dist = _load_distribution(args)
    grid = _memory_grid(args, config)
    lines = [
        f"# stochastic simulation seed={args.seed} trials={args.trials} users={args.users}",
        "trial,M,empirical_rate,theoretical_rate,ratio",
    ]
    last = None
    for m in grid:
        cfg = config.with_memory(float(m))
        res = simulate_stochastic(cfg, dist, args.users, args.trials, args.seed)
        for t, rate in enumerate(res.rates):
            ratio = res.theoretical / rate if rate > 0 else math.inf
            lines.append(
                f"{t},{_fmt(m)},{_fmt(rate)},{_fmt(res.theoretical)},{_fmt(ratio)}"
            )
        last = {
            "M": float(m),
            "mean_empirical": res.mean,
            "theoretical": res.theoretical,
            "seed": args.seed,
        }
    _emit(args, lines, last)
    return 0


def _cmd_lfu(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else None
    if args.trials > 0:
        dist = _load_distribution(args)
        if config is None and args.memory is None:
            raise ConfigError("lfu needs --config or --memory")
        memory = args.memory if args.memory is not None else config.memory
        res = lfu_simulate(dist, memory, args.users, args.trials, args.seed)
        lines = [
            f"# lfu simulation seed={args.seed} trials={args.trials} users={args.users}",
            "trial,M,lfu_rate",
        ]
        for t, rate in enumerate(res.rates):
            lines.append(f"{t},{_fmt(memory)},{_fmt(rate)}")
        _emit(args, lines, {"M": memory, "mean": res.mean})
        return 0
    if config is None:
        raise ConfigError("worst-case lfu needs --config")
    grid = _memory_grid(args, config)
    lines = ["# worst-case lfu rates", "M,lfu_rate"]
    for m in grid:
        lines.append(f"{_fmt(m)},{_fmt(lfu_rate(config.with_memory(float(m))))}")
    _emit(args, lines, None)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = [int(x) for x in args.only.split(",")]
    results = acceptance.run_all(only=only, verbose=True)
    return 0 if all(r.passed for r in results) else RUNTIME_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codedcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", parents=[], help="per-level single-level rates")
    p.add_argument("--config", required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("pama", help="allocation and rate at the config memory")
    p.add_argument("--config", required=True)
    p.add_argument("--grid-step", type=float, default=None,
                   help="also run the exhaustive-search oracle at this step")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_pama)

    p = sub.add_parser("sweep", help="rate sweep over a memory grid")
    p.add_argument("--config", required=True)
    p.add_argument("--m", required=True, help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="best lower bound")
    p.add_argument("--config", required=True)
    p.add_argument("--m", help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gap", help="achievable-vs-bound ratio profile")
    p.add_argument("--config", required=True)
    p.add_argument("--m", help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("discretize", help="turn a popularity profile into an instance")
    p.add_argument("--counts", help="request-count file")
    p.add_argument("--zipf", type=float, help="synthetic Zipf exponent")
    p.add_argument("--files", type=int, help="catalogue size for --zipf")
    p.add_argument("--caches", type=int, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--memory", type=float, required=True)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--degrees", help="comma-separated per-level degrees")
    p.add_argument("--heuristic", action="store_true", help="use the two-level split")
    p.add_argument("--coarsen", type=int, default=None)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("access-opt", help="optimize per-level access degrees")
    p.add_argument("--config", required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--davg", type=float, required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_access_opt)

    p = sub.add_parser("simulate", help="stochastic user-profile simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--counts")
    p.add_argument("--zipf", type=float)
    p.add_argument("--files", type=int)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("lfu", help="LFU baseline, worst-case or simulated")
    p.add_argument("--config")
    p.add_argument("--counts")
    p.add_argument("--zipf", type=float)
    p.add_argument("--files", type=int)
    p.add_argument("--memory", type=float)
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_lfu)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv: Sequence[str]) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(list(argv))
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return USAGE_EXIT
    except (ConfigError, CountsError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT
    except (OSError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return RUNTIME_EXIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
