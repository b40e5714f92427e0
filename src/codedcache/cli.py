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
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .bounds import gap_profile, lower_bounds
from .model import (
    ConfigError,
    SystemConfig,
    _memory,
    config_to_dict,
    load_config,
)
from .pama import (
    CANDIDATE_LIMIT,
    Allocation,
    build_threshold_table,
    closed_form_rates,
    grid_search_alpha,
    optimize_access_structure,
    pama_memories,
    pama_rate,
    table_splits,
    total_rate_closed_form,
    total_rate_exact,
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
from .rate import lfu_rate, small_k_rate
from .sim import lfu_simulate, simulate_stochastic

USAGE_EXIT = 64
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3
SWEEP_BLOCK = 1 << 10  # sweep memories priced per pama_totals call


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


# Data-row format strings; "{:.9g}" prints what _fmt prints.
_BOUNDS_ROW = '{:.9g},{:.9g},{},"{}"'
_GAP_ROW = '{:.9g},{:.9g},{:.9g},{:.9g},{},"{}"'
_SIMULATE_ROW = "{},{:.9g},{:.9g},{:.9g},{:.9g}"
_LFU_ROW = "{},{:.9g},{:.9g}"
_LFU_WORST_CASE_ROW = "{:.9g},{:.9g}"


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
    lo, hi = _memory(lo), _memory(hi)
    if points < 2:
        raise ConfigError("--m needs at least 2 points")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"unknown --m scale {parts[3]!r}")
        if lo <= 0 or hi <= 0:
            raise ConfigError("log-scale --m requires MIN > 0 and MAX > 0")
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


def _add_distribution_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--counts", help="request-count file")
    p.add_argument("--zipf", type=float, help="synthetic Zipf exponent")
    p.add_argument("--files", type=int, help="catalogue size for --zipf")


def _cmd_rate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    lines = [
        f"# rate at M={_fmt(config.memory)} K={config.num_caches}",
        "level,N,U,d,R_single_level",
    ]
    rates = total_rate_exact(config, Allocation((config.memory,) * config.num_levels)).per_level
    for idx, (lv, r) in enumerate(zip(config.levels, rates)):
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
    """CSV header of the rows :func:`_pama_line` writes."""
    shares = ",".join(f"share_{i + 1}" for i in range(lcount))
    rates = ",".join(f"rate_{i + 1}" for i in range(lcount))
    return f"M,R_exact,R_closed,partition,{shares},{rates}"


@functools.cache
def _pama_row(lcount: int) -> str:
    """Format string of one row of :func:`_pama_header`."""
    return '{:.9g},{:.9g},{:.9g},"{}"' + ",{:.9g}" * (2 * lcount)


def _pama_line(memory, total, closed, label, shares, rates) -> str:
    """One CSV row of :func:`_pama_header`: floats but the split label."""
    return _pama_row(len(shares)).format(memory, total, closed, label, *shares, *rates)


def _pama_summary(memory, total, closed, label, shares, rates, closed_in_validity) -> dict:
    """The summary of the row :func:`_pama_line` prints, with the closed
    form's validity flag."""
    return {
        "M": memory,
        "partition": label,
        "shares": list(shares),
        "R_exact": total,
        "R_closed": closed,
        "closed_in_validity": closed_in_validity,
        "per_level_rates": list(rates),
    }


def _cmd_pama(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    header = _pama_header(config.num_levels)
    res = pama_rate(config)
    closed = total_rate_closed_form(config, res.partition)
    exact, label = res.exact, res.partition.label()
    row = (config.memory, exact.total, closed.value, label, res.allocation.shares, exact.per_level)
    summary = _pama_summary(*row, closed.in_validity)
    lines = [f"# pama allocation for {args.config}", header, _pama_line(*row)]
    if args.grid_step is not None:
        alloc, oracle = grid_search_alpha(config, args.grid_step)
        summary["oracle_rate"] = oracle
        summary["oracle_shares"] = list(alloc.shares)
        searched = 1 / round(1 / args.grid_step)
        lines.insert(1, f"# oracle (grid step {_fmt(searched)}): {_fmt(oracle)}")
    _emit(args, lines, summary)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = _parse_mspec(args.m, config.full_memory)
    splits = table_splits(build_threshold_table(config))
    labels = [split.label() for split in splits]
    lines = [f"# sweep over {len(grid)} memory points", _pama_header(config.num_levels)]
    for first in range(0, len(grid), SWEEP_BLOCK):
        memory = grid[first : first + SWEEP_BLOCK]
        batch = pama_memories(config, memory)
        closed = closed_form_rates(config, splits, batch.prefix, memory)
        rows = list(
            zip(
                memory.tolist(),
                batch.total.tolist(),
                closed.tolist(),
                [labels[t] for t in batch.prefix.tolist()],
                batch.shares.tolist(),
                batch.rates.tolist(),
            )
        )
        lines.extend(_pama_line(*row) for row in rows)
    at = config.with_memory(rows[-1][0])
    valid = total_rate_closed_form(at, splits[batch.prefix[-1]]).in_validity
    _emit(args, lines, {"points": len(grid), "last": _pama_summary(*rows[-1], valid)})
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    grid = _memory_grid(args, config)
    lines = ["# best lower bound per memory point", "M,best_LB,witness_kind,witness_params"]
    witnesses = lower_bounds(config, grid)
    for m, w in zip(grid, witnesses):
        lines.append(_BOUNDS_ROW.format(m, w.value, w.kind, w.param_str()))
    m, w = grid[-1], witnesses[-1]
    _emit(args, lines, {"M": float(m), "value": w.value, "kind": w.kind, "params": w.param_str()})
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
        w = p.witness
        lines.append(
            _GAP_ROW.format(p.memory, p.achievable, p.lower_bound, p.ratio, w.kind, w.param_str())
        )
    summary = {"max_ratio": profile.max_ratio, "argmax_M": profile.argmax_memory}
    _emit(args, lines, summary)
    return 0


def _cmd_discretize(args: argparse.Namespace) -> int:
    dist = _load_distribution(args)
    try:
        degrees = [int(x) for x in args.degrees.split(",")] if args.degrees else None
    except ValueError:
        raise ConfigError(f"--degrees expects integers, got {args.degrees!r}") from None
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
            if rate > 0:
                ratio = res.theoretical / rate
            else:  # nothing sent: no gap when theory sends nothing either
                ratio = 1.0 if res.theoretical == 0 else math.inf
            lines.append(_SIMULATE_ROW.format(t, m, rate, res.theoretical, ratio))
        last = {
            "M": float(m),
            "mean_empirical": res.mean,
            "theoretical": res.theoretical,
            "seed": args.seed,
        }
    _emit(args, lines, last)
    return 0


def _cmd_lfu(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ConfigError(f"--trials must be non-negative, got {args.trials}")
    if args.trials > 0:
        mode = "simulated lfu (--trials > 0)"
        ignored = ["m"] + ["config"] * (args.memory is not None)
    else:
        mode = "worst-case lfu (--trials 0)"
        ignored = ["memory", "counts", "zipf", "files", "users", "seed"]
    for name in ignored:
        if getattr(args, name) is not None:
            raise ConfigError(f"{mode} ignores --{name}")
    config = load_config(args.config) if args.config else None
    if args.trials > 0:
        dist = _load_distribution(args)
        if config is None and args.memory is None:
            raise ConfigError("lfu needs --config or --memory")
        memory = args.memory if args.memory is not None else config.memory
        users = 100 if args.users is None else args.users
        seed = 0 if args.seed is None else args.seed
        res = lfu_simulate(dist, memory, users, args.trials, seed)
        lines = [
            f"# lfu simulation seed={seed} trials={args.trials} users={users}",
            "trial,M,lfu_rate",
        ]
        for t, rate in enumerate(res.rates):
            lines.append(_LFU_ROW.format(t, memory, rate))
        _emit(args, lines, {"M": memory, "mean": res.mean})
        return 0
    if config is None:
        raise ConfigError("worst-case lfu needs --config")
    grid = _memory_grid(args, config)
    lines = ["# worst-case lfu rates", "M,lfu_rate"]
    for m in grid:
        lines.append(_LFU_WORST_CASE_ROW.format(m, lfu_rate(config.with_memory(float(m)))))
    _emit(args, lines, None)
    return 0


def _criteria(text: str) -> list[int]:
    """``--only``'s comma-separated numbers, each one of the criteria."""
    from . import acceptance

    known = [number for number, _, _ in acceptance.CRITERIA]
    try:
        only = [int(x) for x in text.split(",")]
        if set(only) <= set(known):
            return only
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expects comma-separated criterion numbers {known[0]}-{known[-1]}, got {text!r}"
    )


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all(only=args.only, verbose=True)
    return 0 if all(r.passed for r in results) else RUNTIME_EXIT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each
    ``parse_args`` call returns a fresh namespace."""
    parser = _Parser(prog="codedcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="per-level single-level rates")
    p.add_argument("--config", required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("pama", help="allocation and rate at the config memory")
    p.add_argument("--config", required=True)
    p.add_argument("--grid-step", type=float, default=None,
                   help="also run the exhaustive-search oracle on a grid of "
                   "round(1/GRID_STEP) intervals")
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
    _add_distribution_flags(p)
    p.add_argument("--caches", type=int, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--memory", type=float, required=True)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--degrees", help="comma-separated per-level degrees")
    p.add_argument("--heuristic", action="store_true", help="use the two-level split")
    p.add_argument("--coarsen", type=int, default=None)
    p.add_argument("--budget", type=int, default=CANDIDATE_LIMIT)
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
    _add_distribution_flags(p)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("lfu", help="LFU baseline, worst-case or simulated")
    p.add_argument("--config")
    _add_distribution_flags(p)
    p.add_argument("--memory", type=float)
    p.add_argument("--users", type=int, help="default 100 (simulation only)")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, help="default 0 (simulation only)")
    p.add_argument("--m", help="MIN:MAX:POINTS[:log]")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_lfu)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", type=_criteria, help="comma-separated criterion numbers")
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
