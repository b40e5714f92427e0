"""Acceptance suite: every shipped claim as an executable check.

Each criterion is a function returning (passed, detail).  All randomness
is seeded, so the suite is deterministic.  Run via ``codedcache
selftest`` or ``pytest tests/test_acceptance.py``.

Fixed experiment defaults that the source material leaves open (they are
reported, not asserted): the synthetic catalogue is Zipf(0.6) with
N = 10^4; partition searches use K = 10 caches and 100 total users; the
stochastic-robustness check uses K = 5 per its setup.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    GAMMA,
    best_lower_bound,
    gap_profile,
    k0,
    optimality_gap_envelope,
)
from .model import SystemConfig, ValidationWarning, make_config
from .pama import Allocation, grid_search_alpha, pama_rate, total_rate_closed_form, total_rate_exact
from .popularity import (
    EmpiricalDistribution,
    LevelPartition,
    brute_force_partition,
    discretize,
    zipf_distribution,
    zipf_split_heuristic,
)
from .rate import lfu_rate, single_level_rate
from .sim import DecodeError, deliver_bit_exact, place, simulate_stochastic, worst_case_demands

SEED = 20260810

ZIPF_EXPONENT = 0.6
ZIPF_FILES = 10_000
PARTITION_CACHES = 10
PARTITION_USERS = 100
STOCHASTIC_CACHES = 5


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _example1(memory: float = 100.0) -> SystemConfig:
    return make_config(8, memory, [(100, 9, 1), (100, 1, 1)])


def criterion_1_example_reproduction() -> tuple[bool, str]:
    """Two-level reference instance: rates 8 and 6, shares (75, 25)."""
    config = _example1()
    all_to_first = total_rate_exact(config, Allocation(shares=(100.0, 0.0))).total
    res = pama_rate(config)
    closed = total_rate_closed_form(config, res.partition).value
    checks = {
        "alloc(100,0) rate == 8": all_to_first == 8.0,
        "partition I={1,2}": res.partition.label() == "H=;I=1,2;J=",
        "shares (75,25)": res.allocation.shares == (75.0, 25.0),
        "closed form 6 +-1e-9": abs(closed - 6.0) <= 1e-9,
        "exact 5.6996 +-1e-3": abs(res.exact.total - 5.6996) <= 1e-3,
        "exact <= 6": res.exact.total <= 6.0,
    }
    # Timing: full pipeline (table + allocation + exact rate), warmed up.
    pama_rate(config)
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        pama_rate(config)
        times.append(time.perf_counter() - t0)
    runtime = min(times)
    checks["runtime < 1 ms"] = runtime < 1e-3
    failed = [k for k, ok in checks.items() if not ok]
    detail = (
        f"exact={res.exact.total:.6f} closed={closed:.9f} "
        f"runtime={runtime * 1e6:.0f}us"
    )
    if failed:
        detail += f" FAILED: {failed}"
    return not failed, detail


def criterion_2_endpoints() -> tuple[bool, str]:
    """Exact zero-memory and full-storage endpoints on 1000 fuzzed tuples."""
    rng = np.random.default_rng(SEED + 2)
    bad = 0
    for _ in range(1000):
        k = int(rng.integers(1, 65))
        u = int(rng.integers(1, 9))
        d = int(rng.integers(1, min(k, 8) + 1))
        n = k * u * int(rng.integers(1, 11))
        if single_level_rate(0.0, k, n, u, d) != float(k * u):
            bad += 1
        elif single_level_rate(n / d, k, n, u, d) != 0.0:
            bad += 1
    return bad == 0, f"{1000 - bad}/1000 tuples exact at both endpoints"


def criterion_3_bit_exact() -> tuple[bool, str]:
    """Decode success on 200 fuzzed instances (K up to 16, d up to 3, so
    some users wrap); concentration at F=2^17."""
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    decoded = 0
    for it in range(200):
        k = int(rng.integers(2, 17))
        u = int(rng.integers(1, 3))
        d = int(rng.integers(1, min(3, k) + 1))
        n = k * u + int(rng.integers(0, 9))
        cfg = make_config(k, float(rng.uniform(0, n / d)), [(n, u, d)])
        share = min(cfg.memory, cfg.levels[0].full_memory)
        pl = place(cfg, Allocation(shares=(share,)), 2**14, seed=SEED + it)
        if it % 2 == 0:
            demands = worst_case_demands(cfg)
        else:
            count = int(rng.integers(1, k * u + 1))
            demands = [
                (int(rng.integers(0, k)), 0, int(rng.integers(0, n)))
                for _ in range(count)
            ]
        try:
            deliver_bit_exact(pl, demands)
        except DecodeError:
            continue
        decoded += 1

    worst_err = 0.0
    for kk, nn, uu, dd, mm in (
        (6, 24, 2, 1, 12.0),
        (6, 12, 2, 2, 3.0),
        (8, 16, 1, 2, 4.0),
        (4, 16, 2, 1, 6.0),
    ):
        cfg = make_config(kk, mm, [(nn, uu, dd)])
        pl = place(cfg, Allocation(shares=(mm,)), 2**17, seed=SEED)
        try:
            rate = deliver_bit_exact(pl, worst_case_demands(cfg)).rate
        except DecodeError:
            rate = math.inf
        formula = single_level_rate(mm, kk, nn, uu, dd)
        worst_err = max(worst_err, abs(rate - formula) / formula)
    elapsed = time.perf_counter() - t0
    ok = decoded == 200 and worst_err <= 0.05 and elapsed < 60.0
    return ok, (
        f"decode {decoded}/200, worst F=2^17 relative error {worst_err:.3%}, "
        f"{elapsed:.1f}s"
    )


def _separated_instance(rng: np.random.Generator) -> SystemConfig:
    """Random validated instance with the popularity-separation regularity
    strong enough that the shared-memory regimes of different levels do
    not overlap (separation >= 4*K^2)."""
    lcount = int(rng.integers(1, 4))
    k = int(rng.integers(8, 25))
    separation = max(25.0, 4.0 * k * k)
    levels = []
    ratio = float(rng.uniform(1.0, 40.0))
    for _ in range(lcount):
        u = int(rng.integers(1, 7))
        n = int(math.ceil(k * u * ratio))
        d = int(rng.integers(1, min(4, k) + 1))
        levels.append((n, u, d))
        ratio *= separation * float(rng.uniform(1.0, 3.0))
    cfg = make_config(k, 0.0, levels)
    return cfg.with_memory(float(rng.uniform(0.0, 1.05 * cfg.full_memory)))


def criterion_4_oracle() -> tuple[bool, str]:
    """Allocation at or below the exhaustive-search oracle, within the
    1e-12 band ``pama_rate`` uses for ties."""
    rng = np.random.default_rng(SEED + 4)
    t0 = time.perf_counter()
    worst_excess = -math.inf
    passed = 0
    for _ in range(100):
        cfg = _separated_instance(rng)
        rate = pama_rate(cfg).exact.total
        _, rate_o = grid_search_alpha(cfg, 0.01)
        worst_excess = max(worst_excess, rate - rate_o)
        passed += rate <= rate_o + 1e-12 * (1.0 + rate_o)
    elapsed = time.perf_counter() - t0
    ok = passed == 100 and elapsed < 120.0
    return ok, (
        f"{passed}/100 at or below the oracle, worst PAMA - oracle {worst_excess:.2e}, "
        f"{elapsed:.1f}s"
    )


def _any_instance(rng: np.random.Generator) -> SystemConfig:
    lcount = int(rng.integers(1, 5))
    k = int(rng.integers(2, 33))
    pops = sorted((float(rng.uniform(0.2, 50.0)) for _ in range(lcount)), reverse=True)
    levels = []
    for i in range(lcount):
        u = int(rng.integers(1, 9))
        n = int(math.ceil(k * u * pops[0] / pops[i] * rng.uniform(1.0, 3.0)))
        d = int(rng.integers(1, min(5, k) + 1))
        levels.append((n, u, d))
    cfg = make_config(k, 0.0, levels)
    return cfg.with_memory(float(rng.uniform(0.0, 1.1 * cfg.full_memory)))


def criterion_5_soundness() -> tuple[bool, str]:
    """Lower bound never exceeds the achievable rate (500 fuzzed pairs,
    plus 100 at tiny memory, log-uniform in [1e-15, 1e-6] of full storage)."""
    rng = np.random.default_rng(SEED + 5)
    cfgs = [_any_instance(rng) for _ in range(500)]
    tiny_rng = np.random.default_rng(SEED + 500)
    for _ in range(100):
        cfg = _any_instance(tiny_rng)
        cfgs.append(cfg.with_memory(cfg.full_memory * 10.0 ** tiny_rng.uniform(-15, -6)))
    violations = 0
    worst_margin = -math.inf
    for cfg in cfgs:
        achievable = pama_rate(cfg).exact.total
        lb = best_lower_bound(cfg).value
        margin = lb - achievable
        worst_margin = max(worst_margin, margin)
        if margin > 1e-9:
            violations += 1
    return violations == 0, (
        f"{violations} violations in {len(cfgs)} pairs, worst LB - R = {worst_margin:.2e}"
    )


def criterion_6_gap_reproduction() -> tuple[bool, str]:
    """Three-level gap study: hard cap 45, reported value in [3, 10]."""
    t0 = time.perf_counter()
    cfg = make_config(10, 0.0, [(500, 9, 1), (1500, 5, 3), (8000, 1, 5)])
    grid = np.geomspace(1.0, cfg.full_memory * 0.999, 50)
    profile = gap_profile(cfg, grid)
    elapsed = time.perf_counter() - t0
    ratio = profile.max_ratio
    ok = ratio <= 45.0 and 3.0 <= ratio <= 10.0 and elapsed < 300.0
    return ok, (
        f"max ratio {ratio:.3f} at M={profile.argmax_memory:.1f} "
        f"(hard cap 45, soft band [3, 10]), {elapsed:.1f}s"
    )


def _regular_instance(rng: np.random.Generator) -> SystemConfig:
    """Instance satisfying the strong regularity of the optimality proof:
    separation q = q0^2, cache count at least k0, degrees non-decreasing
    with level index."""
    lcount = int(rng.integers(1, 4))
    d_max = int(rng.integers(1, 3))
    q0 = 16.0 * GAMMA * (d_max + 1) ** 2 * lcount
    kmin = int(math.ceil(k0(d_max, lcount)))
    k = kmin + int(rng.integers(0, 30))
    degrees = sorted(int(rng.integers(1, d_max + 1)) for _ in range(lcount))
    degrees[-1] = max(degrees[-1], d_max)
    levels = []
    ratio = float(rng.uniform(1.5, 4.0))
    for i in range(lcount):
        u = int(rng.integers(1, 4))
        n = int(math.ceil(k * u * ratio))
        levels.append((n, u, degrees[i]))
        ratio *= q0 * q0 * float(rng.uniform(1.02, 1.5))
    return make_config(k, 0.0, levels, separation_ratio=q0 * q0)


def criterion_7_gap_envelope() -> tuple[bool, str]:
    """Gap ratio under the guaranteed 37*(D+1)^3*L^3 envelope on 50
    regular instances."""
    rng = np.random.default_rng(SEED + 7)
    worst_frac = 0.0
    failures = 0
    for _ in range(50):
        cfg = _regular_instance(rng)
        envelope = optimality_gap_envelope(cfg.max_degree, cfg.num_levels)
        total = cfg.full_memory
        grid = np.concatenate(
            [np.geomspace(max(total * 1e-7, 0.5), 0.98 * total, 8),
             [0.3 * total, 0.6 * total]]
        )
        profile = gap_profile(cfg, grid)
        frac = profile.max_ratio / envelope
        worst_frac = max(worst_frac, frac)
        if profile.max_ratio > envelope:
            failures += 1
    return failures == 0, (
        f"{50 - failures}/50 under the envelope, worst ratio/envelope "
        f"{worst_frac:.4f}"
    )


@functools.cache
def _catalogue() -> EmpiricalDistribution:
    """The synthetic catalogue of criteria 8-11."""
    return zipf_distribution(ZIPF_EXPONENT, ZIPF_FILES)


def _best_split_rate(levels: int, memory: float, extra_cuts: Sequence[int] = ()) -> float:
    """Brute-force optimum rate of an L-level split of the catalogue,
    every access degree 1."""
    _, rate = brute_force_partition(
        _catalogue(), levels, PARTITION_CACHES, memory, (1,) * levels, PARTITION_USERS,
        coarsening=ZIPF_FILES // 200, extra_cuts=extra_cuts,
    )
    return rate


def _heuristic_instance(
    memory: float, caches: int = PARTITION_CACHES, users: int = PARTITION_USERS
) -> tuple[LevelPartition, SystemConfig]:
    """The two-level Zipf split heuristic's cut of the catalogue, and
    the instance it discretizes to, every access degree 1."""
    split = zipf_split_heuristic(ZIPF_EXPONENT, ZIPF_FILES, caches, memory)
    return split, discretize(_catalogue(), split, caches, users, (1, 1), memory)


def criterion_8_diminishing_returns() -> tuple[bool, str]:
    """More levels help, with shrinking gains, on the synthetic catalogue."""
    details = []
    ok = True
    for frac in (0.03, 0.2, 0.7):
        rates = {lcount: _best_split_rate(lcount, frac * ZIPF_FILES) for lcount in (1, 2, 3)}
        gain12 = rates[1] - rates[2]
        gain23 = rates[2] - rates[3]
        here = gain12 > 0 and gain23 >= -1e-9 and gain23 < gain12
        ok = ok and here
        details.append(
            f"M/N={frac}: L1={rates[1]:.2f} L2={rates[2]:.2f} "
            f"L3={rates[3]:.2f} ({'ok' if here else 'FAIL'})"
        )
    return ok, "; ".join(details)


def criterion_9_heuristic_quality() -> tuple[bool, str]:
    """Two-level split heuristic within 2.5x of the brute-force optimum."""
    worst = 0.0
    for frac in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        memory = frac * ZIPF_FILES
        split, cfg = _heuristic_instance(memory)
        rate_h = pama_rate(cfg).exact.total
        rate_bf = _best_split_rate(2, memory, extra_cuts=split.boundaries)
        if rate_bf > 0:
            worst = max(worst, rate_h / rate_bf)
    ok = worst <= 2.5
    return ok, (
        f"max heuristic/brute ratio {worst:.3f} (asserted <= 2.5; the source "
        f"figure cites 1.92 for its unstated parameters)"
    )


def criterion_10_lfu_dominance() -> tuple[bool, str]:
    """Allocated coded rate never exceeds the LFU worst case."""
    violations = 0
    max_gain = 0.0
    grid = np.concatenate([np.geomspace(10.0, ZIPF_FILES * 0.98, 18), np.linspace(200, 1000, 5)])
    for memory in np.unique(grid).tolist():
        _, cfg = _heuristic_instance(memory)
        rate_pama = pama_rate(cfg).exact.total
        rate_lfu = lfu_rate(cfg)
        if rate_pama > rate_lfu + 1e-9:
            violations += 1
        if rate_pama > 1e-9:
            max_gain = max(max_gain, rate_lfu / rate_pama)
    return violations == 0, (
        f"{violations} violations; max LFU/coded gain {max_gain:.1f} "
        f"(informational; the source figure cites 14.5)"
    )


def criterion_11_stochastic_robustness() -> tuple[bool, str]:
    """Theory within a factor 3 of stochastic-profile simulations."""
    ratios = []
    for frac in (0.005, 0.01, 0.03, 0.1, 0.2, 0.4, 0.6, 0.8):
        _, cfg = _heuristic_instance(frac * ZIPF_FILES, STOCHASTIC_CACHES, 100)
        res = simulate_stochastic(cfg, _catalogue(), 100, 100, seed=SEED)
        ratios.append(res.theoretical / res.mean if res.mean > 0 else 1.0)
    ok = all(1.0 / 3.0 <= r <= 3.0 for r in ratios)
    return ok, (
        f"theory/empirical ratios in [{min(ratios):.3f}, {max(ratios):.3f}] "
        f"(band [1/3, 3])"
    )


def criterion_12_determinism() -> tuple[bool, str]:
    """Byte-identical CLI output under identical seeds, all subcommands
    exercised."""
    from . import cli
    from .model import config_to_json

    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "example1.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(config_to_json(_example1()))

        def run_to(name: str, argv: list[str]) -> bytes:
            out = os.path.join(tmp, name)
            code = cli.run(argv + ["--out", out])
            checks.append((argv[0], code == 0))
            with open(out, "rb") as fh:
                return fh.read()

        sweep_args = ["sweep", "--config", cfg_path, "--m", "0:250:100"]
        sweep_a = run_to("sweep_a.csv", list(sweep_args))
        sweep_b = run_to("sweep_b.csv", list(sweep_args))
        checks.append(("sweep determinism", sweep_a == sweep_b))

        sim_args = [
            "simulate", "--config", cfg_path, "--zipf", "0.6", "--files", "200",
            "--users", "40", "--trials", "20", "--seed", "7",
        ]
        sim_a = run_to("sim_a.csv", list(sim_args))
        sim_b = run_to("sim_b.csv", list(sim_args))
        checks.append(("simulate determinism", sim_a == sim_b))

        run_to("rate.csv", ["rate", "--config", cfg_path])
        run_to("pama.csv", ["pama", "--config", cfg_path])
        run_to("bounds.csv", ["bounds", "--config", cfg_path])
        run_to("gap.csv", ["gap", "--config", cfg_path, "--m", "1:190:8:log"])
        run_to("access.csv", ["access-opt", "--config", cfg_path, "--dmax", "2", "--davg", "2"])
        run_to("lfu.csv", ["lfu", "--config", cfg_path, "--m", "0:200:5"])

        disc_out = os.path.join(tmp, "disc.json")
        code = cli.run(
            ["discretize", "--zipf", "0.6", "--files", "400", "--caches", "4",
             "--users", "40", "--memory", "50", "--heuristic", "--out", disc_out]
        )
        checks.append(("discretize", code == 0))

    failed = [name for name, ok in checks if not ok]
    return not failed, (
        f"{len(checks)} checks, byte-identical reruns"
        + (f"; FAILED: {failed}" if failed else "")
    )


def _quiet(criterion: Callable[[], tuple[bool, str]]) -> Callable[[], tuple[bool, str]]:
    """``criterion`` with ``ValidationWarning`` silenced: its instances
    are deliberately irregular, so that warning is expected there.  Every
    other warning, ``RateWarning`` included, still reaches the caller's
    filters."""

    @functools.wraps(criterion)
    def run() -> tuple[bool, str]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            return criterion()

    return run


CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = tuple(
    (number, name, _quiet(criterion))
    for number, name, criterion in (
        (1, "example reproduction", criterion_1_example_reproduction),
        (2, "single-level endpoints", criterion_2_endpoints),
        (3, "bit-exact scheme validity", criterion_3_bit_exact),
        (4, "allocation vs oracle", criterion_4_oracle),
        (5, "bound soundness", criterion_5_soundness),
        (6, "gap reproduction", criterion_6_gap_reproduction),
        (7, "optimality-gap envelope", criterion_7_gap_envelope),
        (8, "diminishing returns", criterion_8_diminishing_returns),
        (9, "split-heuristic quality", criterion_9_heuristic_quality),
        (10, "LFU dominance", criterion_10_lfu_dominance),
        (11, "stochastic robustness", criterion_11_stochastic_robustness),
        (12, "determinism", criterion_12_determinism),
    )
)


def run_all(only: Sequence[int] | None = None, verbose: bool = False) -> list[CriterionResult]:
    results = []
    for number, name, func in CRITERIA:
        if only is not None and number not in only:
            continue
        t0 = time.perf_counter()
        passed, detail = func()
        seconds = time.perf_counter() - t0
        results.append(CriterionResult(number, name, passed, detail, seconds))
        if verbose:
            status = "PASS" if passed else "FAIL"
            print(f"criterion {number:2d} [{status}] {name} ({seconds:.2f}s): {detail}")
    return results
