"""Information-theoretic lower bounds on the optimal broadcast rate.

Two bound families are implemented, plus a simplified corollary:

* cut-set: pool v users of one level against floor(N_i/v) broadcasts,

      R* >= v - (ceil(v/U_i) + d_i - 1) / floor(N_i/v) * M;

* non-cut-set: mix one level l with a set A of strictly more popular
  levels through a sliding window of s caches and b broadcast batches,

      R* >= (1/(D+1)) * min{(s - d_l + 1)*U_l, N_l/(s*b)}
            + sum_{j in A} min{U_j, N_j/(b*d_j)} - M/b;

* corollary (A only): R* >= sum_{j in A} min{U_j, N_j/(b*d_j)} - M/b.

The derivation of the non-cut-set family assumes every level in A is
more popular than l and has degree at most d_l; the search layer only
submits such pairs, while the raw evaluators accept any legal arguments.

The best-bound search prices only the candidates that can win, so it is
exact at every size.  Cut-set: while ceil(v/U) and floor(N/v) stay
constant the value rises with v, so only run ends can win: every v up to
sqrt(N), each N // q beyond it, the multiples of U and min(K*U, N).
Non-cut-set and corollary: every tail term is positive and a subset's
(s, b) candidates are among the full set's, so only A = every eligible
level (every level, for the corollary) can win.  Each min term switches
branch once in b and the value is monotone in b between switch points,
so b needs only 1 and the switch points' integer neighbours.

Each family's value formula, the A-tail sum and its switch points are
defined once, for scalars and arrays alike, and shared by the evaluators
and the search.  The search prices each block of candidates as one array
and calls the evaluator only when the block's first maximum strictly
beats the best so far, so ties go to the first candidate enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import SystemConfig
from .pama import pama_rate, build_threshold_table

GAMMA = 1.0 / (1.0 - math.exp(-1.0))


def k0(max_degree: int, num_levels: int) -> float:
    """Cache-count threshold 16*(D+1)^2*(gamma*L+1) separating the main
    analysis regime from the small-network fallback scheme."""
    return 16.0 * (max_degree + 1) ** 2 * (GAMMA * num_levels + 1.0)


def optimality_gap_envelope(max_degree: int, num_levels: int) -> float:
    """Guaranteed multiplicative optimality gap 37*(D+1)^3*L^3."""
    return 37.0 * (max_degree + 1) ** 3 * num_levels**3


@dataclass(frozen=True)
class BoundWitness:
    """A lower-bound value with the parameters achieving it."""

    value: float
    kind: str  # "cutset" | "noncutset" | "corollary" | "trivial_zero"
    params: tuple[tuple[str, object], ...] = ()

    def param_str(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.params)


def _cutset_value(config: SystemConfig, level: int, v):
    """Unclamped cut-set value v - (ceil(v/U) + d - 1) / floor(N/v) * M;
    ``v`` may be an integer or an integer array."""
    lv = config.levels[level]
    caches_touched = -(-v // lv.users_per_cache) + (lv.access_degree - 1)
    return v - caches_touched / (lv.n_files // v) * config.memory


def _tail_sum(config: SystemConfig, a: frozenset[int], b):
    """sum_{j in A} min{U_j, N_j/(b*d_j)}, summed in A's iteration order;
    ``b`` may be a scalar or an array."""
    total = 0.0
    for j in a:
        lj = config.levels[j]
        total = total + np.minimum(lj.users_per_cache, lj.n_files / (b * lj.access_degree))
    return total


def _tail_switches(config: SystemConfig, a: frozenset[int]) -> list[float]:
    """The b = N_j/(d_j*U_j) at which each tail term switches branch."""
    levels = [config.levels[j] for j in a]
    return [lv.n_files / (lv.access_degree * lv.users_per_cache) for lv in levels]


def _noncutset_value(config: SystemConfig, l: int, a: frozenset[int], s, b):
    """Unclamped non-cut-set value; ``s`` and ``b`` may be broadcastable
    arrays."""
    lv = config.levels[l]
    head = np.minimum((s - lv.access_degree + 1) * lv.users_per_cache, lv.n_files / (s * b))
    return head / (config.max_degree + 1) + _tail_sum(config, a, b) - config.memory / b


def _corollary_value(config: SystemConfig, a: frozenset[int], b):
    """Unclamped corollary value; ``b`` may be an array."""
    return _tail_sum(config, a, b) - config.memory / b


def _a_param(a: frozenset[int]) -> str:
    return ",".join(str(j + 1) for j in sorted(a))


def cutset_bound(config: SystemConfig, level: int, v: int) -> BoundWitness:
    """Cut-set bound for ``v`` pooled users of one level (0-based index)."""
    lv = config.levels[level]
    k = config.num_caches
    if not 1 <= v <= k * lv.users_per_cache:
        raise ValueError(f"v must lie in 1..K*U = {k * lv.users_per_cache}, got {v}")
    if v > lv.n_files:
        raise ValueError(f"v must not exceed N = {lv.n_files}, got {v}")
    value = max(0.0, _cutset_value(config, level, v))
    return BoundWitness(value, "cutset", (("level", level + 1), ("v", v)))


def noncutset_bound(
    config: SystemConfig, l: int, a_set: Iterable[int], s: int, b: int
) -> BoundWitness:
    """Non-cut-set bound for level ``l`` mixed with level set ``a_set``
    (0-based indices), window size ``s`` and batch count ``b``."""
    a = frozenset(a_set)
    if l in a:
        raise ValueError("l must not belong to A")
    if not config.levels[l].access_degree <= s <= config.num_caches:
        raise ValueError(f"s must lie in d_l..K, got {s}")
    if b < 1:
        raise ValueError(f"b must be a positive integer, got {b}")
    value = float(max(0.0, _noncutset_value(config, l, a, s, b)))
    params = (("l", l + 1), ("A", _a_param(a)), ("s", s), ("b", b))
    return BoundWitness(value, "noncutset", params)


def corollary_bound(config: SystemConfig, a_set: Iterable[int], b: int) -> BoundWitness:
    """Simplified bound using only a level set A."""
    a = frozenset(a_set)
    if not a:
        raise ValueError("A must be non-empty")
    if b < 1:
        raise ValueError(f"b must be a positive integer, got {b}")
    value = float(max(0.0, _corollary_value(config, a, b)))
    return BoundWitness(value, "corollary", (("A", _a_param(a)), ("b", b)))


def _cutset_candidates(config: SystemConfig, level: int) -> np.ndarray:
    """The v in 1..min(K*U, N) that end a run of constant ceil(v/U) and
    floor(N/v), ascending."""
    lv = config.levels[level]
    n, u = lv.n_files, lv.users_per_cache
    vmax = min(config.num_caches * u, n)
    root = math.isqrt(n)
    runs = [np.arange(1, min(vmax, root) + 1), n // np.arange(max(1, n // vmax), root + 1)]
    cand = np.unique(np.concatenate([*runs, np.arange(u, vmax + 1, u), [vmax]]))
    return cand[cand <= vmax]


def _best_cutset(config: SystemConfig) -> BoundWitness:
    best = BoundWitness(0.0, "trivial_zero")
    for idx in range(config.num_levels):
        v = _cutset_candidates(config, idx)
        values = _cutset_value(config, idx, v)
        pos = int(np.argmax(values))
        if values[pos] > best.value:
            best = cutset_bound(config, idx, int(v[pos]))
    return best


def _b_neighbours(switches: Iterable[float]) -> set[int]:
    """1 and the floor and ceiling of each switch point at or above 1."""
    values = {1}
    for x in switches:
        if x >= 1:
            values.update((math.floor(x), math.ceil(x)))
    return values


def _best_corollary(config: SystemConfig) -> BoundWitness:
    a = frozenset(range(config.num_levels))
    b = np.array(sorted(_b_neighbours(_tail_switches(config, a))))
    values = _corollary_value(config, a, b)
    pos = int(np.argmax(values))
    if values[pos] > 0.0:
        return corollary_bound(config, a, int(b[pos]))
    return BoundWitness(0.0, "trivial_zero")


def _best_noncutset(config: SystemConfig) -> BoundWitness:
    best = BoundWitness(0.0, "trivial_zero")
    for l in range(config.num_levels):
        lv = config.levels[l]
        d_l = lv.access_degree
        s = np.arange(d_l, config.num_caches + 1, dtype=np.float64)
        if s.size == 0:
            continue
        a = frozenset(
            j
            for j in range(l)
            if config.levels[j].access_degree <= d_l
            and config.levels[j].popularity > lv.popularity
        )
        # b rows by window size s: 1, then the floor and ceiling of the
        # head term's switch point and of each tail term's, in A's order.
        head_switch = lv.n_files / (s * (s - d_l + 1) * lv.users_per_cache)
        tails = [np.full_like(s, x) for x in _tail_switches(config, a)]
        switches = np.vstack([head_switch, *tails])
        rounded = np.stack([np.floor(switches), np.ceil(switches)], axis=1)
        b = np.vstack([np.ones_like(s), np.maximum(1.0, rounded.reshape(-1, s.size))])
        values = _noncutset_value(config, l, a, s, b)
        row, col = divmod(int(np.argmax(values)), s.size)
        if values[row, col] > best.value:
            best = noncutset_bound(config, l, a, int(s[col]), int(b[row, col]))
    return best


def best_lower_bound(config: SystemConfig) -> BoundWitness:
    """Best available lower bound at config.memory, searching all three
    families with exhaustive windows and branch-switch batch counts.
    Deterministic: the first witness in enumeration order wins ties."""
    best = BoundWitness(0.0, "trivial_zero")
    for witness in (_best_cutset(config), _best_noncutset(config), _best_corollary(config)):
        if witness.value > best.value:
            best = witness
    return best


@dataclass(frozen=True)
class GapPoint:
    memory: float
    achievable: float
    lower_bound: float
    ratio: float
    witness: BoundWitness


@dataclass(frozen=True)
class GapProfile:
    points: tuple[GapPoint, ...]

    @property
    def max_ratio(self) -> float:
        return max(p.ratio for p in self.points)

    @property
    def argmax_memory(self) -> float:
        return max(self.points, key=lambda p: p.ratio).memory


def gap_profile(config: SystemConfig, memory_grid: Sequence[float]) -> GapProfile:
    """Achievable-versus-bound ratio across a memory grid.

    Points where the achievable rate is (numerically) zero report ratio
    1: there is no gap to speak of once nothing is transmitted.
    """
    # The breakpoint table depends only on (K, N_i, U_i, d_i), so one
    # build serves the whole sweep.
    table = build_threshold_table(config)
    points = []
    for m in memory_grid:
        cfg = config.with_memory(float(m))
        achievable = pama_rate(cfg, table).exact.total
        witness = best_lower_bound(cfg)
        if achievable <= 1e-12:
            ratio = 1.0
        elif witness.value <= 0.0:
            ratio = math.inf
        else:
            ratio = achievable / witness.value
        points.append(
            GapPoint(
                memory=float(m),
                achievable=achievable,
                lower_bound=witness.value,
                ratio=ratio,
                witness=witness,
            )
        )
    return GapProfile(points=tuple(points))
