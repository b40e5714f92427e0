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
and the search.  Each candidate is a line in M and the candidate set
does not depend on M, so it is built once per instance and priced
against a whole memory grid as one array.  One rule picks each memory's
witness: the first candidate in enumeration order that reaches the
maximum, kept only if that maximum is positive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import SystemConfig, _memory
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


def _cutset_value(config: SystemConfig, level: int, v, memory):
    """Unclamped cut-set value v - (ceil(v/U) + d - 1) / floor(N/v) * M;
    ``v`` and ``memory`` may be broadcastable arrays, ``v`` of integers."""
    lv = config.levels[level]
    caches_touched = -(-v // lv.users_per_cache) + (lv.access_degree - 1)
    return v - caches_touched / (lv.n_files // v) * memory


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


def _noncutset_value(config: SystemConfig, l: int, a: frozenset[int], s, b, memory):
    """Unclamped non-cut-set value; ``s``, ``b`` and ``memory`` may be arrays."""
    lv = config.levels[l]
    head = np.minimum((s - lv.access_degree + 1) * lv.users_per_cache, lv.n_files / (s * b))
    return head / (config.max_degree + 1) + _tail_sum(config, a, b) - memory / b


def _corollary_value(config: SystemConfig, a: frozenset[int], b, memory):
    """Unclamped corollary value; ``b`` and ``memory`` may be arrays."""
    return _tail_sum(config, a, b) - memory / b


def _integer(value, name: str, low: int, high: float) -> int:
    """``value`` as an int in low..high; anything else raises ValueError."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in {low}..{high}, got {value!r}")
    return int(value)


def _a_param(a: frozenset[int]) -> str:
    return ",".join(str(j + 1) for j in sorted(a))


def cutset_bound(config: SystemConfig, level: int, v: int) -> BoundWitness:
    """Cut-set bound for ``v`` pooled users of one level (0-based index)."""
    level = _integer(level, "level", 0, config.num_levels - 1)
    lv = config.levels[level]
    v = _integer(v, "v", 1, min(config.num_caches * lv.users_per_cache, lv.n_files))
    value = max(0.0, _cutset_value(config, level, v, config.memory))
    return BoundWitness(value, "cutset", (("level", level + 1), ("v", v)))


def noncutset_bound(
    config: SystemConfig, l: int, a_set: Iterable[int], s: int, b: int
) -> BoundWitness:
    """Non-cut-set bound for level ``l`` mixed with level set ``a_set``
    (0-based indices), window size ``s`` and batch count ``b``."""
    l = _integer(l, "l", 0, config.num_levels - 1)
    a = frozenset(_integer(j, "a member of A", 0, config.num_levels - 1) for j in a_set)
    if l in a:
        raise ValueError("l must not belong to A")
    s = _integer(s, "s", config.levels[l].access_degree, config.num_caches)
    b = _integer(b, "b", 1, math.inf)
    value = float(max(0.0, _noncutset_value(config, l, a, s, b, config.memory)))
    params = (("l", l + 1), ("A", _a_param(a)), ("s", s), ("b", b))
    return BoundWitness(value, "noncutset", params)


def corollary_bound(config: SystemConfig, a_set: Iterable[int], b: int) -> BoundWitness:
    """Simplified bound using only a level set A."""
    a = frozenset(_integer(j, "a member of A", 0, config.num_levels - 1) for j in a_set)
    if not a:
        raise ValueError("A must be non-empty")
    b = _integer(b, "b", 1, math.inf)
    value = float(max(0.0, _corollary_value(config, a, b, config.memory)))
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


def _cutset_blocks(config: SystemConfig) -> list[tuple]:
    return [
        (_cutset_value, cutset_bound, (idx,), (_cutset_candidates(config, idx),))
        for idx in range(config.num_levels)
    ]


def _b_neighbours(switches: Iterable[float]) -> set[int]:
    """1 and the floor and ceiling of each switch point at or above 1."""
    values = {1}
    for x in switches:
        if x >= 1:
            values.update((math.floor(x), math.ceil(x)))
    return values


def _noncutset_blocks(config: SystemConfig) -> list[tuple]:
    blocks = []
    for l in range(config.num_levels):
        lv = config.levels[l]
        d_l = lv.access_degree
        s = np.arange(d_l, config.num_caches + 1, dtype=np.float64)
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
        s = np.broadcast_to(s, b.shape)
        blocks.append((_noncutset_value, noncutset_bound, (l, a), (s.ravel(), b.ravel())))
    return blocks


def _corollary_blocks(config: SystemConfig) -> list[tuple]:
    a = frozenset(range(config.num_levels))
    b = np.array(sorted(_b_neighbours(_tail_switches(config, a))))
    return [(_corollary_value, corollary_bound, (a,), (b,))]


PRICE_BLOCK = 1 << 16  # values priced at once (but at least one memory's)


def _first_maxima(config: SystemConfig, blocks: list[tuple], memories: np.ndarray) -> list:
    """Per memory, the witness of the first candidate in block order that
    reaches the maximum, or ``trivial_zero`` unless it is > 0.  A block
    (formula, evaluator, fixed, args) holds the candidates i =
    ``evaluator(config, *fixed, *(arg[i] for arg in args))``, priced at
    once by ``formula(config, *fixed, *args, memory)``."""
    starts = np.cumsum([0] + [len(args[0]) for _, _, _, args in blocks])
    step = max(1, PRICE_BLOCK // int(starts[-1]))
    witnesses = []
    for first in range(0, memories.size, step):
        column = memories[first : first + step, None]
        values = np.hstack([f(config, *fixed, *args, column) for f, _, fixed, args in blocks])
        for row, pos in enumerate(np.argmax(values, axis=1).tolist()):
            witness = BoundWitness(0.0, "trivial_zero")
            if values[row, pos] > 0.0:
                k = int(np.searchsorted(starts, pos, side="right")) - 1
                _, evaluator, fixed, args = blocks[k]
                cfg = config.with_memory(float(column[row, 0]))
                witness = evaluator(cfg, *fixed, *(int(arg[pos - starts[k]]) for arg in args))
            witnesses.append(witness)
    return witnesses


def lower_bounds(config: SystemConfig, memories: Iterable[float]) -> list[BoundWitness]:
    """Best available lower bound at each memory, searching all three
    families; the first candidate (cut-set by level, non-cut-set by l,
    corollary) wins ties.  A negative, NaN or infinite memory raises
    :class:`ConfigError` before any is priced."""
    grid = np.array([_memory(m) for m in memories], dtype=np.float64)
    blocks = [*_cutset_blocks(config), *_noncutset_blocks(config), *_corollary_blocks(config)]
    return _first_maxima(config, blocks, grid)


def best_lower_bound(config: SystemConfig) -> BoundWitness:
    """Best available lower bound at config.memory; see :func:`lower_bounds`."""
    return lower_bounds(config, [config.memory])[0]


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
    for m, witness in zip(memory_grid, lower_bounds(config, memory_grid)):
        achievable = pama_rate(config.with_memory(float(m)), table).exact.total
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
