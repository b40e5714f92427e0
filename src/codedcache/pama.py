"""Memory sharing across popularity levels.

Levels are split into three groups: H (no memory), I (shared memory in
proportion to sqrt(N_i*U_i)), and J (fully stored, N_j/d_j each).  The
split is driven by a table of 2L memory breakpoints built once per
instance in O(L^2): level i enters I when the normalized memory passes
m_lo(i) = (1/K)*sqrt(N_i/U_i) and moves to J when it passes
m_hi(i) = (1/d_i)*sqrt(N_i/U_i).  The breakpoint memory values are

    Y_t = x_t * S_I + T_J

evaluated with the group sums S_I = sum sqrt(N_i*U_i) and
T_J = sum N_j/d_j *before* applying move t, which keeps the Y sequence
sorted.

For a given split, the shared-memory group admits the closed-form rate

    R(M) = sum_{h in H} K*U_h + S_I^2 / (M - T_J) - sum_{i in I} d_i*U_i,

an upper bound on the exact per-level sum of single-level rates (the
exact rate carries an extra (1 - (1 - mu)^(K/d)) factor per level).

Near the low end of each breakpoint interval the table's split can
violate its own defining inequalities (the normalized memory falls below
m_lo of the newest member), and there the literal split is not even
rate-monotone in M.  :func:`pama_rate` therefore evaluates every split
reachable at the given memory (all table prefixes) and keeps the cheapest,
which restores monotonicity and continuity of the reported rate; the
literal table lookup remains available as :func:`get_partition`.

:func:`pama_totals` evaluates that rate for a batch of instances with
arrays, bit for bit equal to :func:`pama_rate`; the brute-force split
search prices its candidates with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, SystemConfig
from .rate import coded_load, single_level_rate


@dataclass(frozen=True)
class Partition:
    """Disjoint level-index groups (0-based) covering all levels."""

    h_set: frozenset[int]
    i_set: frozenset[int]
    j_set: frozenset[int]

    def __post_init__(self) -> None:
        if self.h_set & self.i_set or self.h_set & self.j_set or self.i_set & self.j_set:
            raise ValueError("partition groups must be disjoint")

    def label(self) -> str:
        """Compact 1-based rendering, e.g. ``"H=;I=1,2;J="``."""

        def fmt(group: frozenset[int]) -> str:
            return ",".join(str(i + 1) for i in sorted(group))

        return f"H={fmt(self.h_set)};I={fmt(self.i_set)};J={fmt(self.j_set)}"

    @classmethod
    def all_h(cls, num_levels: int) -> "Partition":
        return cls(frozenset(range(num_levels)), frozenset(), frozenset())


@dataclass(frozen=True)
class Breakpoint:
    """One threshold of the partition table.

    ``threshold`` is the normalized-memory value x_t, ``memory`` the raw
    memory Y_t at which the move applies, ``kind`` is ``"enter"`` (H->I)
    or ``"store"`` (I->J), and ``partition`` the split after the move.
    """

    threshold: float
    memory: float
    kind: str
    level: int
    partition: Partition


@dataclass(frozen=True)
class ThresholdTable:
    config: SystemConfig
    breakpoints: tuple[Breakpoint, ...]


@dataclass(frozen=True)
class Allocation:
    """Per-level memory shares in file units."""

    shares: tuple[float, ...]


@dataclass(frozen=True)
class ExactRate:
    total: float
    per_level: tuple[float, ...]


@dataclass(frozen=True)
class ClosedFormRate:
    value: float
    in_validity: bool


@dataclass(frozen=True)
class PamaResult:
    """Outcome of the full allocation pipeline at one memory point."""

    partition: Partition
    allocation: Allocation
    exact: ExactRate
    closed: ClosedFormRate


def _sqrt_nu(config: SystemConfig, idx: int) -> float:
    lv = config.levels[idx]
    return math.sqrt(lv.n_files * lv.users_per_cache)


def _group_sums(config: SystemConfig, partition: Partition) -> tuple[float, float]:
    """(S_I, T_J) for a partition."""
    s_i = sum(_sqrt_nu(config, i) for i in sorted(partition.i_set))
    t_j = sum(config.levels[j].full_memory for j in sorted(partition.j_set))
    return s_i, t_j


def build_threshold_table(config: SystemConfig) -> ThresholdTable:
    """Precompute the 2L partition breakpoints for every memory size.

    Ties in the threshold values are processed enter-before-store and by
    ascending level index, so each step still moves exactly one level.
    """
    lcount = config.num_levels
    k = config.num_caches
    events: list[tuple[float, int, int]] = []  # (x, kind_rank, level)
    for idx, lv in enumerate(config.levels):
        root = math.sqrt(lv.n_files / lv.users_per_cache)
        events.append((root / k, 0, idx))
        events.append((root / lv.access_degree, 1, idx))
    events.sort()

    i_set: set[int] = set()
    j_set: set[int] = set()
    s_i = 0.0
    t_j = 0.0
    breakpoints: list[Breakpoint] = []
    for x, kind_rank, idx in events:
        memory = x * s_i + t_j
        if kind_rank == 0:
            i_set.add(idx)
            s_i += _sqrt_nu(config, idx)
            kind = "enter"
        else:
            i_set.discard(idx)
            j_set.add(idx)
            s_i -= _sqrt_nu(config, idx)
            t_j += config.levels[idx].full_memory
            kind = "store"
        h_set = frozenset(range(lcount)) - frozenset(i_set) - frozenset(j_set)
        breakpoints.append(
            Breakpoint(
                threshold=x,
                memory=memory,
                kind=kind,
                level=idx,
                partition=Partition(h_set, frozenset(i_set), frozenset(j_set)),
            )
        )
    return ThresholdTable(config=config, breakpoints=tuple(breakpoints))


def get_partition(table: ThresholdTable, memory: float) -> Partition:
    """Literal table lookup: the split of the last breakpoint with
    Y_t <= memory (all-H below the first breakpoint)."""
    if memory < 0:
        raise ValueError("memory must be non-negative")
    return candidate_partitions(table, memory)[-1]


def pama_allocate(config: SystemConfig, partition: Partition) -> Allocation:
    """Memory shares for a partition: zero for H, N_j/d_j for J, and the
    remaining memory split within I proportionally to sqrt(N_i*U_i),
    each I share capped at N_i/d_i.  With I empty, and above a cap, the
    leftover memory stays unallocated."""
    s_i, t_j = _group_sums(config, partition)
    leftover = max(0.0, config.memory - t_j)
    shares = []
    for idx in range(config.num_levels):
        if idx in partition.j_set:
            shares.append(config.levels[idx].full_memory)
        elif idx in partition.i_set and s_i > 0:
            share = _sqrt_nu(config, idx) / s_i * leftover
            shares.append(min(share, config.levels[idx].full_memory))
        else:
            shares.append(0.0)
    return Allocation(shares=tuple(shares))


def total_rate_exact(config: SystemConfig, allocation: Allocation) -> ExactRate:
    """Sum of per-level single-level rates for an allocation.  Shares
    beyond a level's N_i/d_i storage cap are silently clamped (the excess
    cannot reduce the rate)."""
    per_level = []
    for idx, lv in enumerate(config.levels):
        share = min(allocation.shares[idx], lv.full_memory)
        per_level.append(
            single_level_rate(
                share,
                config.num_caches,
                lv.n_files,
                lv.users_per_cache,
                lv.access_degree,
            )
        )
    return ExactRate(total=float(sum(per_level)), per_level=tuple(per_level))


def _definition_holds(config: SystemConfig, partition: Partition, rel_tol: float = 1e-12) -> bool:
    """Strict feasibility inequalities of the split at config.memory."""
    s_i, t_j = _group_sums(config, partition)
    k = config.num_caches
    if not partition.i_set:
        # Normalized memory is undefined; the table construction is
        # treated as normative in this regime.
        return True
    tilde_m = (config.memory - t_j) / s_i
    slack = rel_tol * (1.0 + abs(tilde_m))
    for idx in partition.i_set:
        lv = config.levels[idx]
        root = math.sqrt(lv.n_files / lv.users_per_cache)
        if tilde_m < root / k - slack or tilde_m > root / lv.access_degree + slack:
            return False
    for idx in partition.h_set:
        lv = config.levels[idx]
        root = math.sqrt(lv.n_files / lv.users_per_cache)
        if tilde_m >= root / k + (lv.n_files / k) / s_i + slack:
            return False
    for idx in partition.j_set:
        lv = config.levels[idx]
        root = math.sqrt(lv.n_files / lv.users_per_cache)
        if tilde_m <= root / lv.access_degree - slack:
            return False
    return True


def total_rate_closed_form(config: SystemConfig, partition: Partition) -> ClosedFormRate:
    """Closed-form rate of a partition, clamped to [0, sum K*U_i].

    Raises ValueError when I is non-empty and M equals T_J exactly (the
    expression divides by M - T_J); callers should fall back to
    :func:`total_rate_exact` there.  ``in_validity`` is False when the
    partition violates its strict defining inequalities at this memory,
    in which case the value is only an out-of-validity extrapolation.
    """
    s_i, t_j = _group_sums(config, partition)
    k = config.num_caches
    base = sum(k * config.levels[h].users_per_cache for h in partition.h_set)
    if partition.i_set:
        denom = config.memory - t_j
        if denom == 0:
            raise ValueError(
                "closed form undefined at M = T_J with shared levels present; "
                "use total_rate_exact"
            )
        value = base + s_i * s_i / denom - sum(
            config.levels[i].access_degree * config.levels[i].users_per_cache
            for i in partition.i_set
        )
    else:
        value = float(base)
    value = min(max(0.0, value), config.uncached_rate)
    return ClosedFormRate(value=value, in_validity=_definition_holds(config, partition))


def candidate_partitions(table: ThresholdTable, memory: float) -> list[Partition]:
    """All splits reachable at this memory: the all-H split plus every
    table prefix with Y_t <= memory, in table order."""
    candidates = [Partition.all_h(table.config.num_levels)]
    for bp in table.breakpoints:
        if bp.memory <= memory:
            candidates.append(bp.partition)
    return candidates


def pama_rate(config: SystemConfig, table: ThresholdTable | None = None) -> PamaResult:
    """Allocate memory at config.memory and report the achieved rate.

    Evaluates the exact rate of every reachable split and keeps the
    cheapest (ties go to the latest split, i.e. the literal lookup),
    which keeps the reported rate non-increasing and continuous in M.
    """
    if table is None:
        table = build_threshold_table(config)
    best: tuple[float, Partition, Allocation, ExactRate] | None = None
    for part in candidate_partitions(table, config.memory):
        alloc = pama_allocate(config, part)
        exact = total_rate_exact(config, alloc)
        if best is None or exact.total <= best[0] + 1e-12 * (1.0 + best[0]):
            best = (exact.total, part, alloc, exact)
    assert best is not None
    _, part, alloc, exact = best
    try:
        closed = total_rate_closed_form(config, part)
    except ValueError:
        closed = ClosedFormRate(value=math.inf, in_validity=False)
    return PamaResult(partition=part, allocation=alloc, exact=exact, closed=closed)


def pama_totals(
    n_files: np.ndarray,
    users: np.ndarray,
    degrees: np.ndarray,
    num_caches: int,
    memory: float,
) -> np.ndarray:
    """``pama_rate(config).exact.total`` for a batch of instances that
    share K and M, equal bit for bit.

    Row r of the (rows, L) integer arrays holds the levels (N, U, d) of
    one instance, most popular first, each with d <= K.  Every step
    follows the scalar path in the same float order: the breakpoint
    events sorted by (x, kind, level) with running S_I/T_J sums, the
    prefixes with Y_t <= M, :func:`pama_allocate`'s fresh group sums and
    capped I shares, :func:`total_rate_exact`'s per-level rates (through
    :func:`coded_load`) summed in level order, and :func:`pama_rate`'s
    selection that keeps a later split within 1e-12 of the best.
    """
    rows, width = n_files.shape
    r = np.arange(rows)
    nf = n_files.astype(np.float64)
    sqrt_nu = np.sqrt((n_files * users).astype(np.float64))
    full = nf / degrees
    root = np.sqrt(nf / users)
    # Events laid out enter-then-store, each by level index, so a stable
    # sort on x breaks ties by (kind, level) as the table does.
    x = np.concatenate([root / num_caches, root / degrees], axis=1)
    order = np.argsort(x, axis=1, kind="stable")
    x = np.take_along_axis(x, order, axis=1)
    level, enter = order % width, order < width

    # Prefix t is the split after the first t moves; prefix 0 is all-H.
    prefixes = 2 * width + 1
    reach = np.ones((rows, prefixes), dtype=bool)
    in_i = np.zeros((rows, prefixes, width), dtype=bool)
    in_j = np.zeros((rows, prefixes, width), dtype=bool)
    s_i = np.zeros(rows)
    t_j = np.zeros(rows)
    for t in range(2 * width):
        lv, ent = level[:, t], enter[:, t]
        reach[:, t + 1] = x[:, t] * s_i + t_j <= memory
        step = sqrt_nu[r, lv]
        s_i = np.where(ent, s_i + step, s_i - step)
        t_j = np.where(ent, t_j, t_j + full[r, lv])
        in_i[:, t + 1] = in_i[:, t]
        in_j[:, t + 1] = in_j[:, t]
        in_i[r, t + 1, lv] = ent
        in_j[r, t + 1, lv] = ~ent

    # pama_allocate's group sums are fresh sums in level order.
    s_fresh = np.zeros((rows, prefixes))
    t_fresh = np.zeros((rows, prefixes))
    for j in range(width):
        s_fresh = s_fresh + np.where(in_i[:, :, j], sqrt_nu[:, None, j], 0.0)
        t_fresh = t_fresh + np.where(in_j[:, :, j], full[:, None, j], 0.0)
    leftover = memory - t_fresh
    leftover = np.where(leftover > 0.0, leftover, 0.0)

    # single_level_rate: 0 at full storage, K*U at zero memory, else
    # d*U*coded_load(d*m/N, K/d).  Only reachable I lanes need pricing.
    rate = np.where(in_j, 0.0, (num_caches * users).astype(np.float64)[:, None, :])
    ri, ti, li = np.nonzero(in_i & reach[:, :, None])
    cap = full[ri, li]
    share = sqrt_nu[ri, li] / s_fresh[ri, ti] * leftover[ri, ti]
    share = np.where(cap < share, cap, share)
    lane = np.where(share >= cap, 0.0, rate[ri, ti, li])
    coded = (share < cap) & (share != 0.0)
    d = degrees[ri, li][coded]
    lane[coded] = (d * users[ri, li][coded]) * coded_load(
        d * share[coded] / n_files[ri, li][coded], num_caches / d
    )
    rate[ri, ti, li] = lane

    total = np.zeros((rows, prefixes))
    for j in range(width):
        total = total + rate[:, :, j]
    best = total[:, 0]
    for t in range(1, prefixes):
        take = reach[:, t] & (total[:, t] <= best + 1e-12 * (1.0 + best))
        best = np.where(take, total[:, t], best)
    return best


def grid_search_alpha(
    config: SystemConfig, grid_step: float = 0.01
) -> tuple[Allocation, float]:
    """Brute-force oracle: minimize the exact rate over memory splits on
    a simplex grid of the given step (fractions of M), each level capped
    at its full-storage point.  Intended for small level counts."""
    if not 0 < grid_step <= 0.1:
        raise ConfigError("grid_step must lie in (0, 0.1]")
    lcount = config.num_levels
    if lcount > 6:
        raise ConfigError("grid search is limited to at most 6 levels")
    steps = round(1.0 / grid_step)
    m = config.memory
    caps = [lv.full_memory for lv in config.levels]

    best_rate = math.inf
    best_shares: tuple[float, ...] = tuple(0.0 for _ in range(lcount))
    if m == 0 or lcount == 1:
        shares = tuple(min(m, caps[i]) if i == 0 else 0.0 for i in range(lcount))
        alloc = Allocation(shares=shares)
        return alloc, total_rate_exact(config, alloc).total

    for head in itertools.product(range(steps + 1), repeat=lcount - 1):
        used = sum(head)
        if used > steps:
            continue
        alphas = list(head) + [steps - used]
        shares = tuple(
            min(alphas[i] * m / steps, caps[i]) for i in range(lcount)
        )
        rate = total_rate_exact(config, Allocation(shares=shares)).total
        if rate < best_rate - 1e-15:
            best_rate = rate
            best_shares = shares
    return Allocation(shares=best_shares), best_rate


def optimize_access_structure(
    config: SystemConfig, max_degree: int, avg_degree: float
) -> tuple[tuple[int, ...], float]:
    """Pick per-level access degrees minimizing the allocated rate.

    Enumerates every degree vector in {1..max_degree}^L with d_i <= K and
    user-weighted average degree at most ``avg_degree``.  Ties are broken
    by smaller total degree, then lexicographically.
    """
    if max_degree < 1:
        raise ConfigError("max_degree must be at least 1")
    users = [lv.users_per_cache for lv in config.levels]
    total_users = sum(users)
    top = min(max_degree, config.num_caches)
    candidates = []
    for degrees in itertools.product(range(1, top + 1), repeat=config.num_levels):
        avg = sum(u * d for u, d in zip(users, degrees)) / total_users
        if avg <= avg_degree + 1e-12:
            candidates.append(degrees)
    if not candidates:
        raise ConfigError(
            f"no degree vector satisfies avg degree <= {avg_degree:g} with "
            f"max degree {max_degree}"
        )
    scored = []
    for degrees in candidates:
        rate = pama_rate(config.with_degrees(degrees)).exact.total
        scored.append((round(rate, 9), sum(degrees), degrees, rate))
    _, _, best, best_rate = min(scored)
    return best, best_rate
