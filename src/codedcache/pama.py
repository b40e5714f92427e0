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
:func:`total_rate_closed_form` owns that expression and its validity
check; :func:`pama_rate` reports only the exact rate.

Near the low end of each breakpoint interval the table's split can
violate its own defining inequalities (the normalized memory falls below
m_lo of the newest member), and there the literal split is not even
rate-monotone in M.  ``pama_rate(config)`` therefore builds the table
and evaluates every split reachable at ``config.memory`` (all table
prefixes) and keeps the cheapest, which restores monotonicity and
continuity of the reported rate; the literal table lookup is the last
of :func:`candidate_partitions`.

:func:`pama_totals` evaluates that rate with arrays, bit for bit equal
to :func:`pama_rate`: per row the total, the winning table prefix, and
that split's capped shares and per-level rates.  Its (instances, L)
level arrays take one M for all instances, one M per instance, or, for
a single (1, L) instance, a (rows,) memory grid; each instance's
breakpoint structure is built once.  The brute-force split search and
:func:`optimize_access_structure` price many instances at one memory,
and ``sweep`` and ``gap`` one instance at a memory grid (through
:func:`pama_memories`); :func:`closed_form_rates` then gives the closed
form of each winning split.  :func:`grid_search_alpha`, the exhaustive
oracle over memory splits, uses that the total is a sum of per-level
rates, each set by its own share alone: it prices every level at each
of the grid's steps+1 shares once, with the same per-level lane rule,
and each simplex point gathers its L rates from that table.  It shares
one walker, ``_first_best``, with the brute-force split search: both
price candidates ``SEARCH_BLOCK`` at a time in enumeration order and
keep the first best by the same 1e-15 rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

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
    """One move of the partition table: ``memory`` is the raw memory Y_t
    at which it applies and ``partition`` the split after it."""

    memory: float
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
    """Outcome of the full allocation pipeline at one memory point; the
    split's closed form is :func:`total_rate_closed_form`."""

    partition: Partition
    allocation: Allocation
    exact: ExactRate


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
        else:
            i_set.discard(idx)
            j_set.add(idx)
            s_i -= _sqrt_nu(config, idx)
            t_j += config.levels[idx].full_memory
        h_set = frozenset(range(lcount)) - frozenset(i_set) - frozenset(j_set)
        breakpoints.append(
            Breakpoint(memory, Partition(h_set, frozenset(i_set), frozenset(j_set)))
        )
    return ThresholdTable(config=config, breakpoints=tuple(breakpoints))


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


def total_rate_closed_form(config: SystemConfig, partition: Partition) -> ClosedFormRate:
    """Closed-form rate of a partition, clamped to [0, sum K*U_i], and
    whether the split meets its strict defining inequalities at
    config.memory (relative slack 1e-12); out of validity, the value is
    only an extrapolation.  With I empty the table is treated as
    normative (always valid); with I non-empty and M = T_J the
    expression divides by zero and the result is (inf, False)."""
    s_i, t_j = _group_sums(config, partition)
    k = config.num_caches
    levels = config.levels
    base = sum(k * levels[h].users_per_cache for h in partition.h_set)
    if not partition.i_set:
        return ClosedFormRate(min(max(0.0, float(base)), config.uncached_rate), True)
    denom = config.memory - t_j
    if denom == 0:
        return ClosedFormRate(math.inf, False)
    value = base + s_i * s_i / denom - sum(
        levels[i].access_degree * levels[i].users_per_cache for i in partition.i_set
    )
    value = min(max(0.0, value), config.uncached_rate)

    tilde_m = denom / s_i
    slack = 1e-12 * (1.0 + abs(tilde_m))

    def root(idx: int) -> float:
        return math.sqrt(levels[idx].n_files / levels[idx].users_per_cache)

    valid = (
        all(
            root(i) / k - slack <= tilde_m <= root(i) / levels[i].access_degree + slack
            for i in partition.i_set
        )
        and all(
            tilde_m < root(h) / k + (levels[h].n_files / k) / s_i + slack
            for h in partition.h_set
        )
        and all(tilde_m > root(j) / levels[j].access_degree - slack for j in partition.j_set)
    )
    return ClosedFormRate(value, valid)


def closed_form_rates(
    config: SystemConfig, splits: list[Partition], prefix: np.ndarray, memory: np.ndarray
) -> np.ndarray:
    """``total_rate_closed_form(config.with_memory(m), splits[t]).value``
    for each pair (t, m) of ``prefix`` and ``memory``, equal bit for bit
    (inf where I is non-empty and M = T_J)."""
    k = config.num_caches
    levels = config.levels
    s_i, t_j = np.array([_group_sums(config, split) for split in splits], dtype=np.float64).T
    base = [sum(k * levels[h].users_per_cache for h in split.h_set) for split in splits]
    shared = [
        sum(levels[i].access_degree * levels[i].users_per_cache for i in split.i_set)
        for split in splits
    ]
    has_i = np.array([bool(split.i_set) for split in splits])[prefix]
    s_i, t_j = s_i[prefix], t_j[prefix]
    base = np.array(base, dtype=np.float64)[prefix]
    shared = np.array(shared, dtype=np.float64)[prefix]
    denom = memory - t_j
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(has_i, base + s_i * s_i / denom - shared, base)
    value = np.where(value > 0.0, value, 0.0)
    value = np.where(config.uncached_rate < value, config.uncached_rate, value)
    return np.where(has_i & (denom == 0), np.inf, value)


def table_splits(table: ThresholdTable) -> list[Partition]:
    """The split after each prefix of the table's moves: all-H first."""
    return [Partition.all_h(table.config.num_levels), *(bp.partition for bp in table.breakpoints)]


def candidate_partitions(table: ThresholdTable, memory: float) -> list[Partition]:
    """All splits reachable at this memory: the all-H split plus every
    table prefix with Y_t <= memory, in table order."""
    candidates = [Partition.all_h(table.config.num_levels)]
    for bp in table.breakpoints:
        if bp.memory <= memory:
            candidates.append(bp.partition)
    return candidates


def pama_rate(config: SystemConfig) -> PamaResult:
    """Allocate memory at config.memory and report the achieved rate.

    Evaluates the exact rate of every reachable split and keeps the
    cheapest (ties go to the latest split, i.e. the literal lookup),
    which keeps the reported rate non-increasing and continuous in M.
    """
    table = build_threshold_table(config)
    best: tuple[float, Partition, Allocation, ExactRate] | None = None
    for part in candidate_partitions(table, config.memory):
        alloc = pama_allocate(config, part)
        exact = total_rate_exact(config, alloc)
        if best is None or exact.total <= best[0] + 1e-12 * (1.0 + best[0]):
            best = (exact.total, part, alloc, exact)
    assert best is not None
    _, part, alloc, exact = best
    return PamaResult(partition=part, allocation=alloc, exact=exact)


@dataclass(frozen=True)
class PamaBatch:
    """Per-row outcome of :func:`pama_totals`: the exact total, the
    winning prefix t of the threshold table (0 is all-H), and that
    split's capped shares and per-level rates, each (rows, L)."""

    total: np.ndarray
    prefix: np.ndarray
    shares: np.ndarray
    rates: np.ndarray


def _level_arrays(config: SystemConfig) -> np.ndarray:
    """The levels' (N, U, d) as three integer rows."""
    return np.array(
        [(lv.n_files, lv.users_per_cache, lv.access_degree) for lv in config.levels]
    ).T


def _level_rates(share, cap, n_files, users, degrees, num_caches: int) -> np.ndarray:
    """:func:`single_level_rate` lane by lane, bit for bit, for shares
    already capped at N/d: 0 at the cap, K*U at zero memory, else
    d*U*coded_load(d*share/N, K/d).  The arrays share one shape."""
    rate = np.where(share >= cap, 0.0, (num_caches * users).astype(np.float64))
    coded = (share < cap) & (share != 0.0)
    d = degrees[coded]
    rate[coded] = (d * users[coded]) * coded_load(
        d * share[coded] / n_files[coded], num_caches / d
    )
    return rate


def pama_totals(
    n_files: np.ndarray,
    users: np.ndarray,
    degrees: np.ndarray,
    num_caches: int,
    memory: float | np.ndarray,
) -> PamaBatch:
    """``pama_rate(config)`` for a batch of instances that share K, equal
    bit for bit: the exact total, the winning split's table prefix, its
    shares and its per-level rates (batch shapes: see the module doc).

    Every step follows the scalar path in the same float order: the moves
    sorted by (x, kind, level) with running S_I/T_J sums for each Y_t,
    :func:`pama_allocate`'s fresh group sums and capped I shares, the
    per-level rates of :func:`total_rate_exact` summed in level order, and
    :func:`pama_rate`'s selection that keeps a later split within 1e-12 of
    the best.  The batch axis is last, so each operation runs along it.
    """
    memory = np.asarray(memory, dtype=np.float64)
    (rows,) = np.broadcast_shapes(n_files.shape[:1], memory.shape)
    memory = np.broadcast_to(memory, (rows,))
    n_files, users, degrees = n_files.T, users.T, degrees.T
    width, count = n_files.shape
    each = np.arange(count)
    sqrt_nu = np.sqrt((n_files * users).astype(np.float64))
    full = n_files / degrees
    root = np.sqrt(n_files / users)
    # Moves laid out enter-then-store by level, so a stable sort breaks ties
    # as the table does.  An entry adds sqrt(N*U) to S_I; a store moves it
    # to T_J as N/d.
    x = np.concatenate([root / num_caches, root / degrees])
    order = np.argsort(x, axis=0, kind="stable")
    x = x[order, each]
    moves = np.concatenate([sqrt_nu, -sqrt_nu, 0.0 * full, full]).reshape(2, -1, count)
    moves = moves[:, order, each]
    y = np.empty((2 * width, count))
    sums = np.zeros((2, count))  # S_I and T_J before move t
    for t in range(2 * width):
        y[t] = x[t] * sums[0] + sums[1]
        sums = sums + moves[:, t]

    # Prefix t is the split after the first t moves (0 is all-H): a level
    # is in J once its store is among them, in I once only its entry is.
    rank = np.empty_like(order)
    rank[order, each] = np.arange(2 * width)[:, None]
    prefixes = np.arange(2 * width + 1)[:, None, None]
    in_j = rank[width:] < prefixes
    in_i = (rank[:width] < prefixes) & ~in_j
    # pama_allocate's group sums are fresh sums in level order.
    s_fresh = t_fresh = 0.0
    for j in range(width):
        s_fresh = s_fresh + np.where(in_i[:, j], sqrt_nu[j], 0.0)
        t_fresh = t_fresh + np.where(in_j[:, j], full[j], 0.0)

    # Column r is now memory row r, on instance r % count.  J levels cost
    # 0 and H levels K*U; only reachable prefixes' I lanes need pricing.
    reach = np.concatenate([np.ones((1, rows), dtype=bool), y <= memory])
    leftover = memory - t_fresh
    leftover = np.where(leftover > 0.0, leftover, 0.0)
    ti, li, ri = np.nonzero(in_i & reach[:, None, :])
    ii = ri % count
    cap = full[li, ii]
    share = sqrt_nu[li, ii] / s_fresh[ti, ii] * leftover[ti, ri]
    share = np.where(cap < share, cap, share)
    shares = np.where(in_j, full, np.zeros(rows))
    shares[ti, li, ri] = share
    rate = np.where(in_j, np.zeros(rows), (num_caches * users).astype(np.float64))
    rate[ti, li, ri] = _level_rates(
        share, cap, n_files[li, ii], users[li, ii], degrees[li, ii], num_caches
    )

    total = 0.0
    for j in range(width):
        total = total + rate[:, j]
    # A later reachable prefix wins if its total lies within the 1e-12
    # band of the best so far; unreachable ones are +inf and never do.
    total = np.where(reach, total, np.inf)
    within = total + 1e-12 * (1.0 + total)
    band = within[0]
    prefix = np.zeros(rows, dtype=np.intp)
    for t in range(1, 2 * width + 1):
        take = total[t] <= band
        band = np.where(take, within[t], band)
        prefix = np.where(take, t, prefix)
    r = np.arange(rows)
    return PamaBatch(total[prefix, r], prefix, shares[prefix, :, r], rate[prefix, :, r])


def pama_memories(config: SystemConfig, memory: np.ndarray) -> PamaBatch:
    """:func:`pama_totals` of one instance, as one row, at each memory."""
    return pama_totals(*_level_arrays(config)[:, None, :], config.num_caches, memory)


# Candidates priced per array batch by the exhaustive searches, and
# memories per pama_memories batch in bounds.gap_profile: a few MB of
# scratch at any search or grid size, with the per-batch NumPy cost
# amortized.
SEARCH_BLOCK = 4096

# The most candidates an exhaustive search prices: the oracle's simplex
# points, access-opt's degree vectors and, by default, the split search's
# splits.  Larger searches are refused before any is priced.
CANDIDATE_LIMIT = 10_000_000


def _first_best(
    candidates: Iterator[tuple[int, ...]], width: int, price: Callable[[np.ndarray], np.ndarray]
) -> tuple[tuple[int, ...], float]:
    """The exhaustive searches' walker: price the ``width``-tuples of
    ``candidates`` ``SEARCH_BLOCK`` at a time as (rows, width) int64
    arrays, and return the last candidate whose rate beat every earlier
    best by more than 1e-15 (the first best in order), with that rate."""
    best, best_rate = None, math.inf
    while block := list(itertools.islice(candidates, SEARCH_BLOCK)):
        rows = np.fromiter(
            itertools.chain.from_iterable(block), np.int64, len(block) * width
        ).reshape(len(block), width)
        rates = price(rows)
        # A rate that beats the best by 1e-15 is below the best at the
        # block's start and below every earlier rate of the block.
        earlier = np.minimum.accumulate(np.concatenate([[best_rate], rates[:-1]]))
        for i in np.flatnonzero(rates < earlier).tolist():
            if rates[i] < best_rate - 1e-15:
                best, best_rate = block[i], float(rates[i])
    assert best is not None
    return best, best_rate


def grid_search_alpha(
    config: SystemConfig, grid_step: float = 0.01
) -> tuple[Allocation, float]:
    """Brute-force oracle: minimize the exact rate over memory splits on
    a simplex grid of round(1/grid_step) intervals (fractions of M),
    each level capped at its full-storage point.  Intended for small
    level counts.

    A level's share takes only steps+1 values, min(a*M/steps, N_i/d_i)
    for a = 0..steps, so one (steps+1, L) table, built ``SEARCH_BLOCK``
    rows at a time, holds every rate the search needs.  The points go
    in lexicographic order of the first L-1 fractions, as stars and
    bars, through the walker shared with the split search; each point
    gathers its levels' rates from the table and adds them in level
    order, bit for bit :func:`total_rate_exact`.  The first rate below
    the best so far by more than 1e-15 becomes the best.  A grid of
    more than ``CANDIDATE_LIMIT`` points is refused."""
    if not 0 < grid_step <= 0.1:
        raise ConfigError("grid_step must lie in (0, 0.1]")
    lcount = config.num_levels
    if lcount > 6:
        raise ConfigError("grid search is limited to at most 6 levels")
    steps = round(1.0 / grid_step)
    points = math.comb(steps + lcount - 1, lcount - 1)
    if points > CANDIDATE_LIMIT:
        raise ConfigError(
            f"grid step {grid_step:g} gives {points} points on {lcount} levels, "
            f"over the limit of {CANDIDATE_LIMIT}; use a coarser step"
        )
    m = config.memory
    caps = [lv.full_memory for lv in config.levels]

    if m == 0 or lcount == 1:
        shares = tuple(min(m, caps[i]) if i == 0 else 0.0 for i in range(lcount))
        alloc = Allocation(shares=shares)
        return alloc, total_rate_exact(config, alloc).total

    cap = np.array(caps)
    n_files, users, degrees = _level_arrays(config)
    levels = np.arange(lcount)

    def capped_shares(alphas: np.ndarray) -> np.ndarray:
        shares = alphas * m / steps
        return np.where(cap < shares, cap, shares)

    def split(bars: np.ndarray) -> np.ndarray:
        # Bars b_1 < ... < b_{L-1} in 0..steps+L-2 give alpha_1 = b_1,
        # alpha_i = b_i - b_{i-1} - 1 and alpha_L = steps + L - 2 - b_{L-1}.
        return np.diff(bars, axis=1, prepend=-1, append=steps + lcount - 1) - 1

    # Row a of the table is every level's rate at share a*M/steps, capped.
    table = np.empty((steps + 1, lcount))
    for first in range(0, steps + 1, SEARCH_BLOCK):
        alphas = np.arange(first, min(first + SEARCH_BLOCK, steps + 1))[:, None]
        table[first : first + len(alphas)] = _level_rates(
            *np.broadcast_arrays(capped_shares(alphas), cap, n_files, users, degrees),
            config.num_caches,
        )

    def price(bars: np.ndarray) -> np.ndarray:
        lanes = table[split(bars), levels]
        rates = np.zeros(len(bars))
        for j in range(lcount):
            rates = rates + lanes[:, j]
        return rates

    bars = itertools.combinations(range(steps + lcount - 1), lcount - 1)
    best, best_rate = _first_best(bars, lcount - 1, price)
    return Allocation(shares=tuple(capped_shares(split(np.array([best])))[0].tolist())), best_rate


def optimize_access_structure(
    config: SystemConfig, max_degree: int, avg_degree: float
) -> tuple[tuple[int, ...], float]:
    """Pick per-level access degrees minimizing the allocated rate.

    Enumerates every degree vector in {1..max_degree}^L with d_i <= K and
    user-weighted average degree at most ``avg_degree``, ``SEARCH_BLOCK``
    at a time, and prices them as rows of :func:`pama_totals`, each rate
    bit for bit ``pama_rate`` of the instance with those degrees.  Ties
    are broken by smaller total degree, then lexicographically.  More
    than ``CANDIDATE_LIMIT`` vectors are refused before any is priced.
    """
    if max_degree < 1:
        raise ConfigError("max_degree must be at least 1")
    n_files, users, _ = _level_arrays(config)
    top = min(max_degree, config.num_caches)
    lcount = config.num_levels
    count = top**lcount
    if count > CANDIDATE_LIMIT:
        raise ConfigError(
            f"{top}^{lcount} = {count} degree vectors exceed the limit of "
            f"{CANDIDATE_LIMIT}; lower max_degree"
        )
    # Vector v is v's L base-top digits, most significant first, plus one:
    # itertools.product order.
    powers = top ** np.arange(lcount - 1, -1, -1)
    block_bests = []
    for first in range(0, count, SEARCH_BLOCK):
        grid = np.arange(first, min(first + SEARCH_BLOCK, count))[:, None] // powers % top + 1
        degrees = grid[grid @ users / users.sum() <= avg_degree + 1e-12]
        if not len(degrees):
            continue
        n, u = (np.broadcast_to(column, degrees.shape) for column in (n_files, users))
        totals = pama_totals(n, u, degrees, config.num_caches, config.memory).total.tolist()
        block_bests.append(
            min((round(r, 9), sum(d), tuple(d), r) for d, r in zip(degrees.tolist(), totals))
        )
    if not block_bests:
        raise ConfigError(
            f"no degree vector satisfies avg degree <= {avg_degree:g} with "
            f"max degree {max_degree}"
        )
    _, _, best, best_rate = min(block_bests)
    return best, best_rate
