"""Continuous popularity profiles and their discretization into levels.

Real request traces give a per-file popularity distribution rather than
clean popularity classes.  This module loads such distributions (or
synthesizes Zipf ones), fits a Zipf exponent, and splits the ranked file
catalogue into contiguous popularity levels, either by brute force or by
a constant-time two-level heuristic tuned for Zipf profiles.

The brute-force search discretizes its candidate splits in array
blocks (user rounding, zero-user merge and level order, one row per
split) and prices them with :func:`~codedcache.pama.pama_totals`.  Its
blocks come from the walker it shares with the memory-split oracle
:func:`~codedcache.pama.grid_search_alpha`: one block size, one scan in
enumeration order and one rule for the best.
:func:`discretize` is the one-row case of the same array code, so each
candidate's rate equals ``pama_rate(discretize(...)).exact.total`` bit
for bit and the search picks the split that discretize then writes.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .model import ConfigError, LevelSpec, SystemConfig, ValidationWarning, _memory
from .pama import CANDIDATE_LIMIT, _first_best, pama_totals


class CountsError(ValueError):
    """Malformed request-count input."""


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Per-file request probabilities, sorted non-increasing, summing to 1.

    Any sequence of finite floats is accepted; NaN or infinite entries
    raise :class:`CountsError`.  It is held as a read-only float64
    array, beside its read-only ``cumulative`` sums.
    """

    probabilities: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = np.array(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise CountsError("distribution must be a non-empty 1-D sequence")
        if not np.isfinite(p).all():
            raise CountsError("probabilities must be finite")
        if np.any(p < 0):
            raise CountsError("probabilities must be non-negative")
        if np.any(np.diff(p) > 1e-12):
            raise CountsError("probabilities must be sorted non-increasing")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise CountsError(f"probabilities must sum to 1, got {float(p.sum())!r}")
        cum = np.cumsum(p)
        p.flags.writeable = False
        cum.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "cumulative", cum)

    @property
    def n_files(self) -> int:
        return self.probabilities.size


@dataclass(frozen=True)
class LevelPartition:
    """Contiguous split of ranks 1..n_files into popularity blocks.

    ``boundaries`` holds the strictly increasing cut points; block i
    covers ranks (boundaries[i-1], boundaries[i]].
    """

    boundaries: tuple[int, ...]
    n_files: int

    def __post_init__(self) -> None:
        cuts = self.boundaries
        if any(b <= 0 or b >= self.n_files for b in cuts):
            raise ValueError("cut points must lie strictly inside 1..n_files-1")
        if any(b >= c for b, c in zip(cuts, cuts[1:])):
            raise ValueError("cut points must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return len(self.boundaries) + 1


def zipf_distribution(exponent: float, n_files: int) -> EmpiricalDistribution:
    """Synthetic Zipf(s) distribution over n_files ranks."""
    if n_files < 1:
        raise ValueError("n_files must be positive")
    ranks = np.arange(1, n_files + 1, dtype=np.float64)
    weights = ranks**-float(exponent)
    probs = weights / weights.sum()
    return EmpiricalDistribution(probabilities=probs)


def load_counts(source: str | IO[str] | IO[bytes]) -> EmpiricalDistribution:
    """Read request counts and normalize them into a distribution.

    Accepts a path or an open stream of newline-separated non-negative
    integers, or two-column ``id,count`` CSV.  Counts are sorted
    descending and normalized; zero-count rows are dropped with a
    warning.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    counts: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cell = line.split(",")[-1] if "," in line else line
        try:
            value = int(cell.strip())
        except ValueError:
            raise CountsError(f"line {lineno}: expected an integer count, got {line!r}") from None
        if value < 0:
            raise CountsError(f"line {lineno}: counts must be non-negative, got {value}")
        counts.append(value)

    if not counts:
        raise CountsError("no counts found in input")
    arr = np.asarray(counts, dtype=np.float64)
    zeros = int(np.count_nonzero(arr == 0))
    if zeros:
        warnings.warn(f"dropping {zeros} zero-count rows", ValidationWarning)
        arr = arr[arr > 0]
    if arr.size == 0:
        raise CountsError("all counts are zero")
    arr = np.sort(arr)[::-1]
    probs = arr / arr.sum()
    return EmpiricalDistribution(probabilities=probs)


def fit_zipf(dist: EmpiricalDistribution) -> float:
    """Least-squares Zipf exponent: minus the slope of log p vs log rank
    over all ranks.  Fewer than 10 files or a zero probability raises
    :class:`ConfigError`."""
    if dist.n_files < 10:
        raise ConfigError("need at least 10 files to fit a Zipf exponent")
    p = dist.probabilities
    if np.any(p <= 0):
        raise ConfigError("distribution must be strictly positive to fit")
    ranks = np.arange(1, dist.n_files + 1, dtype=np.float64)
    slope = np.polyfit(np.log(ranks), np.log(p), 1)[0]
    return float(-slope)


def zipf_split_heuristic(s: float, n_files: int, num_caches: int, memory: float) -> LevelPartition:
    """Constant-time two-level split of a Zipf(s) catalogue.

    For s < 1 the head size is (1-s)/(2-s) * min(M*K, N).  For s >= 1 it
    switches between (M*K)^(1/s), N^(1/s) and 0.1*M depending on where M
    falls relative to m1 = min(N/K, K^(1/(s-1))) and
    m2 = max(N^(1/s), K^(1/(s-1))); at s = 1 the K^(1/(s-1)) term is
    treated as +inf.  The head size is rounded to the nearest integer and
    clamped to [1, N-1].  A memory that is not a finite real >= 0, an
    exponent s <= 0 or fewer than two files raises :class:`ConfigError`.
    """
    m = _memory(memory)
    if s <= 0:
        raise ConfigError("Zipf exponent must be positive")
    if n_files < 2:
        raise ConfigError("need at least two files to split")
    n = float(n_files)
    k = float(num_caches)
    if s < 1.0:
        head = (1.0 - s) / (2.0 - s) * min(m * k, n)
    else:
        k_term = math.inf if s == 1.0 else k ** (1.0 / (s - 1.0))
        m1 = min(n / k, k_term)
        m2 = max(n ** (1.0 / s), k_term)
        if m <= m1:
            head = (m * k) ** (1.0 / s)
        elif m < m2:
            head = n ** (1.0 / s)
        else:
            head = 0.1 * m
    head_count = int(math.floor(head + 0.5))
    head_count = min(max(head_count, 1), n_files - 1)
    return LevelPartition(boundaries=(head_count,), n_files=n_files)


def _check_counts(degrees: Sequence[int], num_caches: int, total_users: int) -> None:
    """Refuse a K or user total that is not an integer, a degree that is
    not a positive integer (bools are neither), a degree above K, which
    puts a level in I and J at once, and a user total below 1.  Every
    level has a degree, so a K below 1 is refused as below a degree."""
    for name, value in (("K", num_caches), ("total_users", total_users)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for d in degrees:
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
            raise ConfigError(f"access degree must be a positive integer, got {d!r}")
    if max(degrees, default=0) > num_caches:
        raise ConfigError(f"access degree {max(degrees)} exceeds K = {num_caches}")
    if total_users < 1:
        raise ConfigError("total_users must be positive")


def discretize(
    dist: EmpiricalDistribution,
    partition: LevelPartition,
    num_caches: int,
    total_users: int,
    degrees: Sequence[int],
    memory: float,
) -> SystemConfig:
    """Turn a ranked distribution plus a level split into an instance.

    Per-level user counts follow the block probability mass:
    U_i = round(total_users * mass_i / K), rounded half-up, with the
    remainder assigned to the last level.  Levels whose user count
    rounds to zero are merged into their less popular neighbour with a
    warning.  The more-files-than-users regularity check is downgraded
    to a warning here, since empirical blocks may violate it; a K or user
    total that is not a positive integer, an access degree that is not a
    positive integer or exceeds K, or a bad memory, raises
    :class:`ConfigError`.
    """
    memory = _memory(memory)
    if partition.n_files != dist.n_files:
        raise ConfigError("partition and distribution disagree on the file count")
    if len(degrees) != partition.num_levels:
        raise ConfigError("need one access degree per level")
    _check_counts(degrees, num_caches, total_users)

    cum = np.concatenate([[0.0], dist.cumulative])
    edges = np.array([[0, *partition.boundaries, partition.n_files]], dtype=np.int64)
    edges, degs, users, nlev, dropped = _merge_zero_user_levels(
        cum, edges, np.array([degrees], dtype=np.int64), total_users / num_caches
    )
    for (size,) in dropped:
        warnings.warn(
            f"level of {size} files rounds to zero users; merging into its neighbour",
            ValidationWarning,
        )
    n_blocks = np.diff(edges[:, : nlev[0] + 1], axis=1)
    levels = []
    for n_block, u, deg in zip(n_blocks[0].tolist(), users[0].tolist(), degs[0].tolist()):
        if n_block < num_caches * u:
            warnings.warn(
                f"block of {n_block} files serves {num_caches * u} users; "
                "regularity N >= K*U does not hold for this level",
                ValidationWarning,
            )
        levels.append(LevelSpec(n_files=n_block, users_per_cache=u, access_degree=deg))

    order = _popularity_order(n_blocks, users[:, : nlev[0]])[0].tolist()
    if order != sorted(order):
        # User-count rounding inverted two near-tied blocks; the level
        # order no longer matches the rank-block order.
        warnings.warn(
            "rounding reordered near-tied blocks; level indices no longer "
            "follow catalogue rank order",
            ValidationWarning,
        )
    ordered = tuple(levels[i] for i in order)
    return SystemConfig(num_caches=num_caches, memory=memory, levels=ordered)


def level_map_for_config(config: SystemConfig, n_files: int) -> np.ndarray:
    """Rank-to-level map for an instance whose levels are contiguous
    popularity blocks of a ranked catalogue (most popular first)."""
    sizes = [lv.n_files for lv in config.levels]
    if sum(sizes) != n_files:
        raise ConfigError(
            f"config levels cover {sum(sizes)} files but the catalogue has {n_files}"
        )
    return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


def _round_users(
    cum: np.ndarray, edges: np.ndarray, nlev: np.ndarray, per_cache: float
) -> np.ndarray:
    """User counts per row of block edges: half-up rounding
    of per_cache * mass on every live block but the last, which takes
    the remainder.  Blocks past ``nlev`` are padding."""
    masses = cum[edges[:, 1:]] - cum[edges[:, :-1]]
    users = np.floor(per_cache * masses + 0.5).astype(np.int64)
    last = nlev - 1
    head = np.where(np.arange(users.shape[1]) < last[:, None], users, 0).sum(axis=1)
    users[np.arange(len(users)), last] = np.floor(per_cache - head + 0.5)
    return users


def _drop_column(values: np.ndarray, column: np.ndarray, fill: int) -> np.ndarray:
    """Each row with its entry at ``column`` removed, padded with ``fill``."""
    cols = np.arange(values.shape[1])
    padded = np.column_stack([values, np.full(len(values), fill)])
    return np.take_along_axis(padded, cols + (cols >= column[:, None]), axis=1)


def _merge_zero_user_levels(
    cum: np.ndarray, edges: np.ndarray, degrees: np.ndarray, per_cache: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Per row of block edges, round users and merge every block that
    rounds to zero users into a neighbour, one block per round.

    Returns (edges, degrees, users, level counts, dropped sizes); a row
    that merged keeps its live blocks first and is padded with empty
    blocks.  The last item holds, per round, the file count of the
    block each merging row dropped.
    """
    n_files = int(edges[0, -1])
    nlev = np.full(len(edges), degrees.shape[1])
    users = _round_users(cum, edges, nlev, per_cache)
    rows = np.arange(len(edges))
    dropped = []
    while True:
        zero = (np.arange(users.shape[1]) < nlev[rows, None]) & (users[rows] < 1)
        hit = zero.any(axis=1)
        if not hit.any():
            return edges, degrees, users, nlev, dropped
        rows, zero = rows[hit], zero[hit]
        if np.any(nlev[rows] == 1):
            raise ConfigError("every level rounds to zero users; raise total_users")
        # Merge the first zero-user block into its less popular
        # neighbour (the more popular one for the last block), keeping
        # the neighbour's access degree.
        drop = zero.argmax(axis=1)
        dropped.append(edges[rows, drop + 1] - edges[rows, drop])
        cut = np.where(drop + 1 < nlev[rows], drop + 1, drop)
        edges[rows] = _drop_column(edges[rows], cut, n_files)
        degrees[rows] = _drop_column(degrees[rows], drop, 1)
        nlev[rows] -= 1
        users[rows] = _round_users(cum, edges[rows], nlev[rows], per_cache)


def _popularity_order(n: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the stable order of levels by decreasing U/N, compared
    exactly by cross-multiplication as ``Fraction`` compares them."""
    idx = np.arange(n.shape[1])
    ahead_num = u[:, None, :] * n[:, :, None]  # [r, i, j] = U_j * N_i
    ahead_den = u[:, :, None] * n[:, None, :]  # [r, i, j] = U_i * N_j
    ahead = (ahead_num > ahead_den) | ((ahead_num == ahead_den) & (idx < idx[:, None]))
    return np.argsort(ahead.sum(axis=2), axis=1)


def _price_splits(
    cum: np.ndarray,
    cut_rows: np.ndarray,
    degrees: Sequence[int],
    num_caches: int,
    total_users: int,
    memory: float,
) -> np.ndarray:
    """``pama_rate(discretize(...)).exact.total`` for each row of cut
    points, equal bit for bit, priced as one array batch."""
    count = len(cut_rows)
    n_files = cum.size - 1
    edges = np.column_stack(
        [np.zeros(count, np.int64), cut_rows, np.full(count, n_files, np.int64)]
    )
    degs = np.tile(np.asarray(degrees, dtype=np.int64), (count, 1))
    edges, degs, users, nlev, _ = _merge_zero_user_levels(
        cum, edges, degs, total_users / num_caches
    )
    memory = float(memory)
    rates = np.empty(count)
    for width in np.unique(nlev).tolist():
        rows = np.flatnonzero(nlev == width)
        n = np.diff(edges[rows, : width + 1], axis=1)
        u = users[rows, :width]
        d = degs[rows, :width]
        order = _popularity_order(n, u)
        rates[rows] = pama_totals(
            np.take_along_axis(n, order, axis=1),
            np.take_along_axis(u, order, axis=1),
            np.take_along_axis(d, order, axis=1),
            num_caches,
            memory,
        ).total
    return rates


def brute_force_partition(
    dist: EmpiricalDistribution,
    num_levels: int,
    num_caches: int,
    memory: float,
    degrees: Sequence[int],
    total_users: int,
    coarsening: int | None = None,
    budget: int = CANDIDATE_LIMIT,
    extra_cuts: Iterable[int] = (),
) -> tuple[LevelPartition, float]:
    """Exhaustively search contiguous level splits for the lowest rate.

    Cut points are restricted to multiples of ``coarsening`` (default
    n_files/200) to tame the O(N^(L-1)) candidate count; ``extra_cuts``
    adds specific off-grid cut points to the candidate set.

    Candidates go in ``itertools.combinations`` order through the walker
    shared with :func:`~codedcache.pama.grid_search_alpha`, priced
    ``SEARCH_BLOCK`` at a time, each rate bit-identical to ``pama_rate``
    of the discretized instance; the first rate below the best so far by
    more than 1e-15 becomes the best.  Raises :class:`ConfigError` for a bad
    memory, L < 1, a coarsening below 1, a degree count other than L, a K
    or user total that is not a positive integer, an access degree that
    is not a positive integer or exceeds K, a cut grid
    with fewer than L-1 cut points, more candidates than ``budget``, and
    when every level rounds to zero users.
    """
    memory = _memory(memory)
    n = dist.n_files
    if num_levels < 1:
        raise ConfigError("num_levels must be positive")
    if len(degrees) != num_levels:
        raise ConfigError("need one access degree per level")
    if coarsening is None:
        coarsening = max(1, n // 200)
    if coarsening < 1:
        raise ConfigError("coarsening must be at least 1")

    cum = np.concatenate([[0.0], dist.cumulative])
    _check_counts(degrees, num_caches, total_users)

    cuts = sorted(
        set(range(coarsening, n, coarsening)) | {c for c in extra_cuts if 0 < c < n}
    )
    if len(cuts) < num_levels - 1:
        raise ConfigError(f"no candidate split: {len(cuts)} cut points for {num_levels} levels")
    n_cand = math.comb(len(cuts), num_levels - 1)
    if n_cand > budget:
        raise ConfigError(
            f"{n_cand} candidate partitions exceed the budget of {budget}; "
            "increase coarsening"
        )

    best_cuts, best_rate = _first_best(
        itertools.combinations(cuts, num_levels - 1),
        num_levels - 1,
        lambda rows: _price_splits(cum, rows, degrees, num_caches, total_users, memory),
    )
    return LevelPartition(boundaries=best_cuts, n_files=n), best_rate
