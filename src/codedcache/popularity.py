"""Continuous popularity profiles and their discretization into levels.

Real request traces give a per-file popularity distribution rather than
clean popularity classes.  This module loads such distributions (or
synthesizes Zipf ones), fits a Zipf exponent, and splits the ranked file
catalogue into contiguous popularity levels, either by brute force or by
a constant-time two-level heuristic tuned for Zipf profiles.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .model import ConfigError, LevelSpec, SystemConfig, ValidationWarning
from .pama import pama_rate


class CountsError(ValueError):
    """Malformed request-count input."""


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Per-file request probabilities, sorted non-increasing, summing to 1.

    Any sequence of floats is accepted; it is held as a read-only
    float64 array, with its cumulative sum computed once.
    """

    probabilities: np.ndarray
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = np.array(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise CountsError("distribution must be a non-empty 1-D sequence")
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
        object.__setattr__(self, "_cumulative", cum)

    @property
    def n_files(self) -> int:
        return self.probabilities.size

    def as_array(self) -> np.ndarray:
        return self.probabilities

    def cumulative(self) -> np.ndarray:
        return self._cumulative


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
    over all ranks."""
    if dist.n_files < 10:
        raise ValueError("need at least 10 files to fit a Zipf exponent")
    p = dist.as_array()
    if np.any(p <= 0):
        raise ValueError("distribution must be strictly positive to fit")
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
    clamped to [1, N-1].
    """
    if s <= 0:
        raise ValueError("Zipf exponent must be positive")
    if n_files < 2:
        raise ValueError("need at least two files to split")
    n = float(n_files)
    k = float(num_caches)
    m = float(memory)
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
    to a warning here, since empirical blocks may violate it.
    """
    if partition.n_files != dist.n_files:
        raise ConfigError("partition and distribution disagree on the file count")
    if len(degrees) != partition.num_levels:
        raise ConfigError("need one access degree per level")
    if total_users < 1:
        raise ConfigError("total_users must be positive")

    cum = np.concatenate([[0.0], dist.cumulative()])
    edges = [0, *partition.boundaries, partition.n_files]
    blocks = list(zip(edges[:-1], edges[1:], degrees))
    per_cache = total_users / num_caches

    while True:
        masses = [float(cum[hi] - cum[lo]) for lo, hi, _ in blocks]
        users = [int(math.floor(per_cache * mass + 0.5)) for mass in masses[:-1]]
        users.append(int(math.floor(per_cache - sum(users) + 0.5)))
        if all(u >= 1 for u in users):
            break
        if len(blocks) == 1:
            raise ConfigError("every level rounds to zero users; raise total_users")
        # Merge the first zero-user block into a neighbour, keeping the
        # neighbour's access degree.
        drop = next(i for i, u in enumerate(users) if u < 1)
        neighbour = drop + 1 if drop + 1 < len(blocks) else drop - 1
        warnings.warn(
            f"level of {blocks[drop][1] - blocks[drop][0]} files rounds to zero "
            "users; merging into its neighbour",
            ValidationWarning,
        )
        first, second = sorted((drop, neighbour))
        merged = (blocks[first][0], blocks[second][1], blocks[neighbour][2])
        blocks = blocks[:first] + [merged] + blocks[second + 1 :]

    levels = []
    for (lo, hi, deg), u in zip(blocks, users):
        n_block = hi - lo
        if n_block < num_caches * u:
            warnings.warn(
                f"block of {n_block} files serves {num_caches * u} users; "
                "regularity N >= K*U does not hold for this level",
                ValidationWarning,
            )
        levels.append(LevelSpec(n_files=n_block, users_per_cache=u, access_degree=int(deg)))

    ordered = tuple(sorted(levels, key=lambda lv: lv.popularity, reverse=True))
    if ordered != tuple(levels):
        # User-count rounding inverted two near-tied blocks; the level
        # order no longer matches the rank-block order.
        warnings.warn(
            "rounding reordered near-tied blocks; level indices no longer "
            "follow catalogue rank order",
            ValidationWarning,
        )
    return SystemConfig(num_caches=num_caches, memory=float(memory), levels=ordered)


def level_map_for_config(config: SystemConfig, n_files: int) -> np.ndarray:
    """Rank-to-level map for an instance whose levels are contiguous
    popularity blocks of a ranked catalogue (most popular first)."""
    sizes = [lv.n_files for lv in config.levels]
    if sum(sizes) != n_files:
        raise ConfigError(
            f"config levels cover {sum(sizes)} files but the catalogue has {n_files}"
        )
    return np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


def _partition_rate(
    dist: EmpiricalDistribution,
    boundaries: tuple[int, ...],
    num_caches: int,
    total_users: int,
    degrees: Sequence[int],
    memory: float,
) -> float:
    part = LevelPartition(boundaries=boundaries, n_files=dist.n_files)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        config = discretize(dist, part, num_caches, total_users, degrees[: part.num_levels], memory)
    return pama_rate(config).exact.total


def brute_force_partition(
    dist: EmpiricalDistribution,
    num_levels: int,
    num_caches: int,
    memory: float,
    degrees: Sequence[int],
    total_users: int,
    coarsening: int | None = None,
    budget: int = 10_000_000,
    extra_cuts: Iterable[int] = (),
) -> tuple[LevelPartition, float]:
    """Exhaustively search contiguous level splits for the lowest rate.

    Cut points are restricted to multiples of ``coarsening`` (default
    n_files/200) to tame the O(N^(L-1)) candidate count; ``extra_cuts``
    adds specific off-grid cut points to the candidate set.  Raises if
    the candidate count would exceed ``budget``.
    """
    n = dist.n_files
    if num_levels < 1:
        raise ValueError("num_levels must be positive")
    if len(degrees) < num_levels:
        raise ConfigError("need one access degree per level")
    if coarsening is None:
        coarsening = max(1, n // 200)
    if coarsening < 1:
        raise ValueError("coarsening must be at least 1")

    if num_levels == 1:
        rate = _partition_rate(dist, (), num_caches, total_users, degrees, memory)
        return LevelPartition(boundaries=(), n_files=n), rate

    cuts = sorted(
        set(range(coarsening, n, coarsening)) | {c for c in extra_cuts if 0 < c < n}
    )
    n_cand = math.comb(len(cuts), num_levels - 1)
    if n_cand > budget:
        raise ValueError(
            f"{n_cand} candidate partitions exceed the budget of {budget}; "
            "increase coarsening"
        )

    best_rate = math.inf
    best_cuts: tuple[int, ...] | None = None
    for combo in itertools.combinations(cuts, num_levels - 1):
        rate = _partition_rate(dist, combo, num_caches, total_users, degrees, memory)
        if rate < best_rate - 1e-15:
            best_rate = rate
            best_cuts = combo
    assert best_cuts is not None
    return LevelPartition(boundaries=best_cuts, n_files=n), best_rate
