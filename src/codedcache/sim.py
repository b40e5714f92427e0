"""Executable placement and delivery.

Two simulation modes:

* bit-exact: every cache samples actual bit indices of every subfile of
  its color, delivery broadcasts XOR-coded segments per (user group,
  color) subsystem, and a counting check per subsystem confirms that the
  broadcast carries at least the bits any member lacks and at most the
  bits all members lack.  A delivery group holds at most 64 users.

* expected-size: per-trial stochastic user profiles are mapped onto the
  same subsystem structure, but each subsystem contributes its expected
  coded load (Maddah-Ali & Niesen, decentralized coded caching) instead
  of sampled bits.  A profile is priced with array operations: slots
  from one sort, groups and their distinct files from sorted keys, and
  one scalar ``coded_load`` call per distinct (level, file count).  This
  scales to catalogue-sized popularity distributions.

Coding structure: level-i users are split into groups keyed by (cache
index mod d_i, arrival slot), so that no two users of a group share any
cache, and caches are colored by index mod d_i, so every non-wrapping
user sees each color exactly once.  When d does not divide K, users
whose access window wraps past the cyclic boundary cannot cover all
colors consistently; those caches are flagged as edge caches and their
users are served uncoded (only the bits missing from every accessible
cache are sent in clear).

Randomness: one PCG64 stream per purpose, derived from the run seed via
``numpy.random.SeedSequence`` spawn keys — (1, cache, level, file) for
placement sampling, (2, trial) for stochastic user profiles.  Identical
seeds reproduce every artifact bit-for-bit.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SystemConfig, ValidationWarning
from .pama import Allocation, build_threshold_table, pama_rate
from .popularity import EmpiricalDistribution
from .rate import coded_load


class DecodeError(AssertionError):
    """A subsystem's broadcast cannot serve its members: it carries fewer
    bits than some member lacks, or more than unicasting every lacked bit
    would cost (scheme bug)."""


Demand = tuple[int, int, int]  # (cache, level, file-within-level)


@dataclass(frozen=True)
class Coloring:
    """Cache coloring for one access degree (cache c has color c mod d)
    and the edge caches whose users are served uncoded."""

    num_caches: int
    degree: int
    edge_caches: frozenset[int]

    def color_cache(self, cache: int, color: int) -> int:
        """The unique accessible cache of the given color for a
        non-edge user attached at ``cache``."""
        return (cache + (color - cache) % self.degree) % self.num_caches


def build_coloring(num_caches: int, degree: int) -> Coloring:
    """Color caches by index mod d.  When d does not divide K, the
    trailing caches whose access windows wrap are flagged as edge
    caches."""
    if degree > num_caches:
        raise ValueError(f"degree {degree} exceeds the cache count {num_caches}")
    if num_caches % degree == 0:
        edge: frozenset[int] = frozenset()
    else:
        edge = frozenset(range(num_caches - degree + 1, num_caches))
    return Coloring(
        num_caches=num_caches,
        degree=degree,
        edge_caches=edge,
    )


def _subfile_length(file_size: int, degree: int, color: int) -> int:
    """Length of one color's subfile within a file of ``file_size`` bits;
    the first file_size % degree subfiles are one bit longer so the
    split is exact."""
    return file_size // degree + (1 if color < file_size % degree else 0)


@dataclass
class PlacementState:
    """Bit-exact cache contents for one instance and seed."""

    config: SystemConfig
    file_size_bits: int
    stored: dict[tuple[int, int, int], np.ndarray]  # (cache, level, file) -> bool mask


def place(
    config: SystemConfig,
    allocation: Allocation,
    file_size_bits: int,
    seed: int,
) -> PlacementState:
    """Sample cache contents: every cache keeps, for each file of each
    level, a Bernoulli(d_i * share_i / N_i) subset of the bit indices of
    the subfile matching the cache's color."""
    if file_size_bits < 64:
        raise ValueError("file_size_bits must be at least 64")
    k = config.num_caches
    fractions = []
    for idx, lv in enumerate(config.levels):
        mu = lv.access_degree * allocation.shares[idx] / lv.n_files
        if mu > 1.0 + 1e-9:
            raise ValueError(
                f"level {idx + 1}: cached fraction {mu:g} exceeds 1; allocation bug"
            )
        fractions.append(min(1.0, max(0.0, mu)))

    stored: dict[tuple[int, int, int], np.ndarray] = {}
    for cache in range(k):
        expected_bits = 0.0
        actual_bits = 0
        for lvl_idx, lv in enumerate(config.levels):
            color = cache % lv.access_degree
            length = _subfile_length(file_size_bits, lv.access_degree, color)
            mu = fractions[lvl_idx]
            for f in range(lv.n_files):
                rng = np.random.Generator(
                    np.random.PCG64(
                        np.random.SeedSequence(seed, spawn_key=(1, cache, lvl_idx, f))
                    )
                )
                mask = rng.random(length) < mu
                stored[(cache, lvl_idx, f)] = mask
                actual_bits += int(mask.sum())
                expected_bits += mu * length
        if expected_bits >= 1e4:
            slack = 0.01 * expected_bits + 5.0 * math.sqrt(expected_bits)
            if abs(actual_bits - expected_bits) > slack:
                warnings.warn(
                    f"cache {cache}: stored {actual_bits} bits vs expected "
                    f"{expected_bits:.0f}",
                    ValidationWarning,
                )
    return PlacementState(config=config, file_size_bits=file_size_bits, stored=stored)


def worst_case_demands(config: SystemConfig) -> list[Demand]:
    """Deterministic profile with exactly U_i level-i users per cache and
    demands distinct within every delivery group."""
    demands: list[Demand] = []
    k = config.num_caches
    for cache in range(k):
        for lvl_idx, lv in enumerate(config.levels):
            for slot in range(lv.users_per_cache):
                demands.append((cache, lvl_idx, (slot * k + cache) % lv.n_files))
    return demands


@dataclass
class DeliveryLog:
    total_bits: int
    rate: float
    pair_bits: dict[tuple[int, tuple[int, int], int], int]  # (level, (residue, slot), color) -> bits
    uncoded_bits: int
    decode_ok: bool


def _check_demand(config: SystemConfig, cache: int, lvl_idx: int, file: int) -> None:
    """Raise ``ValueError`` unless the demand names a cache, a level and a
    file of that level that exist in ``config``."""
    if not 0 <= cache < config.num_caches:
        raise ValueError(f"cache index {cache} out of range")
    if not 0 <= lvl_idx < config.num_levels:
        raise ValueError(f"level index {lvl_idx} out of range")
    if not 0 <= file < config.levels[lvl_idx].n_files:
        raise ValueError(f"file {file} does not exist in level {lvl_idx + 1}")


MAX_GROUP = 64  # members per delivery group; one bit each in a uint64 signature


def deliver_bit_exact(placement: PlacementState, demands: Sequence[Demand]) -> DeliveryLog:
    """Run coded delivery for the given demand profile and check, per
    subsystem, that the broadcast can serve every member.

    Per (group, color) subsystem, every bit of a demanded subfile gets a
    signature: the set of participant caches that store it.  Bits cached
    nowhere (signature 0) are sent in clear once per distinct demanded
    file.  A bit that participant p wants and that exactly the caches in
    s hold (s non-empty, p not in s) rides in the XOR for s | {p}, which
    is as long as its longest segment.  So one pass over the signatures
    that occur prices every transmission.  A member can decode only if
    the subsystem's broadcast is at least as long as the bits it lacks,
    and no broadcast needs more than the sum of the members' lacked bits
    (unicasting everything); either violation raises ``DecodeError``.
    Groups of more than 64 members raise ``ValueError``.  Returns the
    broadcast size normalized by the file size.
    """
    config = placement.config
    k = config.num_caches
    f_bits = placement.file_size_bits

    colorings = [build_coloring(k, lv.access_degree) for lv in config.levels]
    slots: Counter = Counter()
    # (cache, file) of coded users by (level, residue, slot) and of edge
    # users by level.
    groups: dict[tuple[int, int, int], list[tuple[int, int]]] = defaultdict(list)
    edge_by_level: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for cache, lvl_idx, file in demands:
        _check_demand(config, cache, lvl_idx, file)
        slot = slots[(cache, lvl_idx)]
        slots[(cache, lvl_idx)] += 1
        coloring = colorings[lvl_idx]
        if cache in coloring.edge_caches:
            edge_by_level[lvl_idx].append((cache, file))
        else:
            groups[(lvl_idx, cache % coloring.degree, slot)].append((cache, file))

    largest = max(map(len, groups.values()), default=0)
    if largest > MAX_GROUP:
        raise ValueError(
            f"a delivery group has {largest} members; at most {MAX_GROUP} fit a signature"
        )

    total_bits = 0
    uncoded_bits = 0
    pair_bits: dict[tuple[int, tuple[int, int], int], int] = {}

    for (lvl_idx, residue, slot), members in sorted(groups.items()):
        coloring = colorings[lvl_idx]
        for color in range(coloring.degree):
            caches_used = [coloring.color_cache(cache, color) for cache, _ in members]
            if len(set(caches_used)) != len(caches_used):
                raise DecodeError("group members mapped to a shared cache")
            length = _subfile_length(f_bits, coloring.degree, color)

            # sig bit j set: the j-th member's cache stores the bit.
            sigs: dict[int, np.ndarray] = {}
            for f in {file for _, file in members}:
                sig = np.zeros(length, dtype=np.uint64)
                for bit, vc in enumerate(caches_used):
                    sig |= placement.stored[(vc, lvl_idx, f)].astype(np.uint64) << np.uint64(bit)
                sigs[f] = sig
            bits_here = sum(int(np.count_nonzero(sig == 0)) for sig in sigs.values())

            # Segment lengths keyed by the XOR's member set sig | {bit}.
            keys, counts, lacked = [], [], []
            for bit, (_, file) in enumerate(members):
                sig = sigs[file]
                lacking = (sig >> np.uint64(bit)) & np.uint64(1) == 0
                lacked.append(int(np.count_nonzero(lacking)))
                key, count = np.unique(
                    sig[lacking & (sig != 0)] | np.uint64(1 << bit), return_counts=True
                )
                keys.append(key)
                counts.append(count)
            xor_sets, inverse = np.unique(np.concatenate(keys), return_inverse=True)
            longest = np.zeros(xor_sets.size, dtype=np.int64)
            np.maximum.at(longest, inverse, np.concatenate(counts))
            bits_here += int(longest.sum())
            if bits_here < max(lacked):
                raise DecodeError(
                    f"{bits_here} broadcast bits cannot carry the {max(lacked)} bits "
                    "a member lacks"
                )
            if bits_here > sum(lacked):
                raise DecodeError(
                    f"{bits_here} broadcast bits exceed the {sum(lacked)} bits "
                    "the members lack"
                )
            pair_bits[(lvl_idx, (residue, slot), color)] = bits_here
            total_bits += bits_here

    for lvl_idx, edge_users in sorted(edge_by_level.items()):
        d = config.levels[lvl_idx].access_degree
        # Edge users: send whatever no accessible cache holds, in clear.
        # Identical (cache, file) requests share the transmission.
        served_clear: set[tuple[int, int, int]] = set()
        for cache, file in edge_users:
            window = [(cache + o) % k for o in range(d)]
            for color in range(d):
                key = (cache, file, color)
                if key in served_clear:
                    continue
                served_clear.add(key)
                length = _subfile_length(f_bits, d, color)
                cov = np.zeros(length, dtype=bool)
                for c in window:
                    if c % d == color:
                        cov |= placement.stored[(c, lvl_idx, file)]
                missing = int(np.count_nonzero(~cov))
                total_bits += missing
                uncoded_bits += missing

    return DeliveryLog(
        total_bits=total_bits,
        rate=total_bits / f_bits,
        pair_bits=pair_bits,
        uncoded_bits=uncoded_bits,
        decode_ok=True,
    )


def expected_profile_rate(
    config: SystemConfig, shares: Sequence[float], demands: Sequence[Demand] | np.ndarray
) -> float:
    """Expected-size rate of one demand profile under the coded scheme.

    ``demands`` is a sequence of (cache, level, file-within-level)
    integer triples or an equivalent ``(n, 3)`` integer array; a demand
    naming a cache, level or file the config lacks raises ``ValueError``.
    Demands repeated inside a subsystem count once (the coded broadcast
    serves identical requests simultaneously), so each delivery group
    costs ``coded_load`` of its level's cached fraction and its number
    of distinct files.  Group loads are summed left to right in the
    order the groups first appear among the demands.  Edge users then
    add the expected uncovered fraction of each of their subfiles.
    """
    table = np.asarray(demands)
    if table.size == 0:
        return 0.0
    if table.ndim != 2 or table.shape[1] != 3 or table.dtype.kind not in "iu":
        raise ValueError("demands must be (cache, level, file) integer triples")
    table = table.astype(np.int64, copy=False)
    caches, levels, files = table.T
    n = len(table)
    k, num_levels = config.num_caches, config.num_levels
    n_files = np.array([lv.n_files for lv in config.levels])
    level_ok = (levels >= 0) & (levels < num_levels)
    bad = (
        ~level_ok
        | (caches < 0)
        | (caches >= k)
        | (files < 0)
        | (files >= n_files[np.where(level_ok, levels, 0)])
    )
    if bad.any():
        _check_demand(config, *table[bad.argmax()].tolist())

    mus = [
        min(1.0, lv.access_degree * shares[idx] / lv.n_files)
        for idx, lv in enumerate(config.levels)
    ]
    degrees = np.array([lv.access_degree for lv in config.levels])[levels]
    wraps = (k % degrees != 0) & (caches > k - degrees)

    # Slot: how many earlier demands share this demand's (cache, level).
    # Sorting (cell, index) pairs packed in one int64 is a stable sort by
    # cell, and much faster than a stable argsort.
    index = np.arange(n)
    by_cell = np.sort((caches * num_levels + levels) * n + index)
    run_head = np.diff(by_cell // n, prepend=-1) != 0
    slots = np.empty(n, dtype=np.int64)
    slots[by_cell % n] = index - np.flatnonzero(run_head)[np.cumsum(run_head) - 1]

    coded = ~wraps
    group_key = ((levels * k + caches % degrees) * n + slots)[coded]
    _, first_seen, group = np.unique(group_key, return_index=True, return_inverse=True)
    file_span = int(n_files.max())
    pairs = np.sort(group * file_span + files[coded])
    distinct = np.bincount(
        pairs[np.diff(pairs, prepend=-1) != 0] // file_span, minlength=first_seen.size
    )
    # Price each (level, distinct-file count) once, then gather.
    priced, price_of = np.unique(
        levels[coded][first_seen] * (n + 1) + distinct, return_inverse=True
    )
    values = np.array(
        [coded_load(mus[key // (n + 1)], key % (n + 1)) for key in priced.tolist()]
    )
    group_loads = values[price_of][np.argsort(first_seen)]
    load = float(np.cumsum(group_loads)[-1]) if group_loads.size else 0.0

    # Edge users, in the iteration order of the set of distinct edge
    # demands; each (cache, level) adds the same per-color terms.
    edge_terms: dict[tuple[int, int], list[float]] = {}
    for cache, lvl_idx, _ in set(map(tuple, table[wraps].tolist())):
        if (cache, lvl_idx) not in edge_terms:
            d = config.levels[lvl_idx].access_degree
            window = [(cache + o) % k for o in range(d)]
            edge_terms[cache, lvl_idx] = [
                (1.0 - mus[lvl_idx]) ** sum(1 for c in window if c % d == color) / d
                for color in range(d)
            ]
        for term in edge_terms[cache, lvl_idx]:
            load += term
    return load


@dataclass(frozen=True)
class SimulationResult:
    rates: tuple[float, ...]
    theoretical: float
    seed: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.rates))


def simulate_stochastic(
    config: SystemConfig,
    popularity: EmpiricalDistribution,
    level_map: Sequence[int] | np.ndarray,
    total_users: int,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Stochastic user profiles in expected-size mode.

    Each of ``total_users`` users attaches to a uniformly random cache
    and requests a file drawn from ``popularity``; ``level_map`` sends
    every global rank to its level index, and a rank's file index within
    its level is its position among that level's ranks.  A level sent
    more ranks than it has files raises ``ValueError``.  Per trial the
    realized profile is priced with :func:`expected_profile_rate` under
    the allocation chosen for ``config.memory``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    level_map = np.asarray(level_map, dtype=np.int64)
    if level_map.shape != (popularity.n_files,):
        raise ValueError("level_map must assign a level to every file rank")
    if level_map.size and (level_map.min() < 0 or level_map.max() >= config.num_levels):
        raise ValueError("level_map references levels missing from the config")
    per_level = np.bincount(level_map, minlength=config.num_levels)
    if np.any(per_level > [lv.n_files for lv in config.levels]):
        raise ValueError("level_map sends a level more ranks than it has files")
    # A rank's file index within its level: its position among that
    # level's ranks, in rank order.
    file_of_rank = np.empty_like(level_map)
    file_of_rank[np.argsort(level_map, kind="stable")] = np.arange(
        level_map.size
    ) - np.repeat(np.cumsum(per_level) - per_level, per_level)

    result = pama_rate(config, build_threshold_table(config))
    shares = result.allocation.shares
    probs = popularity.as_array()
    rates = []
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, trial)))
        )
        caches = rng.integers(0, config.num_caches, total_users)
        ranks = rng.choice(popularity.n_files, size=total_users, p=probs)
        demands = np.column_stack([caches, level_map[ranks], file_of_rank[ranks]])
        rates.append(expected_profile_rate(config, shares, demands))
    return SimulationResult(
        rates=tuple(rates), theoretical=result.exact.total, seed=seed
    )


def lfu_simulate(
    popularity: EmpiricalDistribution,
    memory: float,
    total_users: int,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Empirical rate of the LFU baseline: per trial, the number of
    distinct requested files outside the floor(M) most popular."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cached = int(math.floor(memory))
    probs = popularity.as_array()
    rates = []
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, trial)))
        )
        ranks = rng.choice(popularity.n_files, size=total_users, p=probs)
        # Distinct files counted on a sort: np.unique with no return_*
        # argument takes a hash path that is several times slower here.
        missed = np.sort(ranks[ranks >= cached])
        rates.append(float(np.count_nonzero(missed[1:] != missed[:-1]) + (missed.size > 0)))
    return SimulationResult(rates=tuple(rates), theoretical=float("nan"), seed=seed)
