"""Executable placement and delivery.

Two simulation modes read one subsystem layout:

* bit-exact: every cache samples actual bit indices of every subfile of
  its color, delivery broadcasts XOR-coded segments per (user group,
  color) subsystem, and a counting check per subsystem confirms that the
  broadcast carries at least the bits any member lacks and at most the
  bits all members lack.  A delivery group holds at most 64 users.

* expected-size: per-trial stochastic user profiles are priced on the
  same layout, but each subsystem contributes its expected coded load
  (Maddah-Ali & Niesen, decentralized coded caching) instead of sampled
  bits, with one scalar ``coded_load`` call per distinct (level, file
  count).  This scales to catalogue-sized popularity distributions.

Subsystem layout (``_layout``).  A demand's slot is the number of
earlier demands at its (cache, level).  Caches are colored by index mod
d_i, and a level-i user at cache c reads caches c, c+1, ..., c+d_i-1
(mod K); the one of color j is (c + (j - c) mod d_i) mod K.  When d_i
does not divide K, a user at c > K - d_i wraps past the cyclic boundary
and cannot see every color once.  Such edge users are served uncoded:
for each distinct edge demand, the bits missing from every accessible
cache are sent in clear.  Every other user joins the delivery group
keyed by (level, c mod d_i, slot), whose members share no cache.
Groups are numbered in key order and keep the index of their first
demand; distinct edge demands keep their order of first appearance.
Neither order depends on how files are labelled.

Randomness: one PCG64 stream per purpose, derived from the run seed via
``numpy.random.SeedSequence`` spawn keys — (1, cache, level) for
placement sampling, (2, trial) for stochastic user profiles.  A
(cache, level) stream fills that level's masks file by file at one
random byte per bit, and every bit is exactly Bernoulli(mu) for the
float64 cached fraction mu: the bytes read as a base-256 fraction U,
and the bit is U < mu.  The 1 in 256 bits whose first byte ties mu's
first digit are resolved in later rounds (see ``_bernoulli_bits``).
First bytes come in blocks of at most ``DRAW_BLOCK`` 64-bit outputs,
and the bits do not depend on the block size.  Identical seeds
reproduce every artifact bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ConfigError, SystemConfig, ValidationWarning, _memory
from .pama import Allocation, pama_rate
from .popularity import EmpiricalDistribution, level_map_for_config
from .rate import coded_load


class DecodeError(AssertionError):
    """A subsystem's broadcast cannot serve its members: it carries fewer
    bits than some member lacks, or more than unicasting every lacked bit
    would cost (scheme bug)."""


Demand = tuple[int, int, int]  # (cache, level, file-within-level)


def _subfile_length(file_size: int, degree: int, color: int) -> int:
    """Length of one color's subfile within a file of ``file_size`` bits;
    the first file_size % degree subfiles are one bit longer so the
    split is exact."""
    return file_size // degree + (1 if color < file_size % degree else 0)


@dataclass
class PlacementState:
    """Bit-exact cache contents for one instance and seed.

    ``stored[(cache, level)]`` is an ``(N_i, subfile_length)`` bool array
    whose row f marks the bits of file f's subfile (of the cache's color)
    that the cache keeps.  Each (cache, level) array comes from one PCG64
    stream with spawn key ``(1, cache, level)``, filled row-major at one
    random byte per bit plus tie rounds (see ``_bernoulli_bits``)."""

    config: SystemConfig
    file_size_bits: int
    stored: dict[tuple[int, int], np.ndarray]


# 64-bit outputs drawn per call, 8 placed bits each: the bytes of one call
# and their tie mask hold 1 MiB however large a level's masks are.  Bits
# read the stream's bytes in position order, so they do not depend on the
# block size.
DRAW_BLOCK = 1 << 16


def _stream_bytes(bitgen: np.random.PCG64, count: int) -> np.ndarray:
    """The next ``count`` bytes of a stream: the little-endian bytes of
    ceil(count / 8) 64-bit outputs, the unused tail of the last dropped."""
    raw = bitgen.random_raw(-(-count // 8))
    return raw.astype("<u8", copy=False).view(np.uint8)[:count]


def _base256_digits(mu: float) -> list[int]:
    """The finite base-256 expansion of a float64 in (0, 1); each step
    scales by a power of two and drops an integer part, so it is exact."""
    digits = []
    while mu > 0.0:
        mu *= 256.0
        digit = int(mu)
        digits.append(digit)
        mu -= digit
    return digits


def _bernoulli_bits(flat: np.ndarray, mu: float, bitgen: np.random.PCG64) -> None:
    """Fill ``flat`` with independent exact Bernoulli(mu) bits: a bit is set
    when U = 0.b0 b1 b2... (base 256, uniform bytes b_j) is below mu.

    Every bit compares one byte with mu's first digit.  The 1 in 256 bits
    that tie read one more byte per round, in position order, against the
    next digit; a tie still open after the last digit means U >= mu."""
    if mu <= 0.0 or mu >= 1.0:
        flat.fill(mu >= 1.0)
        return
    first, *rest = _base256_digits(mu)
    ties = []
    for start in range(0, flat.size, 8 * DRAW_BLOCK):
        block = flat[start : start + 8 * DRAW_BLOCK]
        drawn = _stream_bytes(bitgen, block.size)
        np.less(drawn, first, out=block)
        ties.append(np.flatnonzero(drawn == first) + start)
    open_ties = np.concatenate(ties)
    for digit in rest:
        if open_ties.size == 0:
            break
        drawn = _stream_bytes(bitgen, open_ties.size)
        flat[open_ties[drawn < digit]] = True
        open_ties = open_ties[drawn == digit]


def place(
    config: SystemConfig,
    allocation: Allocation,
    file_size_bits: int,
    seed: int,
) -> PlacementState:
    """Sample cache contents: every cache keeps, for each file of each
    level, an exact Bernoulli(d_i * share_i / N_i) subset of the bit
    indices of the subfile matching the cache's color, at one random byte
    per bit (see ``_bernoulli_bits``)."""
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

    stored: dict[tuple[int, int], np.ndarray] = {}
    for cache in range(k):
        expected_bits = 0.0
        actual_bits = 0
        for lvl_idx, lv in enumerate(config.levels):
            color = cache % lv.access_degree
            length = _subfile_length(file_size_bits, lv.access_degree, color)
            mu = fractions[lvl_idx]
            bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, cache, lvl_idx)))
            masks = np.empty((lv.n_files, length), dtype=bool)
            _bernoulli_bits(masks.reshape(-1), mu, bitgen)
            stored[(cache, lvl_idx)] = masks
            actual_bits += int(np.count_nonzero(masks))
            expected_bits += mu * masks.size
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


def _layout(
    config: SystemConfig, demands: Sequence[Demand] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[Demand]]:
    """Subsystem layout of a demand profile (see the module docstring).

    Returns the ``(n, 3)`` int64 demand table; a mask of the coded
    demands (those that join a group) and the group id of each coded
    demand, in demand order; each group's (level, residue, slot) key and
    the position of its first demand among the coded ones; and the
    distinct edge demands, as (cache, level, file) tuples in order of
    first appearance.  Demands that are not integer triples, or that
    name a cache, level or file the config lacks, raise ``ValueError``.
    """
    table = np.asarray(demands)
    if table.size == 0:
        table = np.empty((0, 3), dtype=np.int64)
    # np.asarray reads a bool beside ints as 0 or 1; an integer array
    # (as simulate_stochastic passes) cannot hold one.
    if (
        table.ndim != 2
        or table.shape[1] != 3
        or table.dtype.kind not in "iu"
        or (
            not isinstance(demands, np.ndarray)
            and not {bool, np.bool_}.isdisjoint(map(type, itertools.chain(*demands)))
        )
    ):
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

    # Slots from one sort: sorting (cell, index) pairs packed in one int64
    # is a stable sort by cell, and much faster than a stable argsort.
    index = np.arange(n)
    by_cell = np.sort((caches * num_levels + levels) * n + index)
    run_head = np.diff(by_cell // n, prepend=-1) != 0
    slots = np.empty(n, dtype=np.int64)
    slots[by_cell % n] = index - np.flatnonzero(run_head)[np.cumsum(run_head) - 1]

    degrees = np.array([lv.access_degree for lv in config.levels])[levels]
    wraps = (k % degrees != 0) & (caches > k - degrees)
    coded = ~wraps
    residues = caches % degrees
    _, first, group = np.unique(
        ((levels * k + residues) * n + slots)[coded], return_index=True, return_inverse=True
    )
    head = np.flatnonzero(coded)[first]
    keys = np.column_stack([levels[head], residues[head], slots[head]])
    edges = list(dict.fromkeys(map(tuple, table[wraps].tolist())))
    return table, coded, group, keys, first, edges


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
    Groups of more than 64 members raise ``ValueError``, and so do
    demands that are not integer triples or that name a cache, level or
    file the config lacks.  Returns the broadcast size normalized by the
    file size.
    """
    config = placement.config
    k = config.num_caches
    f_bits = placement.file_size_bits
    table, coded, group, group_keys, _, edges = _layout(config, demands)
    coded_demands = table[coded]
    largest = int(np.bincount(group).max(initial=0))
    if largest > MAX_GROUP:
        raise ValueError(
            f"a delivery group has {largest} members; at most {MAX_GROUP} fit a signature"
        )

    total_bits = 0
    uncoded_bits = 0
    pair_bits: dict[tuple[int, tuple[int, int], int], int] = {}

    for g, (lvl_idx, residue, slot) in enumerate(group_keys.tolist()):
        members = coded_demands[group == g]
        d = config.levels[lvl_idx].access_degree
        for color in range(d):
            caches_used = [(c + (color - c) % d) % k for c in members[:, 0].tolist()]
            if len(set(caches_used)) != len(caches_used):
                raise DecodeError("group members mapped to a shared cache")
            length = _subfile_length(f_bits, d, color)

            # sig bit j set: the j-th member's cache stores the bit.
            sigs: dict[int, np.ndarray] = {}
            for f in set(members[:, 2].tolist()):
                sig = np.zeros(length, dtype=np.uint64)
                for bit, vc in enumerate(caches_used):
                    sig |= placement.stored[(vc, lvl_idx)][f].astype(np.uint64) << np.uint64(bit)
                sigs[f] = sig
            bits_here = sum(int(np.count_nonzero(sig == 0)) for sig in sigs.values())

            # Segment lengths keyed by the XOR's member set sig | {bit}.
            keys, counts, lacked = [], [], []
            for bit, file in enumerate(members[:, 2].tolist()):
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

    # Edge users: send whatever no accessible cache holds, in clear.
    for cache, lvl_idx, file in edges:
        d = config.levels[lvl_idx].access_degree
        cov = [np.zeros(_subfile_length(f_bits, d, color), dtype=bool) for color in range(d)]
        for c in ((cache + o) % k for o in range(d)):
            cov[c % d] |= placement.stored[(c, lvl_idx)][file]
        missing = sum(int(np.count_nonzero(~covered)) for covered in cov)
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
    order the groups first appear among the demands.  Each distinct edge
    demand then adds the expected uncovered fraction of each of its
    subfiles, in order of first appearance.
    """
    table, coded, group, keys, first, edges = _layout(config, demands)
    k = config.num_caches
    mus = [
        min(1.0, lv.access_degree * shares[idx] / lv.n_files)
        for idx, lv in enumerate(config.levels)
    ]

    file_span = max(lv.n_files for lv in config.levels)
    pairs = np.sort(group * file_span + table[:, 2][coded])
    distinct = np.bincount(
        pairs[np.diff(pairs, prepend=-1) != 0] // file_span, minlength=first.size
    )
    # Price each (level, distinct-file count) once, then gather.
    count_span = len(group) + 1
    priced, price_of = np.unique(keys[:, 0] * count_span + distinct, return_inverse=True)
    values = np.array(
        [coded_load(mus[key // count_span], key % count_span) for key in priced.tolist()]
    )
    group_loads = values[price_of][np.argsort(first)]
    load = float(np.cumsum(group_loads)[-1]) if group_loads.size else 0.0

    # Each (cache, level) of an edge demand adds the same per-color terms.
    edge_terms: dict[tuple[int, int], list[float]] = {}
    for cache, lvl_idx, _ in edges:
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

    @property
    def mean(self) -> float:
        return float(np.mean(self.rates))


def _check_run(total_users: int, trials: int, seed: int) -> None:
    """Raise :class:`ConfigError` unless a simulation has at least one
    trial, no negative user count and a non-negative seed."""
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    if total_users < 0:
        raise ConfigError(f"the user count must be non-negative, got {total_users}")
    if seed < 0:
        raise ConfigError(f"the seed must be non-negative, got {seed}")


def simulate_stochastic(
    config: SystemConfig,
    popularity: EmpiricalDistribution,
    total_users: int,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Stochastic user profiles in expected-size mode.

    Each of ``total_users`` users attaches to a uniformly random cache
    and requests a file drawn from ``popularity``, whose ranks fall in
    the config's levels as contiguous blocks, in level order (see
    :func:`~codedcache.popularity.level_map_for_config`, which raises
    :class:`ConfigError` unless the file counts agree); a rank's file
    index is its offset in its block.  Per trial the realized profile is
    priced with :func:`expected_profile_rate` under the allocation
    chosen for ``config.memory``.  Known fault: after ``discretize``
    warns that rounding reordered near-tied blocks, level order is not
    rank-block order and ranks land in the wrong blocks; the instance
    format does not record the blocks.
    """
    _check_run(total_users, trials, seed)
    level_of_rank = level_map_for_config(config, popularity.n_files)
    starts = np.cumsum([0] + [lv.n_files for lv in config.levels])[:-1]
    file_of_rank = np.arange(popularity.n_files) - starts[level_of_rank]

    result = pama_rate(config)
    shares = result.allocation.shares
    rates = []
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, trial)))
        )
        caches = rng.integers(0, config.num_caches, total_users)
        ranks = rng.choice(popularity.n_files, size=total_users, p=popularity.probabilities)
        demands = np.column_stack([caches, level_of_rank[ranks], file_of_rank[ranks]])
        rates.append(expected_profile_rate(config, shares, demands))
    return SimulationResult(rates=tuple(rates), theoretical=result.exact.total)


def lfu_simulate(
    popularity: EmpiricalDistribution,
    memory: float,
    total_users: int,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Empirical rate of the LFU baseline: per trial, the number of
    distinct requested files outside the floor(M) most popular.  A
    bool, non-real, non-finite or negative memory raises
    :class:`ConfigError`."""
    _check_run(total_users, trials, seed)
    cached = int(math.floor(_memory(memory)))
    rates = []
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, trial)))
        )
        ranks = rng.choice(popularity.n_files, size=total_users, p=popularity.probabilities)
        # Distinct files counted on a sort: np.unique with no return_*
        # argument takes a hash path that is several times slower here.
        missed = np.sort(ranks[ranks >= cached])
        rates.append(float(np.count_nonzero(missed[1:] != missed[:-1]) + (missed.size > 0)))
    return SimulationResult(rates=tuple(rates), theoretical=float("nan"))
