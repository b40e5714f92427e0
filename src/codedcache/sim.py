"""Executable placement and delivery.

Two simulation modes read one subsystem layout:

* bit-exact: every cache samples actual bit indices of every subfile of
  its color, delivery broadcasts XOR-coded segments per (user group,
  color) subsystem, and a counting check per subsystem confirms that the
  broadcast carries at least the bits any member lacks and at most the
  bits all members lack (see :func:`deliver_bit_exact`).  Placement
  draws a subfile's bits only when delivery reads them, and a row's bits
  do not depend on which other rows are drawn.  A delivery group holds
  at most 64 users.

* expected-size: stochastic user profiles are priced on the same
  layout, but each subsystem contributes its expected coded load
  (Maddah-Ali & Niesen, decentralized coded caching) instead of sampled
  bits (see :class:`_Prices`).  Trials are priced in blocks of at most
  ``DEMAND_BLOCK`` demands, which scales to catalogue-sized popularity
  distributions.

Subsystem layout.  A demand's slot is the number of earlier demands at
its (cache, level).  Caches are colored by index mod d_i, and a level-i
user at cache c reads caches c, c+1, ..., c+d_i-1 (mod K); the one of
color j is (c + (j - c) mod d_i) mod K.  When d_i does not divide K, a
user at c > K - d_i wraps past the cyclic boundary and cannot see every
color once.  Such edge users are served uncoded: for each distinct edge
demand, the bits missing from every accessible cache are sent in clear.
Every other user joins the delivery group keyed by (level, c mod d_i,
slot), whose members share no cache.  Groups are numbered in key order;
distinct edge demands keep their order of first appearance.  Neither
order depends on how files are labelled.  A block of trials is laid out
at once, with the trial as the most significant part of every key, so
trials share no slot, group or edge demand (see :func:`_groups`).
Demands are checked once, where they enter (``_demand_table``); the
layout and pricing steps trust their input.

Randomness: one PCG64 stream per purpose, seeded by a
``numpy.random.SeedSequence`` of the run seed and an explicit spawn key
— (1, cache, level) for placement sampling, (2, trial) for stochastic
user profiles.  File f of a level reads the window of its (cache,
level) stream that starts at output f * 2^64, and every bit is exactly
Bernoulli(mu) for the float64 cached fraction mu (see
``_bernoulli_bits``).  A trial's stream draws its users' cache indices
(the LFU baseline draws none), then one uniform per user, ranked as
``Generator.choice`` would rank it (see ``_RankTable`` and
``_TrialStreams``).  Identical seeds reproduce every artifact
bit-for-bit, whatever the block sizes.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

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


@dataclass(frozen=True)
class PlacementState:
    """Decentralized cache contents for one instance and seed, drawn on
    demand.

    Every cache keeps, for each file of each level, an exact
    Bernoulli(``fractions[level]``) subset of the bit indices of the
    subfile matching the cache's color.  The masks of (cache, level) read
    one PCG64 stream with spawn key ``(1, cache, level)``; file f's row
    reads the window that starts at output f * 2^64, at one random byte
    per bit plus tie rounds (see ``_bernoulli_bits``).  So a row depends
    only on the seed, the cache, the level, the file, the fraction and
    the subfile length, not on which other rows are drawn, in what order
    or beside which other caches' rows.  Nothing is drawn until delivery
    asks; it draws the rows of all caches of one (level, subfile length)
    together (see ``_draw``)."""

    config: SystemConfig
    file_size_bits: int
    seed: int
    fractions: tuple[float, ...]

    def _draw(
        self, level: int, length: int, requests: Sequence[tuple[int, np.ndarray]]
    ) -> np.ndarray:
        """The masks of every ``(cache, files)`` request of ``level``,
        stacked in request order: each cache's rows, its files in the
        order given, then the next cache's.  Every cache must have
        subfiles of ``length`` bits, and the indices are not checked.
        Each cache's stream is built once, and the rows are drawn in
        batches of at most ``DRAW_BLOCK`` 64-bit outputs, whichever
        caches they belong to."""
        windows = np.concatenate([files for _, files in requests])
        bitgens: list[np.random.PCG64] = []
        for cache, files in requests:
            seq = np.random.SeedSequence(self.seed, spawn_key=(1, cache, level))
            bitgens += [np.random.PCG64(seq)] * files.size
        masks = np.empty((windows.size, length), dtype=bool)
        batch = max(1, DRAW_BLOCK // -(-length // 8))
        for start in range(0, windows.size, batch):
            _bernoulli_bits(
                masks[start : start + batch],
                self.fractions[level],
                bitgens[start : start + batch],
                windows[start : start + batch],
            )
        return masks


# 64-bit outputs drawn per batch of rows, 8 placed bits each: a batch's
# bytes and tie mask hold about 512 KiB however many rows are asked for.
# Each row reads its own window, so the bits do not depend on the batch.
DRAW_BLOCK = 1 << 15


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


def _bernoulli_bits(
    masks: np.ndarray,
    mu: float,
    bitgens: Sequence[np.random.PCG64],
    windows: Sequence[int],
) -> None:
    """Fill ``masks`` with independent exact Bernoulli(mu) bits: a bit is
    set when U = 0.b0 b1 b2... (base 256, uniform bytes b_j) is below mu.
    The bytes of a row are the little-endian bytes of its stream's 64-bit
    outputs: row r of the 2-D ``masks`` reads the stream of ``bitgens[r]``
    from output ``windows[r] * 2^64`` of the state that generator has at
    the call.  Rows may share a generator; every generator's state is
    restored at the end.

    Every bit of a row compares one byte with mu's first digit.  The 1 in
    256 bits that tie read one byte per round, in position order, from
    the row's next whole outputs, against the next digit; a tie still
    open after the last digit means U >= mu.  One draw per row reads its
    first bytes and a margin for the tie rounds; rows whose ties outrun
    the margin draw more."""
    if mu <= 0.0 or mu >= 1.0:
        masks.fill(mu >= 1.0)
        return
    # Each generator's last output read, counted from its state at the call.
    at = dict.fromkeys(bitgens, 0)
    saved = [(bitgen, bitgen.state) for bitgen in at]
    offsets = [window << 64 for window in np.asarray(windows).tolist()]

    def draw(which: np.ndarray, start: int, count: int) -> np.ndarray:
        # Each window is reached by advancing its generator from the last
        # output that generator read, modulo the 2^128 period.
        out = np.empty((which.size, count), dtype=np.uint64)
        for i, row in enumerate(which.tolist()):
            bitgen = bitgens[row]
            window = offsets[row] + start
            bitgen.advance((window - at[bitgen]) % 2**128)
            out[i] = bitgen.random_raw(count)
            at[bitgen] = window + count
        return out

    n, length = masks.shape
    first, *rest = _base256_digits(mu)
    raw = draw(np.arange(n), 0, -(-length // 8) + length // 1024 + 2)
    drawn = raw.astype("<u8", copy=False).view(np.uint8)
    np.less(drawn[:, :length], first, out=masks)
    open_ties = np.flatnonzero(drawn[:, :length] == first)
    # Byte at which each row's next round starts: rounds read whole outputs.
    end = np.full(n, -(-length // 8) * 8)
    for digit in rest:
        if open_ties.size == 0:
            break
        row, col = np.divmod(open_ties, length)
        count = np.bincount(row, minlength=n)
        stop = end + 8 * -(-count // 8)
        if stop.max() > drawn.shape[1]:
            # Every row still reading gets the same outputs more, so each
            # keeps all of its outputs below the new width.
            live = np.flatnonzero(count)
            more = np.zeros((n, -(-(int(stop.max()) - drawn.shape[1]) // 8)), dtype=np.uint64)
            more[live] = draw(live, raw.shape[1], more.shape[1])
            raw = np.hstack([raw, more])
            drawn = raw.astype("<u8", copy=False).view(np.uint8)
        rank = np.arange(open_ties.size) - (np.cumsum(count) - count)[row]
        byte = drawn[row, end[row] + rank]
        below = byte < digit
        masks[row[below], col[below]] = True
        open_ties = open_ties[byte == digit]
        end = stop
    for bitgen, state in saved:
        bitgen.state = state


def _check_shares(config: SystemConfig, shares: Sequence[float]) -> None:
    """Refuse shares that are not one non-negative real number per level;
    a bool is not a number here."""
    if len(shares) != config.num_levels:
        raise ValueError(f"need {config.num_levels} memory shares, got {len(shares)}")
    for idx, share in enumerate(shares):
        if isinstance(share, (bool, np.bool_)) or not isinstance(share, numbers.Real):
            raise ValueError(f"level {idx + 1}: memory share {share!r} must be a number")
        if not share >= 0.0:
            raise ValueError(f"level {idx + 1}: memory share {share!r} must be non-negative")


def place(
    config: SystemConfig,
    allocation: Allocation,
    file_size_bits: int,
    seed: int,
) -> PlacementState:
    """Decentralized placement: every cache keeps, for each file of each
    level, an exact Bernoulli(d_i * share_i / N_i) subset of the bit
    indices of the subfile matching the cache's color.  Validates the
    file size, the seed and the cached fractions and returns the state
    that draws the masks when asked (see :class:`PlacementState`).  A
    file size or seed that is a bool or not an integer, a file size
    below 64 or a negative seed raises ``ValueError``, and so do shares
    that are not one non-negative number per level or are over-full."""
    for name, value in (("file_size_bits", file_size_bits), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if file_size_bits < 64:
        raise ValueError("file_size_bits must be at least 64")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_shares(config, allocation.shares)
    fractions = []
    for idx, lv in enumerate(config.levels):
        mu = lv.access_degree * allocation.shares[idx] / lv.n_files
        if mu > 1.0 + 1e-9:
            raise ValueError(
                f"level {idx + 1}: cached fraction {float(mu)!r} exceeds 1; allocation bug"
            )
        fractions.append(min(1.0, mu))
    return PlacementState(
        config=config,
        file_size_bits=int(file_size_bits),
        seed=int(seed),
        fractions=tuple(fractions),
    )


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
    """What one :func:`deliver_bit_exact` call sends.

    ``total_bits`` is the broadcast's length and ``rate`` that length
    over the file size.  ``pair_bits`` holds each (group, color)
    subsystem's bits, keyed by ``(level, (residue, slot), color)``: the
    group's level, its key's cache residue mod d and slot, and the color
    of the subfiles it carries.  ``uncoded_bits`` counts only the bits
    sent in clear to edge (wrap-around) users; the bits a coded group
    sends in clear because no member's cache holds them count in its
    ``pair_bits``.  ``decode_ok`` is True on every log returned, since
    a failed check raises :class:`DecodeError`."""

    total_bits: int
    rate: float
    pair_bits: dict[tuple[int, tuple[int, int], int], int]
    uncoded_bits: int
    decode_ok: bool


def _demand_table(config: SystemConfig, demands: Sequence[Demand] | np.ndarray) -> np.ndarray:
    """``demands`` as an (n, 3) int64 table of (cache, level, file) rows.

    Demands that are not integer triples (a bool field among them), or
    that name a cache, level or file the config lacks, raise
    ``ValueError`` naming the value as passed, before any cast."""
    table = given = np.asarray(demands)
    if table.size == 0:
        table = np.empty((0, 3), dtype=np.int64)
    triples = table.ndim == 2 and table.shape[1] == 3
    if triples and not isinstance(demands, np.ndarray):
        # np.asarray reads a bool beside ints as 0 or 1, and makes a list
        # with an int outside int64 float64 or object; clipped to int64,
        # such an int is still out of range.
        fields = list(itertools.chain(*demands))
        triples = {bool, np.bool_}.isdisjoint(map(type, fields))
        if table.dtype.kind not in "iu" and all(isinstance(v, numbers.Integral) for v in fields):
            given = np.array(demands, dtype=object)
            table = np.clip(given, -(2**63), 2**63 - 1).astype(np.int64)
    if not triples or table.dtype.kind not in "iu":
        raise ValueError("demands must be (cache, level, file) integer triples")
    caches, levels, files = table.T
    n_files = np.array([lv.n_files for lv in config.levels])
    level_ok = (levels >= 0) & (levels < config.num_levels)
    bad = ~level_ok | (caches < 0) | (caches >= config.num_caches) | (files < 0)
    bad |= files >= n_files[np.where(level_ok, levels, 0)]
    if bad.any():
        cache, level, file = given[bad.argmax()].tolist()
        if not 0 <= cache < config.num_caches:
            raise ValueError(f"cache index {cache} out of range")
        if not 0 <= level < config.num_levels:
            raise ValueError(f"level index {level} out of range")
        raise ValueError(f"file {file} does not exist in level {level + 1}")
    return table.astype(np.int64, copy=False)


class _Groups(NamedTuple):
    """The subsystem layout that delivery and expected-size pricing share
    (see :func:`_groups`)."""

    order: np.ndarray  # demand indices in (trial, level, cache, index) order
    number: np.ndarray  # the group of each entry of ``order``; edge demands number past the last
    keys: np.ndarray  # (groups, 3) (level, residue, slot), groups in (trial, key) order
    coded: int  # demands in a group
    edges: np.ndarray  # distinct edge demand indices, in order of first appearance


def _sort_packed(high: np.ndarray, low: np.ndarray, high_bound: int, low_bits: int) -> np.ndarray:
    """``np.sort((high << low_bits) | low)`` for ``0 <= high < high_bound``
    and ``0 <= low < 2**low_bits``: a sort by (high, low) in one int64
    key, much faster than an argsort.  Bounds whose keys could leave
    int64 raise ``ValueError``."""
    if high_bound << low_bits > 2**63:
        raise ValueError("demand profile too large for 64-bit layout keys")
    keys = (high << low_bits) | low
    keys.sort()
    return keys


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values."""
    bounds = np.empty(values.size + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(values[1:], values[:-1], out=bounds[1:-1])
    bounds = bounds.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _groups(config: SystemConfig, table: np.ndarray, trial: np.ndarray) -> _Groups:
    """Each demand's delivery group, or its flag as an edge demand (see
    the module docstring), for an (n, 3) int64 ``table`` of demands
    inside ``config``, as :func:`_demand_table` returns.

    ``trial`` gives each demand's trial, as a non-decreasing non-negative
    int64 column: the demands of a block of trials, one trial after
    another.  A single profile is trial 0 throughout.

    Two sorts of packed int64 keys lay the block out, one of the demands
    by cell and one of the cells by class, each followed by counting
    passes; each key's bound is checked to fit int64 (see
    ``_sort_packed``).
    """
    caches, levels, files = table.T
    n = len(table)
    k, num_levels = config.num_caches, config.num_levels
    degrees = np.array([lv.access_degree for lv in config.levels])
    index = np.arange(n)
    index_bits = n.bit_length()

    # Cells: the demands in (trial, level, cache) order, each cell's in
    # demand order, so a demand's slot is its place in its cell's run.
    cells = (trial * num_levels + levels) * k + caches
    trials = int(trial[-1]) + 1 if n else 1
    by_cell = _sort_packed(cells, index, trials * num_levels * k, index_bits)
    order = by_cell & ((1 << index_bits) - 1)
    starts, width = _runs(by_cell >> index_bits)
    trial_level, cache = np.divmod(by_cell[starts] >> index_bits, k)
    level = trial_level % num_levels
    residue = cache % degrees[level]
    last_coded = np.array([k - d if k % d else k for d in degrees.tolist()])
    wraps = cache > last_coded[level]

    # Classes: a coded cell belongs to its (trial, level, residue) class,
    # and each edge cell is a class of its own, after all of those.  A
    # class is as wide as its widest cell, and the demand in slot s of
    # one of its cells gets the number offset + s, where the offset adds
    # up the widths of the classes before it.  So a coded demand's number
    # is its group, and the edge demands get the numbers past the last
    # group, one each, in cell order.
    cell_count = starts.size
    cell_bits = cell_count.bit_length()
    cell_ids = np.arange(cell_count)
    max_degree = int(degrees.max())
    edge_class = trials * num_levels * max_degree
    by_class = _sort_packed(
        np.where(wraps, edge_class + cell_ids, trial_level * max_degree + residue),
        cell_ids,
        edge_class + cell_count,
        cell_bits,
    )
    class_cells = by_class & ((1 << cell_bits) - 1)
    class_starts, class_sizes = _runs(by_class >> cell_bits)
    class_width = (
        np.maximum.reduceat(width[class_cells], class_starts) if class_starts.size else class_sizes
    )
    class_offset = np.cumsum(class_width) - class_width
    edge_cells = int(np.count_nonzero(wraps))
    coded_classes = class_starts.size - edge_cells
    groups = int(class_width[:coded_classes].sum())
    coded = n - int(class_width[coded_classes:].sum())
    numbers = np.empty(cell_count, dtype=np.int64)
    numbers[class_cells] = class_offset.repeat(class_sizes)
    numbers -= starts
    numbers = numbers.repeat(width) + index

    heads = class_cells[class_starts[:coded_classes]]
    keys = np.array([level[heads], residue[heads], -class_offset[:coded_classes]]).T.repeat(
        class_width[:coded_classes], axis=0
    )
    keys[:, 2] += index[:groups]

    # Distinct edge demands: the first of each (cell, file) key, by
    # position among the edge demands, which are listed cell by cell in
    # demand order.  A 1-D unique with return_index sorts stably.
    edges = np.empty(0, dtype=np.int64)
    if edge_cells:
        file_bits = int(files.max()).bit_length()
        if cell_count << file_bits > 2**63:
            raise ValueError("demand profile too large for 64-bit layout keys")
        edge_demands = order[wraps.repeat(width)]
        edge_keys = np.flatnonzero(wraps).repeat(width[wraps]) << file_bits | files[edge_demands]
        edges = np.sort(edge_demands[np.unique(edge_keys, return_index=True)[1]])
    return _Groups(order, numbers, keys, coded, edges)


MAX_GROUP = 64  # members per delivery group; one bit each in a uint64 signature


def _drawn_rows(
    placement: PlacementState,
    members_of: list[np.ndarray],
    group_levels: np.ndarray,
    edge_demands: np.ndarray,
) -> dict[tuple[int, int, int], np.ndarray]:
    """The placement rows delivery reads, keyed by (cache, level, file):
    each group's files at every cache in its members' windows, and each
    edge demand's file at every cache in its window.  The caches of one
    level whose subfiles have the same length draw their rows together,
    in one batched draw (see ``PlacementState._draw``); a level has at
    most two subfile lengths, one per color class.

    The rows drawn are all the bits that exist, so they carry the stored
    bits check: a cache whose drawn rows expect at least 1e4 stored bits
    and hold more than 1% + 5 sqrt(expected) away from it warns."""
    config, k = placement.config, placement.config.num_caches
    wanted: dict[tuple[int, int], set[int]] = defaultdict(set)
    for lvl_idx, members in zip(group_levels.tolist(), members_of):
        files = set(members[:, 2].tolist())
        for c in members[:, 0].tolist():
            for o in range(config.levels[lvl_idx].access_degree):
                wanted[((c + o) % k, lvl_idx)] |= files
    for cache, lvl_idx, file in edge_demands.tolist():
        for o in range(config.levels[lvl_idx].access_degree):
            wanted[((cache + o) % k, lvl_idx)].add(file)

    batches: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = defaultdict(list)
    expected_bits = [0.0] * k
    for (cache, lvl_idx), files in wanted.items():
        d = config.levels[lvl_idx].access_degree
        length = _subfile_length(placement.file_size_bits, d, cache % d)
        batches[(lvl_idx, length)].append((cache, np.array(sorted(files), dtype=np.int64)))
        expected_bits[cache] += placement.fractions[lvl_idx] * (len(files) * length)

    stored: dict[tuple[int, int, int], np.ndarray] = {}
    actual_bits = [0] * k
    for (lvl_idx, length), requests in batches.items():
        masks = placement._draw(lvl_idx, length, requests)
        start = 0
        for cache, files in requests:
            rows = masks[start : start + files.size]
            start += files.size
            stored.update(zip(((cache, lvl_idx, f) for f in files.tolist()), rows))
            actual_bits[cache] += int(np.count_nonzero(rows))
    for cache, (expected, actual) in enumerate(zip(expected_bits, actual_bits)):
        if expected >= 1e4:
            slack = 0.01 * expected + 5.0 * math.sqrt(expected)
            if abs(actual - expected) > slack:
                warnings.warn(
                    f"cache {cache}: stored {actual} bits vs expected {expected:.0f}",
                    ValidationWarning,
                )
    return stored


def _count_table(sigs: np.ndarray, which: np.ndarray) -> tuple[int, int, list[int]]:
    """Price one (group, color) subsystem of m members from a table of
    signature counts: ``counts[i, s]`` is the number of bits in row i of
    the signature matrix ``sigs`` that exactly the member caches in s
    store (bit j of s: the j-th member's cache).  Row ``which[j]`` holds
    the j-th member's file.

    Returns the bits cached nowhere (summed over distinct files), the
    total length of the XORs, and the bits each member lacks.  The table
    has 2^m columns per file, so it pays only while 2^m is at most the
    subfile length."""
    sets = np.arange(1 << which.size)
    counts = np.empty((len(sigs), sets.size), dtype=np.int64)
    for row, sig in zip(counts, sigs):
        row[:] = np.bincount(sig, minlength=sets.size)

    # seg[p, S] for p in S: member p's segment of the XOR for member set
    # S, the bits of p's file held by exactly the caches of S minus p.
    member_bit = 1 << np.arange(which.size)[:, None]
    seg = counts[which[:, None], sets ^ member_bit]
    seg[sets & member_bit == 0] = 0
    lacked = seg.sum(axis=1)
    seg[:, member_bit.ravel()] = 0  # S = {p}: the bits cached nowhere, sent in clear
    return int(counts[:, 0].sum()), int(seg.max(axis=0).sum()), lacked.tolist()


def _per_member(sigs: np.ndarray, which: np.ndarray) -> tuple[int, int, list[int]]:
    """:func:`_count_table`'s prices from one ``np.unique`` per member
    over the signatures that occur in its row of ``sigs``, for groups
    whose table would have more columns than the subfile has bits."""
    clear_bits = int(np.count_nonzero(sigs == 0))
    # Segment lengths keyed by the XOR's member set sig | {j}.
    keys, counts, lacked = [], [], []
    for j, row in enumerate(which.tolist()):
        sig, flag = sigs[row], sigs.dtype.type(1 << j)
        lacking = sig & flag == 0
        lacked.append(int(np.count_nonzero(lacking)))
        key, count = np.unique(sig[lacking & (sig != 0)] | flag, return_counts=True)
        keys.append(key)
        counts.append(count)
    xor_sets, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    longest = np.zeros(xor_sets.size, dtype=np.int64)
    np.maximum.at(longest, inverse, np.concatenate(counts))
    return clear_bits, int(longest.sum()), lacked


def deliver_bit_exact(placement: PlacementState, demands: Sequence[Demand]) -> DeliveryLog:
    """Run coded delivery for the given demand profile and check, per
    subsystem, that the broadcast can serve every member.

    Per (group, color) subsystem, every bit of a demanded subfile gets a
    signature: the set of participant caches that store it.  Bits cached
    nowhere (signature 0) are sent in clear once per distinct demanded
    file.  A bit that participant p wants and that exactly the caches in
    s hold (s non-empty, p not in s) rides in the XOR for s | {p}, which
    is as long as its longest segment.  So the number of bits of each
    file that carry each signature prices every transmission.  A group
    of m members fills one signature matrix per color, a row of m-bit
    signatures (smallest unsigned dtype) per distinct file; ``which[j]``
    is the j-th member's row.  With L-bit subfiles, ``_count_table``
    counts each row in 2^m columns when 2^m <= L, and otherwise
    ``_per_member`` runs one ``np.unique`` per member over the
    signatures that occur; both give the same prices.  A member can decode
    only if the subsystem's broadcast is at least as long as the bits it
    lacks, and no broadcast needs more than the sum of the members'
    lacked bits (unicasting everything); either violation raises
    ``DecodeError``.
    Only the placement rows that delivery reads are drawn, and they carry
    the stored-bits check (see ``_drawn_rows``).
    Groups of more than 64 members raise ``ValueError``, and so do
    demands that are not integer triples or that name a cache, level or
    file the config lacks.  Returns the broadcast size normalized by the
    file size.
    """
    config = placement.config
    k = config.num_caches
    f_bits = placement.file_size_bits
    table = _demand_table(config, demands)
    order, number, group_keys, coded, edges = _groups(config, table, np.zeros_like(table[:, 0]))
    # Each group's members in demand order; the edge demands sort last.
    index_bits = len(table).bit_length()
    by_group = _sort_packed(number, order, len(table), index_bits)[:coded]
    members = by_group & ((1 << index_bits) - 1)
    starts, sizes = _runs(by_group >> index_bits)
    largest = int(sizes.max(initial=0))
    if largest > MAX_GROUP:
        raise ValueError(
            f"a delivery group has {largest} members; at most {MAX_GROUP} fit a signature"
        )

    members_of = np.split(table[members], starts[1:])
    stored = _drawn_rows(placement, members_of, group_keys[:, 0], table[edges])

    total_bits = 0
    uncoded_bits = 0
    pair_bits: dict[tuple[int, tuple[int, int], int], int] = {}

    for (lvl_idx, residue, slot), members in zip(group_keys.tolist(), members_of):
        d = config.levels[lvl_idx].access_degree
        files, which = np.unique(members[:, 2], return_inverse=True)
        dtype = np.min_scalar_type((1 << len(members)) - 1)
        for color in range(d):
            caches_used = [(c + (color - c) % d) % k for c in members[:, 0].tolist()]
            if len(set(caches_used)) != len(caches_used):
                raise DecodeError("group members mapped to a shared cache")
            length = _subfile_length(f_bits, d, color)

            # sigs[i, b], bit j set: the j-th member's cache stores bit b of files[i].
            sigs = np.empty((files.size, length), dtype=dtype)
            tmp = np.empty(length, dtype=dtype)
            for sig, f in zip(sigs, files.tolist()):
                sig[:] = stored[(caches_used[0], lvl_idx, f)]
                for j, vc in enumerate(caches_used[1:], 1):
                    row = stored[(vc, lvl_idx, f)]
                    np.left_shift(row, j, out=tmp, dtype=dtype, casting="unsafe")
                    sig |= tmp
            price = _count_table if 1 << len(caches_used) <= length else _per_member
            clear_bits, coded_bits, lacked = price(sigs, which)
            bits_here = clear_bits + coded_bits
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
    for cache, lvl_idx, file in table[edges].tolist():
        d = config.levels[lvl_idx].access_degree
        cov = [np.zeros(_subfile_length(f_bits, d, color), dtype=bool) for color in range(d)]
        for c in ((cache + o) % k for o in range(d)):
            cov[c % d] |= stored[(c, lvl_idx, file)]
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


class _Prices:
    """Expected-size prices of one instance and allocation, built once
    per run and read by every block.

    ``loads[level, j]`` is the coded load of a level's group with j
    distinct files, for every j a group can reach: a group holds at most
    one member per cache of its residue class and at most the demands of
    one trial.  One array ``coded_load`` call prices them all.
    ``edge[level, w]`` holds the per-color terms of an edge demand at
    cache K - d + 1 + w, padded with zeros to the largest degree."""

    def __init__(self, config: SystemConfig, shares: Sequence[float], most: int) -> None:
        self.config = config
        k = config.num_caches
        mus = [
            min(1.0, lv.access_degree * shares[idx] / lv.n_files)
            for idx, lv in enumerate(config.levels)
        ]
        degrees = [lv.access_degree for lv in config.levels]
        span = max(min(most, -(-k // d)) for d in degrees) + 1
        self.loads = coded_load(np.repeat(mus, span), np.tile(np.arange(span), len(mus)))
        self.loads.shape = (len(mus), span)
        width = max(degrees)
        self.edge = np.zeros((len(mus), width, width))
        self.first_edge = np.array([k - d + 1 for d in degrees])
        for lvl_idx, d in enumerate(degrees):
            for w, cache in enumerate(range(k - d + 1, k) if k % d else ()):
                window = [(cache + o) % k for o in range(d)]
                self.edge[lvl_idx, w, :d] = [
                    (1.0 - mus[lvl_idx]) ** sum(1 for c in window if c % d == color) / d
                    for color in range(d)
                ]

    def rates(self, table: np.ndarray, trial: np.ndarray, trials: int) -> np.ndarray:
        """Expected-size rate of each of ``trials`` demand profiles laid
        out side by side, for a table and trial column as :func:`_groups`
        takes them (see :func:`expected_profile_rate`).

        Each trial's row holds each group's load in the column of the
        group's first demand, its member of least index, so the loads
        keep their order of first appearance.  Then come, per distinct
        edge demand in order of first appearance, its per-color terms.
        A row-wise ``cumsum`` adds them left to right, as a scalar loop
        would, and the zeros that pad the rows add nothing."""
        order, number, keys, coded, edges = _groups(self.config, table, trial)
        n, groups = len(table), len(keys)
        if coded < n:
            grouped = number < groups
            number, order = number[grouped], order[grouped]

        # Distinct files per group from one sort of (group, file) keys.
        files = table[order, 2]
        file_bits = int(files.max(initial=0)).bit_length()
        pairs = _sort_packed(number, files, groups, file_bits)
        distinct = np.bincount(pairs[_runs(pairs)[0]] >> file_bits, minlength=groups)
        first = np.full(groups, n)
        np.minimum.at(first, number, order)

        counts = np.bincount(trial, minlength=trials)
        start = np.cumsum(counts) - counts
        width = edge_width = int(counts.max(initial=0))
        depth = self.edge.shape[2]
        if edges.size:
            edge_trial = trial[edges]
            edge_counts = np.bincount(edge_trial, minlength=trials)
            edge_col = np.arange(edges.size) - (np.cumsum(edge_counts) - edge_counts)[edge_trial]
            edge_width += (int(edge_col.max()) + 1) * depth
        rows = np.zeros((trials, edge_width))
        group_trial = trial[first]
        rows[group_trial, first - start[group_trial]] = self.loads[keys[:, 0], distinct]
        if edges.size:
            cache, level = table[edges, 0], table[edges, 1]
            rows[edge_trial[:, None], width + edge_col[:, None] * depth + np.arange(depth)] = (
                self.edge[level, cache - self.first_edge[level]]
            )
        if rows.shape[1] == 0:
            return np.zeros(trials)
        return np.cumsum(rows, axis=1, out=rows)[:, -1]


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
    subfiles, in order of first appearance.  Shares that are not one
    non-negative number per level raise ``ValueError``; over-full ones clip.
    """
    _check_shares(config, shares)
    table = _demand_table(config, demands)
    zeros = np.zeros(len(table), dtype=np.int64)
    return float(_Prices(config, shares, len(table)).rates(table, zeros, 1)[0])


@dataclass(frozen=True)
class SimulationResult:
    rates: tuple[float, ...]
    theoretical: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.rates))


# Demands drawn and priced per block of stochastic trials (a trial with
# more users is a block of its own).  A block's scratch arrays take a few
# hundred bytes per demand; on the catalogue benchmark, blocks of 2^14
# demands raised peak memory and saved no time.  The bound also keeps
# the layout's packed sort keys far inside int64.
DEMAND_BLOCK = 1 << 13


class _TrialStreams:
    """The stochastic-profile streams of one run, in blocks of as many
    trials as fit ``DEMAND_BLOCK`` demands, and at least one: trial t
    reads a PCG64 seeded from ``SeedSequence(seed, spawn_key=(2, t))``.

    Before anything else, a bool or non-integer user count, trial count
    or seed, a negative user count or seed, or no trials raise
    :class:`ConfigError`.  Each trial's key is built from its number, not
    spawned, so every pass over :meth:`blocks` draws the same trials."""

    def __init__(self, seed: int, users: int, trials: int) -> None:
        for name, value in (("the user count", users), ("trials", trials), ("the seed", seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if trials < 1:
            raise ConfigError(f"trials must be at least 1, got {trials}")
        if users < 0:
            raise ConfigError(f"the user count must be non-negative, got {users}")
        if seed < 0:
            raise ConfigError(f"the seed must be non-negative, got {seed}")
        self.seed, self.users, self.trials = seed, users, trials
        self.per_block = min(trials, max(1, DEMAND_BLOCK // max(users, 1)))
        self.trial = np.repeat(np.arange(self.per_block), users)

    def blocks(
        self, num_caches: int | None
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray]]:
        """Per block, in trial order: its trial count, each demand's trial
        counted from the block's first, the users' cache indices (None
        when ``num_caches`` is None: the LFU baseline draws none) and their
        uniforms.  The arrays are allocated once per run and reused, so
        they hold until the next block."""
        users = self.users
        caches = None if num_caches is None else np.empty(self.trial.size, dtype=np.int64)
        uniforms = np.empty(self.trial.size)
        for start in range(0, self.trials, self.per_block):
            block = range(start, min(self.trials, start + self.per_block))
            for row, t in enumerate(block):
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(2, t)))
                )
                lo = row * users
                if caches is not None:
                    caches[lo : lo + users] = rng.integers(0, num_caches, users)
                rng.random(out=uniforms[lo : lo + users])
            size = len(block) * users
            drawn = None if caches is None else caches[:size]
            yield len(block), self.trial[:size], drawn, uniforms[:size]


class _RankTable:
    """Ranks of uniforms under a popularity distribution, equal to the
    ones ``Generator.choice(N, n, p=p)`` gives: ``choice`` draws
    ``rng.random(n)`` and returns ``cdf.searchsorted(u, side="right")``
    with ``cdf = p.cumsum(); cdf /= cdf[-1]``.

    A guide table of B = 2^b >= 4N buckets, ``guide[b]`` = the number of
    cdf entries <= b/B, narrows each search: u lies in bucket floor(u*B),
    so its rank lies in [guide[b], guide[b + 1]].  B is a power of two,
    so u*B and B*cdf are exact and the bucket is exactly right; a short
    bisection inside it finishes.  The table equals
    ``cdf.searchsorted(np.arange(B + 1) / B, side="right")``, counted in
    one pass: for an integer b, B*c <= b exactly when ceil(B*c) <= b."""

    def __init__(self, probabilities: np.ndarray) -> None:
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        buckets = 1 << (4 * cdf.size - 1).bit_length()
        self.cdf = cdf
        counts = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
        # Bucket b holds counts[b + 1] ranks past guide[b]; this many
        # halvings close the widest.
        self.steps = int(counts[1:].max()).bit_length()
        self.guide = np.cumsum(counts, out=counts)

    def __call__(self, uniforms: np.ndarray) -> np.ndarray:
        cell = (uniforms * (self.guide.size - 1)).astype(np.intp)
        lo, hi = self.guide[cell], self.guide[cell + 1]
        for _ in range(self.steps):
            mid = (lo + hi) >> 1
            right = (self.cdf[mid] <= uniforms) & (mid < hi)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return lo


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
    index is its offset in its block.  Each trial's realized profile is
    priced as :func:`expected_profile_rate` prices it, under the
    allocation chosen for ``config.memory``, in blocks of trials.  Known
    fault: after ``discretize`` warns that rounding reordered near-tied
    blocks, level order is not rank-block order and ranks land in the
    wrong blocks; the instance format does not record the blocks.
    """
    streams = _TrialStreams(seed, total_users, trials)
    level_of_rank = level_map_for_config(config, popularity.n_files)
    starts = np.cumsum([0] + [lv.n_files for lv in config.levels])[:-1]
    file_of_rank = np.arange(popularity.n_files) - starts[level_of_rank]

    result = pama_rate(config)
    prices = _Prices(config, result.allocation.shares, total_users)
    rank_of = _RankTable(popularity.probabilities)
    rates: list[float] = []
    for count, trial, caches, uniforms in streams.blocks(config.num_caches):
        ranks = rank_of(uniforms)
        demands = np.column_stack([caches, level_of_rank[ranks], file_of_rank[ranks]])
        rates += prices.rates(demands, trial, count).tolist()
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
    streams = _TrialStreams(seed, total_users, trials)
    cached = int(math.floor(_memory(memory)))
    n = popularity.n_files
    rank_of = _RankTable(popularity.probabilities)
    rates: list[float] = []
    for count, trial, _, uniforms in streams.blocks(None):
        ranks = rank_of(uniforms)
        # Distinct missed ranks per trial from one sort of trial-major
        # keys: np.unique takes a much slower hash path here.
        missed = np.sort((trial * n + ranks)[ranks >= cached])
        heads = missed[np.diff(missed, prepend=-1) != 0] // n
        rates += np.bincount(heads, minlength=count).astype(np.float64).tolist()
    return SimulationResult(rates=tuple(rates), theoretical=float("nan"))
