import hashlib
import math
import random
import tracemalloc
import warnings
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from codedcache import sim
from codedcache.model import ConfigError, ValidationWarning, make_config
from codedcache.pama import Allocation, pama_rate
from codedcache.popularity import (
    discretize,
    zipf_distribution,
    zipf_split_heuristic,
)
from codedcache.rate import coded_load, single_level_rate
from codedcache.sim import (
    DecodeError,
    deliver_bit_exact,
    expected_profile_rate,
    lfu_simulate,
    place,
    simulate_stochastic,
    worst_case_demands,
)


def test_coloring_six_caches_two_colors():
    # The cache of each color that a group member reads lies in its
    # access window, and no two members of a group share it.
    k, d = 6, 2
    for residue in range(d):
        for color in range(d):
            seen = set()
            for cache in range(residue, k, d):
                vc = (cache + (color - cache) % d) % k
                assert vc % d == color
                assert vc in {(cache + o) % k for o in range(d)}
                assert vc not in seen
                seen.add(vc)


def test_coloring_single_color():
    # d = 1: every user reads its own cache, and nobody wraps.
    k, d = 5, 1
    assert [(c + (0 - c) % d) % k for c in range(k)] == [0, 1, 2, 3, 4]
    cfg = make_config(k, 0.0, [(10, 1, d)])
    pl = place(cfg, Allocation(shares=(0.0,)), 256, seed=1)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log.uncoded_bits == 0
    assert list(log.pair_bits) == [(0, (0, 0), 0)]


def test_coloring_edge_cache_flagged():
    # K = 5, d = 2: only cache 4's window wraps, so only its users go
    # uncoded; with nothing cached they are sent the whole file.
    k, d = 5, 2
    assert [c for c in range(k) if k % d and c > k - d] == [4]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(k, 0.0, [(10, 1, d)])
    pl = place(cfg, Allocation(shares=(0.0,)), 256, seed=1)
    assert deliver_bit_exact(pl, [(4, 0, 1)]).uncoded_bits == 256
    assert deliver_bit_exact(pl, [(3, 0, 1)]).uncoded_bits == 0


def test_coloring_degree_exceeding_caches():
    with pytest.raises(ValueError):
        make_config(3, 1.0, [(8, 1, 4)])


def test_worst_case_demands_distinct_within_groups():
    cfg = make_config(6, 3.0, [(12, 2, 2)])
    demands = worst_case_demands(cfg)
    assert len(demands) == 6 * 2
    # group = (cache % d, slot); slots are assigned per cache in order
    groups = {}
    counters = {}
    for cache, lvl, file in demands:
        slot = counters.get((cache, lvl), 0)
        counters[(cache, lvl)] = slot + 1
        groups.setdefault((lvl, cache % 2, slot), []).append(file)
    for members in groups.values():
        assert len(members) == len(set(members))


def _rows(placement, cache, level, files):
    """The masks of ``files`` of ``level`` at ``cache``, from the batched
    draw delivery makes."""
    d = placement.config.levels[level].access_degree
    length = sim._subfile_length(placement.file_size_bits, d, cache % d)
    return placement._draw(level, length, [(cache, np.asarray(files, dtype=np.int64))])


def test_place_full_fraction_stores_everything():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(16.0,)), 256, seed=1)
    assert all(_rows(pl, c, 0, range(16)).all() for c in range(2))
    assert deliver_bit_exact(pl, worst_case_demands(cfg)).total_bits == 0


def test_place_zero_fraction_stores_nothing():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(0.0,)), 256, seed=1)
    assert not any(_rows(pl, c, 0, range(16)).any() for c in range(2))


def test_place_rejects_overfull_fraction():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    with pytest.raises(ValueError):
        place(cfg, Allocation(shares=(17.0,)), 256, seed=1)


@pytest.mark.parametrize(
    "shares, message",
    [
        ((-1.0,), "level 1: memory share -1.0 must be non-negative"),
        ((float("nan"),), "level 1: memory share nan must be non-negative"),
        ((), "need 1 memory shares, got 0"),
        ((1.0, 2.0), "need 1 memory shares, got 2"),
        ((True,), "level 1: memory share True must be a number"),
        (("2",), "level 1: memory share '2' must be a number"),
    ],
)
def test_shares_that_are_not_one_non_negative_number_per_level_are_refused(shares, message):
    # Unchecked, a NaN share is priced as full storage (rate 0 here), and
    # place caches nothing for it or for a negative share.
    cfg = make_config(4, 2.0, [(8, 1, 2)])
    demands = worst_case_demands(cfg)
    with pytest.raises(ValueError, match=message):
        expected_profile_rate(cfg, shares, demands)
    with pytest.raises(ValueError, match=message):
        place(cfg, Allocation(shares=shares), 64, seed=1)


def test_place_prints_an_overfull_fraction_in_full():
    # 2 * 4.00000001 / 8 would print as 1 under :g.
    cfg = make_config(4, 2.0, [(8, 1, 2)])
    with pytest.raises(ValueError, match=r"cached fraction 1\.0000000025 exceeds 1"):
        place(cfg, Allocation(shares=(4.00000001,)), 64, seed=1)


def test_place_rejects_tiny_files():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    with pytest.raises(ValueError):
        place(cfg, Allocation(shares=(8.0,)), 32, seed=1)


@pytest.mark.parametrize(
    "file_bits, seed, message",
    [
        (4096, True, "seed must be an integer"),
        (4096, np.True_, "seed must be an integer"),
        (4096, 1.5, "seed must be an integer"),
        (4096, 1.0, "seed must be an integer"),
        (4096, -1, "seed must be non-negative"),
        (4096.0, 1, "file_size_bits must be an integer"),
        (np.float64(4096), 1, "file_size_bits must be an integer"),
        (True, 1, "file_size_bits must be an integer"),
        ("4096", 1, "file_size_bits must be an integer"),
    ],
)
def test_place_refuses_bad_seed_and_file_size(file_bits, seed, message):
    # Refused up front: a bool seed is not read as 0 or 1, and a float
    # file size does not fail later inside delivery.
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    with pytest.raises(ValueError, match=message):
        place(cfg, Allocation(shares=(4.0,)), file_bits, seed)


def test_place_accepts_numpy_integers():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    allocation = Allocation(shares=(4.0,))
    pl = place(cfg, allocation, np.int64(4097), np.int64(3))
    assert pl == place(cfg, allocation, 4097, 3)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log == deliver_bit_exact(place(cfg, allocation, 4097, 3), worst_case_demands(cfg))


def test_stored_bits_match_memory_budget():
    # Expected per-cache footprint is share * F bits; at F = 2^14 the
    # realization stays within 1%.
    cfg = make_config(4, 6.0, [(16, 2, 2), (32, 1, 1)])
    res = pama_rate(cfg)
    f_bits = 2**14
    pl = place(cfg, res.allocation, f_bits, seed=17)
    expected = sum(res.allocation.shares) * f_bits
    for cache in range(4):
        actual = sum(
            int(_rows(pl, cache, lvl, range(lv.n_files)).sum())
            for lvl, lv in enumerate(cfg.levels)
        )
        assert actual == pytest.approx(expected, rel=0.01)


def test_part_sizes_concentrate():
    # Two caches at half memory: the four cached-by classes each hold
    # about a quarter of every file.
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(8.0,)), 100_000, seed=5)
    m0 = _rows(pl, 0, 0, [0])[0]
    m1 = _rows(pl, 1, 0, [0])[0]
    for part in (
        ~m0 & ~m1,
        m0 & ~m1,
        ~m0 & m1,
        m0 & m1,
    ):
        assert int(part.sum()) == pytest.approx(25_000, rel=0.03)


def test_two_cache_delivery_rate():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(8.0,)), 100_000, seed=7)
    log = deliver_bit_exact(pl, [(0, 0, 0), (1, 0, 1)])
    assert log.rate == pytest.approx(0.75, rel=0.03)
    assert log.decode_ok


def test_zero_fraction_rate_counts_distinct_subfiles():
    cfg = make_config(4, 0.0, [(8, 2, 1)])
    pl = place(cfg, Allocation(shares=(0.0,)), 4096, seed=2)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log.rate == pytest.approx(8.0, abs=1e-12)  # K*U distinct files
    # duplicated demands are served once
    dup = [(0, 0, 3), (1, 0, 3), (2, 0, 3)]
    assert deliver_bit_exact(pl, dup).rate == pytest.approx(1.0, abs=1e-12)


def test_missing_demand_is_an_error():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(8.0,)), 256, seed=1)
    with pytest.raises(ValueError):
        deliver_bit_exact(pl, [(0, 0, 99)])


def test_bit_exact_rejects_non_integral_demands():
    # A non-integral cache or file is refused, never rounded or used as
    # an index.
    cfg = make_config(4, 2.0, [(8, 1, 1)])
    pl = place(cfg, pama_rate(cfg).allocation, 256, seed=1)
    for demands in ([(0.5, 0, 1)], [(1, 0, 2.0)], [(0, 0, 1), (1, 0, 2.0)]):
        with pytest.raises(ValueError, match="integer triples"):
            deliver_bit_exact(pl, demands)


def test_boolean_demand_fields_are_refused():
    # np.asarray would read True as cache 1; both entry points refuse it.
    cfg = make_config(4, 2.0, [(8, 1, 1)])
    allocation = pama_rate(cfg).allocation
    pl = place(cfg, allocation, 256, seed=1)
    for demands in ([(True, 0, 1)], [(0, 0, 1), (1, np.False_, 2)], [(0, 0, True)]):
        with pytest.raises(ValueError, match="integer triples"):
            deliver_bit_exact(pl, demands)
        with pytest.raises(ValueError, match="integer triples"):
            expected_profile_rate(cfg, allocation.shares, demands)


@pytest.mark.parametrize(
    "demands, message",
    [
        ([(2**63, 0, 0)], "cache index 9223372036854775808 out of range"),
        ([(-(2**63) - 1, 0, 0)], "cache index -9223372036854775809 out of range"),
        ([(0, 0, 2**64)], "file 18446744073709551616 does not exist in level 1"),
        ([(9, 0, 0), (2**63, 0, 0)], "cache index 9 out of range"),
        ([(True, 0, 2**64)], "integer triples"),
        ([(0.5, 0, 2**64)], "integer triples"),
    ],
)
def test_list_demands_outside_int64_are_reported_as_passed(demands, message):
    # np.asarray makes these lists float64 or object arrays; an int field
    # is still reported as out of range, as the same uint64 array row is.
    cfg = make_config(4, 2.0, [(8, 1, 1)])
    with pytest.raises(ValueError, match=message):
        expected_profile_rate(cfg, [2.0], demands)
    with pytest.raises(ValueError, match=message):
        deliver_bit_exact(place(cfg, Allocation((2.0,)), 64, seed=1), demands)


def test_decode_fuzz_small_instances():
    rng = np.random.default_rng(123)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(50):
            k = int(rng.integers(2, 9))
            u = int(rng.integers(1, 3))
            d = int(rng.integers(1, min(2, k) + 1))
            n = k * u + int(rng.integers(0, 6))
            cfg = make_config(k, float(rng.uniform(0, n / d)), [(n, u, d)])
            share = min(cfg.memory, n / d)
            pl = place(cfg, Allocation(shares=(share,)), 2**12, seed=int(rng.integers(2**31)))
            count = int(rng.integers(1, k * u + 1))
            demands = [
                (int(rng.integers(0, k)), 0, int(rng.integers(0, n)))
                for _ in range(count)
            ]
            log = deliver_bit_exact(pl, demands)
            assert log.decode_ok


def test_decode_fuzz_large_instances():
    # K from 9 to 64, d from 1 to 4: worst-case groups of 3 to 63
    # members, wrap-around users where d does not divide K.  A failed
    # counting check raises DecodeError.
    rng = np.random.default_rng(328)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for it in range(10):
            k = int(rng.integers(9, 65))
            d = int(rng.integers(1, 5))
            n = k + int(rng.integers(0, 5))
            cfg = make_config(k, float(rng.uniform(0, n / d)), [(n, 1, d)])
            pl = place(cfg, Allocation(shares=(cfg.memory,)), 2**12, seed=it)
            if it % 2 == 0:
                demands = worst_case_demands(cfg)
            else:
                demands = [
                    (int(rng.integers(0, k)), 0, int(rng.integers(0, n)))
                    for _ in range(int(rng.integers(1, k + 1)))
                ]
            log = deliver_bit_exact(pl, demands)
            assert log.decode_ok
            assert log.rate <= len(demands)


def test_decode_with_wraparound_users():
    # 5 caches, degree 2: cache 4's users wrap and go uncoded.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(5, 4.0, [(10, 1, 2)])
    pl = place(cfg, Allocation(shares=(4.0,)), 2**12, seed=9)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log.decode_ok
    assert log.uncoded_bits > 0


def test_multi_level_delivery_decodes():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(4, 30.0, [(8, 2, 1), (64, 1, 2)])
    res = pama_rate(cfg)
    pl = place(cfg, res.allocation, 2**12, seed=4)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log.decode_ok


def test_empirical_rate_tracks_formula():
    cfg = make_config(6, 3.0, [(12, 2, 2)])
    pl = place(cfg, Allocation(shares=(3.0,)), 2**16, seed=3)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    formula = single_level_rate(3.0, 6, 12, 2, 2)
    assert log.rate == pytest.approx(formula, rel=0.05)


def test_placement_reproducible():
    cfg = make_config(4, 10.0, [(16, 1, 1)])
    a = place(cfg, Allocation(shares=(10.0,)), 4096, seed=42)
    b = place(cfg, Allocation(shares=(10.0,)), 4096, seed=42)
    for c in range(4):
        assert np.array_equal(_rows(a, c, 0, range(16)), _rows(b, c, 0, range(16)))
    log_a = deliver_bit_exact(a, worst_case_demands(cfg))
    log_b = deliver_bit_exact(b, worst_case_demands(cfg))
    assert log_a.total_bits == log_b.total_bits
    assert log_a.pair_bits == log_b.pair_bits


def _digits(mu):
    """The base-256 digits of mu in [0, 1), exactly, from its Fraction."""
    frac = Fraction(mu)
    digits = []
    while frac > 0:
        frac *= 256
        digits.append(math.floor(frac))
        frac -= digits[-1]
    return digits


def _reference_bits(bitgen, n, mu):
    """n placement bits, one at a time: bit p is 1 when the base-256
    number 0.b0 b1 ... read from the stream is below mu.  Round r draws
    one byte for every bit still tied with mu's first r digits, in
    position order, from whole 64-bit outputs read little-endian."""
    if mu >= 1:
        return np.ones(n, dtype=bool)
    bits = [False] * n
    tied = list(range(n))
    for digit in _digits(mu):
        if not tied:
            break
        raw = bitgen.random_raw(-(-len(tied) // 8))
        stream = b"".join(int(word).to_bytes(8, "little") for word in raw)
        still = []
        for pos, byte in zip(tied, stream):
            if byte < digit:
                bits[pos] = True
            elif byte == digit:
                still.append(pos)
        tied = still
    return np.array(bits, dtype=bool)


@pytest.mark.parametrize(
    "block",
    [
        131072,  # every row of a (cache, level) in one batch
        256,  # two rows per batch at d = 1, four at d = 2
        101,  # one row per batch, from here on
        37,
        1,
    ],
)
def test_placement_stream_pinned(monkeypatch, block):
    # F = 1001 gives subfiles of 1001 bits (d = 1) and of 501 and 500 bits
    # (d = 2, by color), 126 or 63 outputs of first bytes per row.  Row f
    # of (c, lvl) reads the (1, c, lvl) stream from output f * 2^64.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(3, 3.0, [(5, 1, 1), (6, 1, 2)])
    monkeypatch.setattr(sim, "DRAW_BLOCK", block)
    pcg64 = np.random.PCG64
    built = []

    def counting_pcg64(seed_seq):
        built.append(seed_seq.spawn_key)
        return pcg64(seed_seq)

    # 0.5 has one base-256 digit, so all its ties give 0; 1/3 and
    # 1 - 2^-53 have seven digits, 2^-60 has seven zero digits before its
    # last; 0 and 1 fill without reading the stream.
    for mus in [(1.0 / 5, 2.0 / 3), (0.5, 1.0 / 3), (2.0**-60, 1 - 2.0**-53), (0.0, 1.0)]:
        pl = place(cfg, Allocation(shares=(mus[0] * 5, mus[1] * 3)), 1001, seed=8)
        for c in range(3):
            for lvl, lv in enumerate(cfg.levels):
                built.clear()
                monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
                masks = _rows(pl, c, lvl, range(lv.n_files))
                monkeypatch.setattr(np.random, "PCG64", pcg64)
                assert built == [(1, c, lvl)]  # one stream per (cache, level), none per file
                length = 1001 if lvl == 0 else 501 - c % 2
                assert masks.shape == (lv.n_files, length)
                for f, row in enumerate(masks):
                    bitgen = pcg64(np.random.SeedSequence(8, spawn_key=(1, c, lvl)))
                    bitgen.advance(f << 64)
                    assert np.array_equal(row, _reference_bits(bitgen, length, mus[lvl]))


def test_placement_row_ignores_other_rows():
    # A row is the same drawn alone, in a shuffled subset or with every
    # file of its level.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(5, 7.0, [(40, 1, 1), (30, 2, 2)])
    pl = place(cfg, Allocation(shares=(3.1, 3.9)), 2000, seed=21)
    rng = np.random.default_rng(3)
    for c in range(5):
        for lvl, lv in enumerate(cfg.levels):
            every = _rows(pl, c, lvl, range(lv.n_files))
            subset = rng.permutation(lv.n_files)[: lv.n_files // 3]
            assert np.array_equal(_rows(pl, c, lvl, subset), every[subset])
            for f in subset[:3].tolist():
                assert np.array_equal(_rows(pl, c, lvl, [f])[0], every[f])


class _NarrowWindows:
    """A stand-in bit generator whose every byte is drawn from {d - 1, d,
    d + 1} over mu's base-256 digits d, so that ties stay open for many
    rounds.  Output p of its 128-bit counter is a hash of p alone, and
    ``state`` and ``advance`` move the counter as PCG64's do, so windows
    can be read in any order."""

    def __init__(self, mu):
        near = {x for d in _digits(mu % 1) for x in (d - 1, d, d + 1)}
        self.alphabet = sorted(near & set(range(256)))
        self.state = 0

    def advance(self, delta):
        self.state = (self.state + delta) % 2**128

    def random_raw(self, size):
        words = [
            int.from_bytes(bytes(random.Random(p).choices(self.alphabet, k=8)), "little")
            for p in range(self.state, self.state + size)
        ]
        self.advance(size)
        return np.array(words, dtype=np.uint64)


@pytest.mark.parametrize("mu", [1.0 / 3, 0.5, 1 - 2.0**-53, 2.0**-60, 3.0 / 256, 0.3712345])
def test_bernoulli_windows_match_reference_through_tie_rounds(mu):
    # A third of the bytes tie, so the tie rounds outrun the margin of
    # the first draw and rows draw more from their windows.
    windows = [5, 0, 2**40, 3, 1]
    masks = np.empty((len(windows), 300), dtype=bool)
    stream = _NarrowWindows(mu)
    sim._bernoulli_bits(masks, mu, [stream] * len(windows), windows)
    assert stream.state == 0
    for row, window in zip(masks, windows):
        reference = _NarrowWindows(mu)
        reference.advance(window << 64)
        assert np.array_equal(row, _reference_bits(reference, row.size, mu))


@pytest.mark.parametrize("mu", [1.0 / 3, 0.5, 0.7, 0.3712345])
def test_bernoulli_batch_reads_each_rows_own_stream(mu):
    # Three streams started far apart, their rows interleaved, and a
    # third of the bytes tie, so rows of every stream draw past the
    # margin.  Each row is its own stream's window, and every stream is
    # left as it was.
    starts = [0, 7 << 90, (1 << 127) + 5]
    streams = [_NarrowWindows(mu) for _ in starts]
    for stream, start in zip(streams, starts):
        stream.state = start
    picks = [(0, 5), (1, 0), (0, 2**40), (2, 3), (1, 1), (0, 1), (2, 0), (1, 2**40)]
    masks = np.empty((len(picks), 300), dtype=bool)
    sim._bernoulli_bits(masks, mu, [streams[s] for s, _ in picks], [w for _, w in picks])
    assert [stream.state for stream in streams] == starts
    for row, (s, window) in zip(masks, picks):
        reference = _NarrowWindows(mu)
        reference.state = starts[s]
        reference.advance(window << 64)
        assert np.array_equal(row, _reference_bits(reference, row.size, mu))


def test_delivery_draws_one_batch_per_level_and_subfile_length(monkeypatch):
    # Level 1 has one subfile length and level 2, at d = 2 and odd F, two:
    # three batches in all, one PCG64 per (cache, level) read.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(11, 30.0, [(132, 1, 1), (264, 2, 2)])
    pl = place(cfg, pama_rate(cfg).allocation, 1001, seed=6)
    pcg64 = np.random.PCG64
    unbatched = sim._bernoulli_bits
    built, draws = [], []

    def counting_pcg64(seed_seq):
        built.append(seed_seq.spawn_key)
        return pcg64(seed_seq)

    def counting_bits(masks, mu, bitgens, windows):
        draws.append((mu, masks.shape[1]))
        unbatched(masks, mu, bitgens, windows)

    monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
    monkeypatch.setattr(sim, "_bernoulli_bits", counting_bits)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log.decode_ok
    assert sorted(built) == sorted(set(built))
    assert set(built) == {(1, c, lvl) for c in range(11) for lvl in range(2)}
    assert len(draws) == len(set(draws)) <= 3
    assert {length for _, length in draws} == {1001, 501, 500}


@pytest.mark.parametrize("window", [1, 5, 1 << 16])
@pytest.mark.parametrize(
    "mu", [1.0 / 3, 0.5, 1 - 2.0**-53, 2.0**-60, 3.0 / 256, 0.3712345, 0.0, 1.0]
)
def test_bernoulli_bits_match_reference_through_tie_rounds(window, mu):
    # One long row, so some ties outlast the last digit.
    masks = np.empty((1, 65539), dtype=bool)
    sim._bernoulli_bits(masks, mu, [_NarrowWindows(mu)], [window])
    reference = _NarrowWindows(mu)
    reference.advance(window << 64)
    assert np.array_equal(masks[0], _reference_bits(reference, masks.shape[1], mu))


@pytest.mark.parametrize("mu", [0.5, 1.0 / 3, 0.3712345, 3.0 / 256, 0.999])
def test_bernoulli_bits_mean(mu):
    n = 1 << 24
    masks = np.empty((1, n), dtype=bool)
    sim._bernoulli_bits(masks, mu, [np.random.PCG64(5)], [0])
    ones = int(np.count_nonzero(masks))
    assert abs(ones - mu * n) <= 5 * math.sqrt(n * mu * (1 - mu))


def test_place_scratch_memory_is_bounded():
    # The K/d = 11 shape of the bit-exact benchmark: 45 MiB of masks if
    # every row were drawn.  Delivery draws only the rows it reads.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(11, 30.0, [(132, 1, 1), (264, 2, 2)])
    allocation = pama_rate(cfg).allocation
    tracemalloc.start()
    try:
        pl = place(cfg, allocation, 2**14, seed=3)
        log = deliver_bit_exact(pl, worst_case_demands(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.decode_ok
    assert peak <= 8 * 2**20


def test_stored_bits_check_reads_the_drawn_rows(monkeypatch):
    # Bits drawn at 1.5 mu are far more than the expected share of the
    # drawn rows, so delivery warns for every cache.
    cfg = make_config(4, 4.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(4.0,)), 2**14, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deliver_bit_exact(pl, worst_case_demands(cfg))
    unbiased = sim._bernoulli_bits

    def biased(masks, mu, bitgen, windows):
        unbiased(masks, 1.5 * mu, bitgen, windows)

    monkeypatch.setattr(sim, "_bernoulli_bits", biased)
    with pytest.warns(ValidationWarning, match="stored") as caught:
        deliver_bit_exact(pl, worst_case_demands(cfg))
    assert [str(w.message).split(":")[0] for w in caught] == [f"cache {c}" for c in range(4)]


def test_expected_profile_matches_closed_form_exactly():
    cfg = make_config(6, 40.0, [(100, 2, 2), (200, 1, 1)])
    res = pama_rate(cfg)
    rate = expected_profile_rate(cfg, res.allocation.shares, worst_case_demands(cfg))
    assert abs(rate - res.exact.total) <= 1e-12


def _per_demand_rate(config, shares, demands):
    """Reference expected-size pricing, one demand at a time: groups keyed
    by (level, cache mod d, slot), then the distinct edge demands, each
    in first-appearance order."""
    k = config.num_caches
    mus = [
        min(1.0, lv.access_degree * shares[i] / lv.n_files)
        for i, lv in enumerate(config.levels)
    ]
    group_files, edge_demands, slots = defaultdict(set), [], Counter()
    for cache, lvl, file in demands:
        d = config.levels[lvl].access_degree
        slot = slots[(cache, lvl)]
        slots[(cache, lvl)] += 1
        if k % d != 0 and cache > k - d:
            edge_demands.append((cache, lvl, file))
        else:
            group_files[(lvl, cache % d, slot)].add(file)
    load = 0.0
    for (lvl, _, _), files in group_files.items():
        load += coded_load(mus[lvl], len(files))
    for cache, lvl, _ in dict.fromkeys(edge_demands):
        d = config.levels[lvl].access_degree
        window = [(cache + o) % k for o in range(d)]
        for color in range(d):
            load += (1.0 - mus[lvl]) ** sum(1 for c in window if c % d == color) / d
    return load


def test_expected_profile_matches_per_demand_reference():
    rng = np.random.default_rng(606)
    edge_instances = repeated_instances = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(240):
            k = int(rng.integers(2, 10))
            levels = []
            for _ in range(int(rng.integers(1, 4))):
                u, d = int(rng.integers(1, 4)), int(rng.integers(1, min(5, k) + 1))
                levels.append((k * u + int(rng.integers(0, 6)), u, d))
            cfg = make_config(k, 0.0, levels)
            # Cached fractions from 0 through past 1 (clipped to 1).
            shares = [
                float(rng.choice([0.0, rng.uniform(0, 1.2 * lv.n_files / lv.access_degree)]))
                for lv in cfg.levels
            ]
            demands = []
            count = 0 if trial % 20 == 0 else int(rng.integers(1, 4 * k * cfg.num_levels))
            few_files = trial % 3 == 0  # forces repeated files within groups
            for _ in range(count):
                lvl = int(rng.integers(0, cfg.num_levels))
                n = cfg.levels[lvl].n_files
                file = int(rng.integers(0, 2 if few_files else n))
                demands.append((int(rng.integers(0, k)), lvl, file))
            reference = _per_demand_rate(cfg, shares, demands)
            assert expected_profile_rate(cfg, shares, demands) == reference
            table = np.array(demands, dtype=np.int64).reshape(-1, 3)
            assert expected_profile_rate(cfg, shares, table) == reference
            edge_instances += any(
                k % cfg.levels[lvl].access_degree and c > k - cfg.levels[lvl].access_degree
                for c, lvl, _ in demands
            )
            repeated_instances += few_files and count > k
    assert edge_instances >= 40 and repeated_instances >= 40


def test_trial_blocks_match_per_demand_reference():
    # Blocks of 1 to 5 trials priced at once: each trial's rate must equal
    # the one-demand-at-a-time reference bit for bit, whatever the other
    # trials of its block hold.
    rng = np.random.default_rng(2323)
    edge_blocks = repeated_blocks = empty_trials = empty_blocks = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for block in range(300):
            k = int(rng.integers(2, 10))
            levels = []
            for _ in range(int(rng.integers(1, 4))):
                u, d = int(rng.integers(1, 4)), int(rng.integers(1, min(5, k) + 1))
                levels.append((k * u + int(rng.integers(0, 6)), u, d))
            cfg = make_config(k, 0.0, levels)
            shares = [
                float(rng.choice([0.0, rng.uniform(0, 1.2 * lv.n_files / lv.access_degree)]))
                for lv in cfg.levels
            ]
            trials = int(rng.integers(1, 6))
            few_files = block % 3 == 0  # forces repeated files within groups
            profiles = []
            for _ in range(trials):
                count = 0 if rng.random() < 0.15 else int(rng.integers(1, 4 * k * cfg.num_levels))
                profile = []
                for _ in range(count):
                    lvl = int(rng.integers(0, cfg.num_levels))
                    file = int(rng.integers(0, 2 if few_files else cfg.levels[lvl].n_files))
                    profile.append((int(rng.integers(0, k)), lvl, file))
                profiles.append(profile)
            table = np.array([dm for p in profiles for dm in p], dtype=np.int64).reshape(-1, 3)
            trial = np.repeat(np.arange(trials), [len(p) for p in profiles])
            rates = sim._Prices(cfg, shares, len(table)).rates(table, trial, trials)
            assert rates.tolist() == [_per_demand_rate(cfg, shares, p) for p in profiles]
            edge_blocks += any(
                k % cfg.levels[lvl].access_degree and c > k - cfg.levels[lvl].access_degree
                for c, lvl, _ in table.tolist()
            )
            repeated_blocks += few_files and len(table) > k
            empty_trials += sum(not p for p in profiles)
            empty_blocks += len(table) == 0
    assert edge_blocks >= 80 and repeated_blocks >= 40
    assert empty_trials >= 40 and empty_blocks >= 3


# K = 5 and d = 2: level-1 users at cache 4 are edge users.
EDGE_CONFIG_ARGS = (5, 14.0, [(20, 2, 2), (40, 1, 1)])


@pytest.mark.parametrize(
    "profiles",
    [
        # Only edge demands: the block has no coded group at all.
        [[(4, 0, 1), (4, 0, 3), (4, 0, 1)], [(4, 0, 2)], [(4, 0, 5), (4, 0, 5), (4, 0, 0)]],
        # An empty trial between full ones.
        [[(0, 0, 1), (1, 1, 3), (4, 0, 2)], [], [(2, 0, 1), (3, 1, 0), (4, 0, 2), (0, 1, 7)]],
        # One user per trial, edge users among them.
        [[(c, lvl, f)] for c, lvl, f in [(0, 0, 3), (4, 0, 3), (2, 1, 39), (4, 1, 0), (4, 0, 19)]],
    ],
    ids=["edge-only", "empty-between", "one-user"],
)
def test_trial_block_corner_cases_match_per_demand_reference(profiles):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(*EDGE_CONFIG_ARGS)
    shares = pama_rate(cfg).allocation.shares
    table = np.array([dm for p in profiles for dm in p], dtype=np.int64)
    trial = np.repeat(np.arange(len(profiles)), [len(p) for p in profiles])
    rates = sim._Prices(cfg, shares, len(table)).rates(table, trial, len(profiles))
    assert rates.tolist() == [_per_demand_rate(cfg, shares, p) for p in profiles]


def test_block_without_edge_demands_makes_three_sorts(monkeypatch):
    # Two sorts of the demands, by (trial, level, cache, index) and by
    # (group, file), and one of the cells by class; no np.unique.
    cfg = make_config(6, 30.0, [(60, 2, 2), (120, 1, 3)])
    shares = pama_rate(cfg).allocation.shares
    rng = np.random.default_rng(31)
    levels = rng.integers(0, 2, 800)
    demands = np.column_stack(
        [rng.integers(0, 6, 800), levels, rng.integers(0, np.where(levels, 120, 60))]
    )
    trial = np.repeat(np.arange(5), 160)
    sorts, uniques = [], []
    sort_packed, unique = sim._sort_packed, np.unique

    def counting_sort(high, low, high_bound, low_bits):
        sorts.append(high.size)
        return sort_packed(high, low, high_bound, low_bits)

    def counting_unique(*args, **kwargs):
        uniques.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(sim, "_sort_packed", counting_sort)
    monkeypatch.setattr(np, "unique", counting_unique)
    rates = sim._Prices(cfg, shares, len(demands)).rates(demands, trial, 5)
    monkeypatch.undo()
    assert len(sorts) <= 3 and sorted(sorts)[-2:] == [800, 800]
    assert uniques == []
    profiles = [demands[trial == t].tolist() for t in range(5)]
    assert rates.tolist() == [_per_demand_rate(cfg, shares, p) for p in profiles]


def test_stochastic_run_prices_once(monkeypatch):
    # Four blocks of two trials (one of one), one coded_load table.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(*EDGE_CONFIG_ARGS)
    dist = zipf_distribution(0.8, 60)
    load = sim.coded_load
    tables = []

    def counting_load(mu, k):
        if type(mu) is np.ndarray:
            tables.append(mu.size)
        return load(mu, k)

    monkeypatch.setattr(sim, "coded_load", counting_load)
    monkeypatch.setattr(sim, "DEMAND_BLOCK", 60)
    res = simulate_stochastic(cfg, dist, 30, 7, seed=7)
    assert len(tables) == 1
    monkeypatch.undo()
    assert res.rates == _per_trial_rates(cfg, dist, 30, 7, 7)


def test_demands_are_checked_once_where_they_enter(monkeypatch):
    # The public entry points check their demands once each; the
    # stochastic run draws its demands in range and checks none, however
    # many blocks it lays out.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(*EDGE_CONFIG_ARGS)
    allocation = pama_rate(cfg).allocation
    checked, layouts = [], []
    demand_table, groups = sim._demand_table, sim._groups

    def counting_table(config, demands):
        checked.append(len(demands))
        return demand_table(config, demands)

    def counting_groups(config, table, trial):
        layouts.append(len(table))
        return groups(config, table, trial)

    monkeypatch.setattr(sim, "_demand_table", counting_table)
    monkeypatch.setattr(sim, "_groups", counting_groups)
    monkeypatch.setattr(sim, "DEMAND_BLOCK", 60)
    simulate_stochastic(cfg, zipf_distribution(0.8, 60), 30, 7, seed=7)
    assert checked == [] and layouts == [60, 60, 60, 30]
    demands = worst_case_demands(cfg)
    expected_profile_rate(cfg, allocation.shares, demands)
    assert checked == [15]
    deliver_bit_exact(place(cfg, allocation, 256, seed=1), demands)
    assert checked == [15, 15] and layouts[4:] == [15, 15]


def _exact_stochastic_moments(cfg, dist, users, cuts):
    """Exact mean and variance of ``simulate_stochastic``'s per-trial
    rate: every (cache, rank) profile of ``users`` users, with its
    probability, priced through ``_Prices.rates`` with a trial column.
    ``cuts`` ends the popularity's rank blocks; block i is level i, and a
    rank's file is its offset in its block."""
    k, n = cfg.num_caches, dist.n_files
    level = np.searchsorted(cuts, np.arange(n), side="right")
    file = np.arange(n) - np.concatenate([[0], cuts])[level]
    cache, rank = np.divmod(np.indices((k * n,) * users).reshape(users, -1).T, n)
    prob = np.prod(dist.probabilities[rank] / k, axis=1)
    prices = sim._Prices(cfg, pama_rate(cfg).allocation.shares, users)
    rates = []
    # Blocks of 2^14 profiles keep the layout's scratch near 15 MiB.
    for lo in range(0, len(prob), 2**14):
        c, r = cache[lo : lo + 2**14], rank[lo : lo + 2**14]
        table = np.column_stack([c.ravel(), level[r].ravel(), file[r].ravel()])
        rates.append(prices.rates(table, np.repeat(np.arange(len(c)), users), len(c)))
    rates = np.concatenate(rates)
    mean = float(prob @ rates)
    return mean, float(prob @ (rates - mean) ** 2)


@pytest.mark.parametrize("levels", [[(3, 1, 1), (4, 1, 3)], [(3, 1, 1), (4, 1, 2)]])
def test_simulate_stochastic_matches_exact_expectation(levels):
    # 21^4 = 194,481 profiles of 4 users at 3 caches over 7 Zipf files;
    # the second instance has d = 2 at K = 3, so cache 2 serves edge users.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(3, 2.0, levels)
    dist = zipf_distribution(0.8, 7)
    mean, var = _exact_stochastic_moments(cfg, dist, 4, [3])
    trials = 20000
    res = simulate_stochastic(cfg, dist, 4, trials, seed=12)
    assert abs(res.mean - mean) <= 5 * math.sqrt(var / trials)


def test_lfu_simulate_matches_exact_expectation():
    # 9^5 = 59,049 rank profiles of 5 users; M = 3.5 caches ranks 0-2, and
    # a profile's rate is its number of distinct ranks past them.
    dist = zipf_distribution(0.8, 9)
    ranks = np.indices((9,) * 5).reshape(5, -1).T
    prob = np.prod(dist.probabilities[ranks], axis=1)
    requested = np.zeros((len(ranks), 9), dtype=bool)
    requested[np.arange(len(ranks))[:, None], ranks] = True
    rates = requested[:, 3:].sum(axis=1)
    mean = float(prob @ rates)
    var = float(prob @ (rates - mean) ** 2)
    trials = 20000
    res = lfu_simulate(dist, 3.5, 5, trials, seed=12)
    assert abs(res.mean - mean) <= 5 * math.sqrt(var / trials)


def test_stochastic_runs_seed_each_trial_from_its_own_key(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(*EDGE_CONFIG_ARGS)
    dist = zipf_distribution(0.8, 60)
    seed_sequence = np.random.SeedSequence
    keys = []

    def recording_seed_sequence(*args, **kwargs):
        keys.append((args, kwargs.get("spawn_key")))
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recording_seed_sequence)
    monkeypatch.setattr(sim, "DEMAND_BLOCK", 90)
    res = simulate_stochastic(cfg, dist, 30, 40, seed=3)
    lfu = lfu_simulate(dist, cfg.memory, 30, 40, seed=3)
    assert keys == [((3,), (2, t)) for t in range(40)] * 2
    monkeypatch.undo()
    assert res.rates == _per_trial_rates(cfg, dist, 30, 40, 3)
    assert lfu.rates == _per_trial_lfu(dist, cfg.memory, 30, 40, 3)


@pytest.mark.parametrize("users", [0, 1, sim.DEMAND_BLOCK - 1, sim.DEMAND_BLOCK + 1])
def test_trial_streams_cut_a_run_into_blocks(users):
    # Blocks cover the trials in order, each with at least one trial and
    # at most DEMAND_BLOCK demands unless one trial alone exceeds it, and
    # each trial draws what its own SeedSequence stream draws.
    per_block = max(1, sim.DEMAND_BLOCK // max(users, 1))
    for trials in sorted({1, 3, per_block + 2}):
        for num_caches in (5, None):
            drawn = []
            streams = sim._TrialStreams(9, users, trials)
            for count, trial, caches, uniforms in streams.blocks(num_caches):
                assert count >= 1 and (count * users <= sim.DEMAND_BLOCK or count == 1)
                assert np.array_equal(trial, np.repeat(np.arange(count), users))
                assert (caches is None) == (num_caches is None)
                for row in range(count):
                    part = slice(row * users, (row + 1) * users)
                    kept = None if caches is None else caches[part].tolist()
                    drawn.append((kept, uniforms[part].tolist()))
            assert len(drawn) == trials
            for t, (caches, uniforms) in enumerate(drawn):
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(9, spawn_key=(2, t)))
                )
                if num_caches is not None:
                    assert caches == rng.integers(0, num_caches, users).tolist()
                assert uniforms == rng.random(users).tolist()


def test_sparse_key_space_scratch_memory_is_bounded():
    # 2048 one-user trials in one block on K = 4096 caches: a table
    # indexed by (trial, cache, level) would take 2048 * 4096 * 2 int64
    # entries (134 MB); the layout counts only the cells that occur.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(4096, 2000.0, [(4096, 1, 1), (8192, 1, 3)])
    dist = zipf_distribution(0.8, 12288)
    tracemalloc.start()
    try:
        simulate_stochastic(cfg, dist, 1, 2048, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_layout_keys_that_could_leave_int64_are_refused():
    # Packed sort keys of (cell, index) need about log2(K) + log2(n) bits.
    cfg = make_config(2**61, 0.0, [(2**61, 1, 1)])
    assert expected_profile_rate(cfg, [0.0], [(2**61 - 1, 0, 0), (0, 0, 1)]) == 2.0
    with pytest.raises(ValueError, match="too large for 64-bit layout keys"):
        expected_profile_rate(cfg, [0.0], [(2**61 - 1, 0, f) for f in range(4)])
    # Edge keys of (cell, file) need about log2(cells) + log2(N) bits; at
    # K = 3 and d = 2 cache 2's users are edge users.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        cfg = make_config(3, 0.0, [(4, 1, 1), (2**62, 1, 2)])
    demands = [(0, 1, 0), (2, 1, 2**62 - 1)]
    assert expected_profile_rate(cfg, [0.0, 0.0], demands) == 2.0
    with pytest.raises(ValueError, match="too large for 64-bit layout keys"):
        expected_profile_rate(cfg, [0.0, 0.0], [*demands, (1, 0, 0)])


def test_expected_profile_ignores_file_labels():
    # Relabelling the files of a level changes no group, no distinct-file
    # count and no first appearance, so it must not change the rate.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(5, 6.0, [(20, 2, 2), (40, 1, 2)])
    shares = pama_rate(cfg).allocation.shares
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        levels = rng.integers(0, 2, n)
        demands = np.column_stack(
            [rng.integers(0, 5, n), levels, rng.integers(0, np.where(levels, 40, 20))]
        )
        relabelled = demands.copy()
        for lvl, lv in enumerate(cfg.levels):
            rows = levels == lvl
            relabelled[rows, 2] = rng.permutation(lv.n_files)[demands[rows, 2]]
        assert expected_profile_rate(cfg, shares, relabelled) == expected_profile_rate(
            cfg, shares, demands
        )


def test_simulate_stochastic_rates_pinned():
    # Edge users on level 1 (d=2 does not divide K=5), coded groups on
    # both levels, cached fractions 0.7 and 0.175.  The floats pin the
    # order in which group and edge loads are summed.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(5, 14.0, [(20, 2, 2), (40, 1, 1)])
    dist = zipf_distribution(0.8, 60)
    res = simulate_stochastic(cfg, dist, 30, 6, seed=7)
    assert res.rates == (
        12.398156640625004,
        12.928156640625,
        10.427572587890623,
        11.504713212890627,
        12.068156640625,
        12.699672265625003,
    )
    assert res.theoretical == 4.542352536161257


@pytest.mark.parametrize(
    "demand, message",
    [
        ((-1, 0, 0), "cache index -1 out of range"),
        ((9, 0, 0), "cache index 9 out of range"),
        ((0, 0, 99), "file 99 does not exist in level 1"),
        ((0, -1, 0), "level index -1 out of range"),
    ],
)
def test_expected_profile_rejects_out_of_range_demands(demand, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(4, 2.0, [(8, 1, 1), (16, 1, 2)])
    shares = pama_rate(cfg).allocation.shares
    for demands in ([demand], [(0, 0, 1), demand], np.array([(0, 0, 1), demand])):
        with pytest.raises(ValueError, match=message):
            expected_profile_rate(cfg, shares, demands)


@pytest.mark.parametrize(
    "row, message",
    [
        ([2**64 - 1, 0, 0], "cache index 18446744073709551615 out of range"),
        ([0, 2**64 - 1, 0], "level index 18446744073709551615 out of range"),
        ([0, 0, 2**64 - 1], "file 18446744073709551615 does not exist in level 1"),
    ],
)
def test_uint64_demands_are_reported_as_passed(row, message):
    # Checked before the int64 cast, which would wrap 2^64 - 1 to -1.
    cfg = make_config(4, 2.0, [(8, 1, 1)])
    demands = np.array([row], dtype=np.uint64)
    with pytest.raises(ValueError, match=message):
        expected_profile_rate(cfg, [2.0], demands)
    with pytest.raises(ValueError, match=message):
        deliver_bit_exact(place(cfg, Allocation((2.0,)), 64, seed=1), demands)


def test_simulate_stochastic_reproducible_and_bounded():
    dist = zipf_distribution(0.6, 500)
    split = zipf_split_heuristic(0.6, 500, 5, 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = discretize(dist, split, 5, 50, (1, 1), 50.0)
    a = simulate_stochastic(cfg, dist, 50, 10, seed=11)
    b = simulate_stochastic(cfg, dist, 50, 10, seed=11)
    assert a.rates == b.rates
    assert a.theoretical == b.theoretical
    c = simulate_stochastic(cfg, dist, 50, 10, seed=12)
    assert a.rates != c.rates


def test_simulate_zero_memory_bounded_by_population():
    dist = zipf_distribution(0.6, 500)
    split = zipf_split_heuristic(0.6, 500, 5, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = discretize(dist, split, 5, 50, (1, 1), 0.0)
    res = simulate_stochastic(cfg, dist, 50, 20, seed=1)
    assert res.mean <= 50.0  # at most one file per user


def test_simulate_catalogue_must_match_levels():
    two_levels = make_config(5, 10.0, [(100, 5, 1), (400, 5, 1)])
    for n_files in (499, 501):
        with pytest.raises(ConfigError, match="config levels cover 500 files"):
            simulate_stochastic(two_levels, zipf_distribution(0.6, n_files), 50, 5, seed=1)


def test_lfu_simulate_endpoints():
    dist = zipf_distribution(0.6, 200)
    everything = lfu_simulate(dist, 200.0, 50, 10, seed=5)
    assert everything.mean == 0.0
    nothing = lfu_simulate(dist, 0.0, 50, 10, seed=5)
    assert 0 < nothing.mean <= 50.0


def test_lfu_simulate_reproducible():
    dist = zipf_distribution(0.6, 200)
    a = lfu_simulate(dist, 20.0, 50, 10, seed=5)
    b = lfu_simulate(dist, 20.0, 50, 10, seed=5)
    assert a.rates == b.rates


def test_lfu_simulate_rates_pinned():
    # Distinct-file counts from the earlier np.unique implementation.
    dist = zipf_distribution(0.8, 2000)
    assert lfu_simulate(dist, 50.0, 300, 6, seed=3).rates == (
        183.0, 181.0, 186.0, 177.0, 175.0, 172.0
    )
    assert lfu_simulate(dist, 50.0, 300, 6, seed=11).rates == (
        175.0, 173.0, 179.0, 176.0, 176.0, 171.0
    )


@pytest.mark.parametrize(
    "probabilities",
    [
        zipf_distribution(0.6, 3000).probabilities,
        zipf_distribution(1.2, 3000).probabilities,
        np.array([1.0]),
        np.array([0.5, 0.25, 0.0, 0.0, 0.25, 0.0]),
        np.array([0.0, 0.0, 0.5, 0.5]),
        np.array([0.25, 0.25, 0.5, 0.0, 0.0]),
    ],
    ids=["zipf0.6", "zipf1.2", "one-file", "inner-zeros", "leading-zeros", "trailing-zeros"],
)
def test_rank_table_matches_generator_choice(probabilities):
    # The same stream gives the same ranks: choice draws one uniform per
    # rank, and the table reads those uniforms.
    rank_of = sim._RankTable(probabilities)
    for seed in range(5):
        uniforms = np.random.default_rng(seed).random(20_000)
        chosen = np.random.default_rng(seed).choice(probabilities.size, 20_000, p=probabilities)
        assert np.array_equal(rank_of(uniforms), chosen)
    # Uniforms on and beside every bucket edge and every cdf entry.
    buckets = rank_of.guide.size - 1
    edges = np.arange(buckets) / buckets
    cdf = probabilities.cumsum() / probabilities.sum()
    points = np.concatenate([edges, np.nextafter(edges, 1.0), cdf, np.nextafter(cdf, 0.0)])
    points = points[points < 1.0]
    assert np.array_equal(rank_of(points), rank_of.cdf.searchsorted(points, side="right"))


def _per_trial_rates(config, popularity, total_users, trials, seed):
    """Reference stochastic pricing, one trial at a time: each trial's
    stream draws caches, then ranks through Generator.choice, and the
    profile is priced by a one-trial expected_profile_rate."""
    starts = np.cumsum([0] + [lv.n_files for lv in config.levels])
    level_of_rank = np.repeat(np.arange(config.num_levels), np.diff(starts))
    shares = pama_rate(config).allocation.shares
    rates = []
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, trial)))
        )
        caches = rng.integers(0, config.num_caches, total_users)
        ranks = rng.choice(popularity.n_files, size=total_users, p=popularity.probabilities)
        levels = level_of_rank[ranks]
        demands = np.column_stack([caches, levels, ranks - starts[levels]])
        rates.append(expected_profile_rate(config, shares, demands))
    return tuple(rates)


def _per_trial_lfu(popularity, memory, total_users, trials, seed):
    """Reference LFU rates: per trial, the distinct ranks that
    Generator.choice draws outside the floor(M) most popular."""
    rates = []
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, trial)))
        )
        ranks = rng.choice(popularity.n_files, size=total_users, p=popularity.probabilities)
        rates.append(float(len(set(ranks[ranks >= math.floor(memory)].tolist()))))
    return tuple(rates)


@pytest.mark.parametrize("trials_per_block", [1, 3, 7])
def test_stochastic_blocks_match_per_trial_reference(monkeypatch, trials_per_block):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        instances = [
            # test_simulate_stochastic_rates_pinned's instance: d = 2 does
            # not divide K = 5, so level-1 users at cache 4 are edge users.
            (make_config(5, 14.0, [(20, 2, 2), (40, 1, 1)]), 0.8),
            (make_config(7, 30.0, [(30, 1, 3), (50, 2, 2), (120, 1, 1)]), 1.2),
            (make_config(4, 0.0, [(10, 1, 2), (90, 2, 4)]), 0.6),
        ]
    for cfg, exponent in instances:
        dist = zipf_distribution(exponent, sum(lv.n_files for lv in cfg.levels))
        for users in (0, 1, 30, 45):
            monkeypatch.setattr(sim, "DEMAND_BLOCK", trials_per_block * max(users, 1))
            for seed in (7, 8):
                res = simulate_stochastic(cfg, dist, users, 7, seed)
                assert res.rates == _per_trial_rates(cfg, dist, users, 7, seed)
                lfu = lfu_simulate(dist, cfg.memory, users, 7, seed)
                assert lfu.rates == _per_trial_lfu(dist, cfg.memory, users, 7, seed)


def test_stochastic_scratch_memory_is_bounded():
    # A trial of 10k users fills a block of its own, so 100 trials hold
    # one trial's arrays at a time, not 100 trials' worth (about 24 MiB
    # for the demand table alone).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(10, 1000.0, [(2000, 100, 2), (8000, 100, 3)])
    dist = zipf_distribution(0.8, 10_000)
    block_table = 10_000 * 3 * 8
    for run in (
        lambda: simulate_stochastic(cfg, dist, 10_000, 100, seed=1),
        lambda: lfu_simulate(dist, 100.0, 10_000, 100, seed=1),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= block_table + 4 * 2**20


@pytest.mark.parametrize(
    "users, trials, seed, message",
    [
        (20, True, 1, "trials must be an integer, got True"),
        (True, 2, 1, "the user count must be an integer, got True"),
        (20, 2, False, "the seed must be an integer, got False"),
        (20.0, 2, 1, "the user count must be an integer, got 20.0"),
        (20, 2.5, 1, "trials must be an integer, got 2.5"),
        (20, 2, "1", "the seed must be an integer, got '1'"),
    ],
)
def test_run_arguments_must_be_integers(users, trials, seed, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(5, 14.0, [(20, 2, 2), (40, 1, 1)])
    dist = zipf_distribution(0.8, 60)
    with pytest.raises(ConfigError, match=message):
        simulate_stochastic(cfg, dist, users, trials, seed)
    with pytest.raises(ConfigError, match=message):
        lfu_simulate(dist, 10.0, users, trials, seed)


def _subset_walk(pl, demands):
    """Reference delivery that walks every subset of every (group, color)
    subsystem: the XOR for subset S is as long as the longest segment
    "wanted by u in S, stored by exactly the caches of S minus u".
    Returns (total_bits, uncoded_bits, pair_bits)."""
    cfg, k, f_bits = pl.config, pl.config.num_caches, pl.file_size_bits
    slots, groups, served = Counter(), defaultdict(list), set()
    total = uncoded = 0
    for cache, lvl, f in demands:
        d = cfg.levels[lvl].access_degree
        slot = slots[(cache, lvl)]
        slots[(cache, lvl)] += 1
        if not (k % d and cache > k - d):
            groups[(lvl, cache % d, slot)].append((cache, f))
            continue
        window = [(cache + o) % k for o in range(d)]
        for color in range(d):
            length = (f_bits // d) + (color < f_bits % d)
            cov = np.zeros(length, dtype=bool)
            for c in window:
                if c % d == color:
                    cov |= _rows(pl, c, lvl, [f])[0]
            if (lvl, cache, f, color) not in served:
                served.add((lvl, cache, f, color))
                total += int((~cov).sum())
                uncoded += int((~cov).sum())
    pair_bits = {}
    for (lvl, residue, slot), members in sorted(groups.items()):
        n = len(members)
        assert n <= 6
        d = cfg.levels[lvl].access_degree
        for color in range(d):
            # held[f][j]: which bits of f the j-th member's cache stores
            held = {
                f: np.array([_rows(pl, (c + (color - c) % d) % k, lvl, [f])[0] for c, _ in members])
                for f in {f for _, f in members}
            }
            bits = sum(int((~h.any(axis=0)).sum()) for h in held.values())
            for r in range(2, n + 1):
                for subset in combinations(range(n), r):
                    seg = []
                    for j in subset:
                        pattern = np.isin(np.arange(n), [o for o in subset if o != j])
                        seg.append(int((held[members[j][1]].T == pattern).all(axis=1).sum()))
                    bits += max(seg)
            pair_bits[(lvl, (residue, slot), color)] = bits
            total += bits
    return total, uncoded, pair_bits


def test_delivery_matches_subset_walk():
    rng = np.random.default_rng(2024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(50):
            k = int(rng.integers(2, 7))
            levels = []
            for _ in range(int(rng.integers(1, 3))):
                u, d = int(rng.integers(1, 3)), int(rng.integers(1, min(3, k) + 1))
                levels.append((k * u + int(rng.integers(0, 5)), u, d))
            cfg = make_config(k, 0.0, levels)
            cfg = cfg.with_memory(float(rng.uniform(0, cfg.full_memory)))
            pl = place(cfg, pama_rate(cfg).allocation, 256, seed=trial)
            if trial % 2:
                demands = worst_case_demands(cfg)
            else:
                demands = []
                for _ in range(int(rng.integers(1, 3 * k))):
                    lvl = int(rng.integers(0, cfg.num_levels))
                    file = int(rng.integers(0, cfg.levels[lvl].n_files))
                    demands.append((int(rng.integers(0, k)), lvl, file))
            log = deliver_bit_exact(pl, demands)
            assert (log.total_bits, log.uncoded_bits, log.pair_bits) == _subset_walk(pl, demands)
            assert log.decode_ok
        # F = 64 leaves subfiles of 21 to 32 bits, fewer than the 2^5 or
        # 2^6 member sets of these groups: they are priced per member.
        # K = 13 and 17 add wrap-around users.
        for trial, (k, d) in enumerate([(12, 2), (13, 2), (15, 3), (17, 3)] * 3):
            n = k + int(rng.integers(0, 5))
            cfg = make_config(k, float(rng.uniform(0, n / d)), [(n, 1, d)])
            pl = place(cfg, Allocation(shares=(cfg.memory,)), 64, seed=trial)
            if trial % 2:
                demands = worst_case_demands(cfg)
            else:
                demands = [(c, 0, int(rng.integers(0, n))) for c in range(k)]
            assert 2 ** (k // d) > 64 // d + 1
            log = deliver_bit_exact(pl, demands)
            assert (log.total_bits, log.uncoded_bits, log.pair_bits) == _subset_walk(pl, demands)


def _per_member_reference(pl, demands):
    """Reference pricing: the pass that priced every (group, color)
    subsystem before the signature-count table.  It ORs one uint64
    signature per bit and runs one np.unique per member over it.  Returns
    pair_bits and which side of the 2^m <= L rule each subsystem fell on
    (m members, L-bit subfiles), and the group sizes."""
    cfg, k = pl.config, pl.config.num_caches
    table = np.array(demands, dtype=np.int64)
    order, group, keys, _, _ = sim._groups(cfg, table, np.zeros(len(table), dtype=np.int64))
    pair_bits, sides, sizes = {}, set(), set()
    for g, (lvl, residue, slot) in enumerate(keys.tolist()):
        members = table[np.sort(order[group == g])]
        sizes.add(len(members))
        d = cfg.levels[lvl].access_degree
        for color in range(d):
            caches = [(c + (color - c) % d) % k for c in members[:, 0].tolist()]
            length = sim._subfile_length(pl.file_size_bits, d, color)
            sides.add(2 ** len(caches) <= length)
            sigs = {}
            for f in set(members[:, 2].tolist()):
                sig = np.zeros(length, dtype=np.uint64)
                for bit, vc in enumerate(caches):
                    sig |= _rows(pl, vc, lvl, [f])[0].astype(np.uint64) << np.uint64(bit)
                sigs[f] = sig
            bits = sum(int(np.count_nonzero(sig == 0)) for sig in sigs.values())
            keys_, counts = [], []
            for bit, file in enumerate(members[:, 2].tolist()):
                sig = sigs[file]
                lacking = (sig >> np.uint64(bit)) & np.uint64(1) == 0
                key, count = np.unique(
                    sig[lacking & (sig != 0)] | np.uint64(1 << bit), return_counts=True
                )
                keys_.append(key)
                counts.append(count)
            xor_sets, inverse = np.unique(np.concatenate(keys_), return_inverse=True)
            longest = np.zeros(xor_sets.size, dtype=np.int64)
            np.maximum.at(longest, inverse, np.concatenate(counts))
            pair_bits[(lvl, (residue, slot), color)] = bits + int(longest.sum())
    return pair_bits, sides, sizes


def test_delivery_matches_per_member_reference():
    # Groups of 1 to 16 members; F puts the subfile length L within a
    # factor of 8 of 2^m, so both pricing paths run.  Then groups of 17
    # to 40 members with subfiles of 64 to 256 bits, priced per member,
    # so signature matrices of every unsigned dtype meet the reference.
    rng = np.random.default_rng(22)
    sides, sizes = set(), set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(46):
            if trial < 40:
                m, d = int(rng.integers(1, 17)), int(rng.integers(1, 4))
            else:
                m, d = int(rng.integers(17, 41)), int(rng.integers(1, 3))
            k = m * d + int(rng.integers(0, d))
            n = k + int(rng.integers(0, 4))
            if trial < 40:
                f_bits = int(min(max(d * 2 ** (m + int(rng.integers(-3, 4))), 64), 2**15))
            else:
                f_bits = d * 2 ** int(rng.integers(6, 9))
            cfg = make_config(k, float(rng.uniform(0, n / d)), [(n, 1, d)])
            pl = place(cfg, Allocation(shares=(cfg.memory,)), f_bits, seed=trial)
            if trial % 2:
                demands = worst_case_demands(cfg)
            else:
                demands = [(c, 0, int(rng.integers(0, n))) for c in range(k)]
            pair_bits, seen, members = _per_member_reference(pl, demands)
            assert deliver_bit_exact(pl, demands).pair_bits == pair_bits
            sides |= seen
            sizes |= members
    assert sides == {True, False}
    assert {np.min_scalar_type((1 << m) - 1) for m in sizes} == set(
        map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64))
    )


def _pinned_deliveries():
    """Worst-case groups of 10 to 16 members at F = 4096 (2^m <= L up to
    m = 12) and one of 16 at F = 2^16; then worst-case and random
    profiles on two-level instances, one with d not dividing K."""
    cases = []
    for k, f_bits in ((10, 4096), (12, 4096), (13, 4096), (16, 4096), (16, 65536)):
        cfg = make_config(k, k / 3, [(k, 1, 1)])
        cases.append((place(cfg, pama_rate(cfg).allocation, f_bits, seed=k), worst_case_demands(cfg)))
    rng = np.random.default_rng(22)
    for k, levels, f_bits in (
        (7, [(21, 1, 3), (28, 2, 2)], 3001),
        (12, [(36, 2, 1), (48, 1, 3)], 1000),
        (6, [(30, 3, 2)], 200),
    ):
        cfg = make_config(k, 0.0, levels)
        cfg = cfg.with_memory(0.3 * cfg.full_memory)
        pl = place(cfg, pama_rate(cfg).allocation, f_bits, seed=k)
        cases.append((pl, worst_case_demands(cfg)))
        demands = []
        for _ in range(3 * k):
            lvl = int(rng.integers(0, cfg.num_levels))
            demands.append(
                (int(rng.integers(0, k)), lvl, int(rng.integers(0, cfg.levels[lvl].n_files)))
            )
        cases.append((pl, demands))
    return cases


def test_delivery_logs_pinned():
    # sha256 of every delivery's (total_bits, uncoded_bits, sorted
    # pair_bits), computed with the per-member np.unique pass.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        logs = []
        for pl, demands in _pinned_deliveries():
            log = deliver_bit_exact(pl, demands)
            logs.append((log.total_bits, log.uncoded_bits, sorted(log.pair_bits.items())))
    assert hashlib.sha256(repr(logs).encode()).hexdigest() == (
        "e05ca775f097731c3f731c1e9ee65b37acf18cde2fec6f856ea258d41cd12cc2"
    )


def _exact_group_bits(m, length, mu):
    """Expected broadcast bits of one (group, color) subsystem of m
    members with distinct files and ``length``-bit subfiles, each bit
    cached independently with probability mu at each member's cache.

    The bits cached nowhere are sent in clear, L(1 - mu)^m per file.  The
    segment of member p in the XOR for a member set S of size s >= 2 is
    the bits of p's file held by exactly S minus p, Binomial(L, q_s) with
    q_s = mu^(s-1) (1 - mu)^(m-s+1); the files differ, so the s segments
    are independent and the XOR's expected length, that of the longest,
    is the sum over k of 1 - F_s(k)^s, F_s the Binomial CDF."""
    total = m * length * (1.0 - mu) ** m
    for s in range(2, m + 1):
        q = mu ** (s - 1) * (1.0 - mu) ** (m - s + 1)
        log_pmf = [
            math.lgamma(length + 1)
            - math.lgamma(j + 1)
            - math.lgamma(length - j + 1)
            + j * math.log(q)
            + (length - j) * math.log1p(-q)
            for j in range(length + 1)
        ]
        cdf = np.minimum(np.cumsum(np.exp(log_pmf)), 1.0)
        total += math.comb(m, s) * float(np.sum(1.0 - cdf**s))
    return total


@pytest.mark.parametrize(
    "file_bits, memory, expected",
    [(1024, 2, 2.10641), (256, 3, 1.53361), (1024, 5, 0.64057)],
)
def test_bit_exact_mean_matches_finite_length_expectation(file_bits, memory, expected):
    # One group of 4 members with distinct files at d = 1, so the rate's
    # expectation at this file size is exact, not the F -> infinity
    # closed form (2.051 at F = 1024, M = 2).  1,300 placement seeds.
    cfg = make_config(4, memory, [(8, 1, 1)])
    mean = _exact_group_bits(4, file_bits, memory / 8) / file_bits
    assert round(mean, 5) == expected
    allocation, demands = Allocation((float(memory),)), worst_case_demands(cfg)
    rates = np.array(
        [
            deliver_bit_exact(place(cfg, allocation, file_bits, seed), demands).rate
            for seed in range(1300)
        ]
    )
    z = (rates.mean() - mean) / (rates.std(ddof=1) / math.sqrt(rates.size))
    assert abs(z) <= 5


@pytest.mark.parametrize("k", [24, 64])
def test_large_group_worst_case_decodes(k):
    # One group of K members.  At F << 2^K the measured rate sits well
    # above the closed form (a finite-length effect), so only the
    # uncached rate K*U bounds it here.
    cfg = make_config(k, k / 4, [(k, 1, 1)])
    pl = place(cfg, pama_rate(cfg).allocation, 4096, seed=k)
    log = deliver_bit_exact(pl, worst_case_demands(cfg))
    assert log.decode_ok
    assert log.rate <= k * 1


def test_group_over_64_members_is_an_error():
    cfg = make_config(65, 16.0, [(65, 1, 1)])
    pl = place(cfg, pama_rate(cfg).allocation, 64, seed=1)
    with pytest.raises(ValueError, match="65 members"):
        deliver_bit_exact(pl, worst_case_demands(cfg))


@pytest.mark.parametrize(
    "file_bits,path",
    [
        (4096, "_count_table"),  # 2^8 <= 4096: one table of signature counts
        (128, "_per_member"),  # 2^8 > 128: one np.unique per member
    ],
)
def test_dropped_coded_part_is_a_decode_error(monkeypatch, file_bits, path):
    # A delivery that prices no XOR segment sends only the bits cached
    # nowhere, fewer than a member lacks, so the decode check must fail.
    cfg = make_config(8, 4.0, [(8, 1, 1)])
    pl = place(cfg, pama_rate(cfg).allocation, file_bits, seed=1)
    ran = []

    def no_segments(price):
        def priced(held, member_files):
            clear_bits, _, lacked = price(held, member_files)
            ran.append(price.__name__)
            return clear_bits, 0, lacked

        return priced

    for name in ("_count_table", "_per_member"):
        monkeypatch.setattr(sim, name, no_segments(getattr(sim, name)))
    with pytest.raises(DecodeError, match="bits a member lacks"):
        deliver_bit_exact(pl, worst_case_demands(cfg))
    assert ran == [path]
