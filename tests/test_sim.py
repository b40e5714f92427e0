import math
import tracemalloc
import warnings
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from codedcache import sim
from codedcache.model import ConfigError, make_config
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


def test_place_full_fraction_stores_everything():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(16.0,)), 256, seed=1)
    assert all(mask.all() for mask in pl.stored.values())
    assert deliver_bit_exact(pl, worst_case_demands(cfg)).total_bits == 0


def test_place_zero_fraction_stores_nothing():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(0.0,)), 256, seed=1)
    assert not any(mask.any() for mask in pl.stored.values())


def test_place_rejects_overfull_fraction():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    with pytest.raises(ValueError):
        place(cfg, Allocation(shares=(17.0,)), 256, seed=1)


def test_place_rejects_tiny_files():
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    with pytest.raises(ValueError):
        place(cfg, Allocation(shares=(8.0,)), 32, seed=1)


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
            int(masks.sum())
            for (c, _), masks in pl.stored.items()
            if c == cache
        )
        assert actual == pytest.approx(expected, rel=0.01)


def test_part_sizes_concentrate():
    # Two caches at half memory: the four cached-by classes each hold
    # about a quarter of every file.
    cfg = make_config(2, 8.0, [(16, 1, 1)])
    pl = place(cfg, Allocation(shares=(8.0,)), 100_000, seed=5)
    m0 = pl.stored[(0, 0)][0]
    m1 = pl.stored[(1, 0)][0]
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
    for key in a.stored:
        assert np.array_equal(a.stored[key], b.stored[key])
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
        131072,  # each level's masks in one block
        256,  # several rows per block
        101,  # between one row of each level
        37,  # every subfile longer than a block
        1,  # one 64-bit output per block
    ],
)
def test_placement_stream_pinned(monkeypatch, block):
    # F = 1001 gives subfiles of 1001 bits (d = 1) and of 501 and 500 bits
    # (d = 2, by color); a block holds 8 bits per output, so row and block
    # edges fall out of step.
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
        built.clear()
        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        pl = place(cfg, Allocation(shares=(mus[0] * 5, mus[1] * 3)), 1001, seed=8)
        monkeypatch.setattr(np.random, "PCG64", pcg64)
        assert sorted(built) == [(1, c, lvl) for c in range(3) for lvl in range(2)]
        for (c, lvl), masks in pl.stored.items():
            length = 1001 if lvl == 0 else 501 - c % 2
            assert masks.shape == (cfg.levels[lvl].n_files, length)
            bitgen = pcg64(np.random.SeedSequence(8, spawn_key=(1, c, lvl)))
            expected = _reference_bits(bitgen, masks.size, mus[lvl])
            assert np.array_equal(masks.reshape(-1), expected)


class _NarrowStream:
    """A stand-in bit generator whose bytes are each drawn uniformly from
    {d - 1, d, d + 1} over mu's base-256 digits d, so that ties stay open
    for many rounds and some outlast the last digit."""

    def __init__(self, seed, mu):
        self.rng = np.random.default_rng(seed)
        near = {x for d in _digits(mu % 1) for x in (d - 1, d, d + 1)}
        self.alphabet = np.array(sorted(near & set(range(256))), dtype=np.uint8)

    def random_raw(self, size):
        drawn = self.rng.choice(self.alphabet, size=8 * size)
        return drawn.view("<u8").astype(np.uint64)


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
@pytest.mark.parametrize(
    "mu", [1.0 / 3, 0.5, 1 - 2.0**-53, 2.0**-60, 3.0 / 256, 0.3712345, 0.0, 1.0]
)
def test_bernoulli_bits_match_reference_through_tie_rounds(monkeypatch, block, mu):
    monkeypatch.setattr(sim, "DRAW_BLOCK", block)
    flat = np.empty(65539, dtype=bool)
    sim._bernoulli_bits(flat, mu, _NarrowStream(4, mu))
    assert np.array_equal(flat, _reference_bits(_NarrowStream(4, mu), flat.size, mu))


@pytest.mark.parametrize("mu", [0.5, 1.0 / 3, 0.3712345, 3.0 / 256, 0.999])
def test_bernoulli_bits_mean(mu):
    n = 1 << 24
    flat = np.empty(n, dtype=bool)
    sim._bernoulli_bits(flat, mu, np.random.PCG64(5))
    ones = int(np.count_nonzero(flat))
    assert abs(ones - mu * n) <= 5 * math.sqrt(n * mu * (1 - mu))


def test_place_scratch_memory_is_bounded():
    # The K/d = 11 shape of the bit-exact benchmark: 45 MiB of masks.  A
    # whole-level float64 draw would need 17 MiB on top of them.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(11, 30.0, [(132, 1, 1), (264, 2, 2)])
    allocation = pama_rate(cfg).allocation
    tracemalloc.start()
    try:
        pl = place(cfg, allocation, 2**14, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = sum(masks.nbytes for masks in pl.stored.values())
    assert peak <= stored + 4 * 2**20


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
                    cov |= pl.stored[(c, lvl)][f]
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
                f: np.array([pl.stored[((c + (color - c) % d) % k, lvl)][f] for c, _ in members])
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


def test_dropped_coded_part_is_a_decode_error(monkeypatch):
    # A delivery that prices no XOR segment sends only the bits cached
    # nowhere, fewer than a member lacks, so the decode check must fail.
    cfg = make_config(8, 4.0, [(8, 1, 1)])
    pl = place(cfg, pama_rate(cfg).allocation, 4096, seed=1)
    unique = np.unique

    def no_segments(values, *args, **kwargs):
        if kwargs.get("return_counts"):
            return np.array([], dtype=np.uint64), np.array([], dtype=np.int64)
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", no_segments)
    with pytest.raises(DecodeError, match="bits a member lacks"):
        deliver_bit_exact(pl, worst_case_demands(cfg))
