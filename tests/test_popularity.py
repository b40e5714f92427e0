import io
import itertools
import math
import warnings

import numpy as np
import pytest

from codedcache import popularity
from codedcache.model import ConfigError, LevelSpec, SystemConfig, ValidationWarning
from codedcache.pama import (
    build_threshold_table,
    candidate_partitions,
    pama_allocate,
    pama_rate,
    total_rate_exact,
)
from codedcache.popularity import (
    CountsError,
    EmpiricalDistribution,
    LevelPartition,
    brute_force_partition,
    discretize,
    fit_zipf,
    level_map_for_config,
    load_counts,
    zipf_distribution,
    zipf_split_heuristic,
)


def test_load_counts_newline_format():
    dist = load_counts(io.StringIO("4\n1\n3\n"))
    assert dist.probabilities == pytest.approx((0.5, 0.375, 0.125))


def test_load_counts_csv_format():
    dist = load_counts(io.StringIO("a,4\nb,1\nc,3\n"))
    assert dist.probabilities == pytest.approx((0.5, 0.375, 0.125))


def test_load_counts_uniform():
    dist = load_counts(io.StringIO("1\n1\n1\n1\n"))
    assert dist.probabilities == pytest.approx((0.25,) * 4)


def test_load_counts_empty_is_error():
    with pytest.raises(CountsError):
        load_counts(io.StringIO(""))


def test_load_counts_all_zero_is_error():
    with pytest.raises(CountsError), warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        load_counts(io.StringIO("0\n0\n"))


def test_load_counts_drops_zeros_with_warning():
    with pytest.warns(ValidationWarning):
        dist = load_counts(io.StringIO("3\n0\n1\n"))
    assert dist.n_files == 2


def test_load_counts_parse_error_carries_line_number():
    with pytest.raises(CountsError, match="line 2"):
        load_counts(io.StringIO("3\nxyz\n1\n"))


def test_load_counts_negative_is_error():
    with pytest.raises(CountsError, match="non-negative"):
        load_counts(io.StringIO("3\n-1\n"))


def test_distribution_invariants():
    with pytest.raises(CountsError):
        EmpiricalDistribution(probabilities=(0.25, 0.5, 0.25))  # not sorted
    with pytest.raises(CountsError):
        EmpiricalDistribution(probabilities=(0.7, 0.2))  # does not sum to 1
    for bad in (math.nan, math.inf):
        with pytest.raises(CountsError, match="must be finite"):
            EmpiricalDistribution(probabilities=(bad, 0.5, 0.5))


def test_distribution_is_a_read_only_array():
    dist = EmpiricalDistribution(probabilities=(0.5, 0.375, 0.125))
    assert isinstance(dist.probabilities, np.ndarray)
    assert not dist.probabilities.flags.writeable
    assert not dist.cumulative.flags.writeable
    assert dist.cumulative.tolist() == [0.5, 0.875, 1.0]
    zipf = zipf_distribution(0.8, 1000)
    weights = np.arange(1, 1001, dtype=np.float64) ** -0.8
    assert np.array_equal(zipf.probabilities, weights / weights.sum())


@pytest.mark.parametrize("exponent", [0.6, 1.5])
def test_fit_zipf_roundtrip(exponent):
    dist = zipf_distribution(exponent, 10_000)
    assert fit_zipf(dist) == pytest.approx(exponent, abs=1e-6)


def test_fit_zipf_uniform_is_flat():
    dist = EmpiricalDistribution(probabilities=(0.1,) * 10)
    assert fit_zipf(dist) == pytest.approx(0.0, abs=1e-9)


def test_fit_zipf_needs_ten_files():
    with pytest.raises(ValueError):
        fit_zipf(EmpiricalDistribution(probabilities=(0.5, 0.5)))


def test_fit_zipf_roundtrip_from_counts():
    dist = zipf_distribution(0.8, 2000)
    counts = (dist.probabilities * 10**9).astype(int)
    loaded = load_counts(io.StringIO("\n".join(str(c) for c in counts)))
    assert fit_zipf(loaded) == pytest.approx(0.8, abs=1e-3)


def test_zipf_split_low_exponent():
    part = zipf_split_heuristic(0.6, 10_000, 10, 100.0)
    assert part.boundaries == (286,)


def test_zipf_split_high_exponent():
    part = zipf_split_heuristic(1.5, 10_000, 10, 50.0)
    assert part.boundaries == (63,)


def test_zipf_split_zero_memory_clamps():
    part = zipf_split_heuristic(0.6, 10_000, 10, 0.0)
    assert part.boundaries == (1,)


def test_zipf_split_exponent_one_branches():
    # K^(1/(s-1)) treated as +inf: m1 = N/K, m2 = +inf.
    small = zipf_split_heuristic(1.0, 1000, 10, 50.0)
    assert small.boundaries == (500,)  # (M*K)^(1/s) = 500
    mid = zipf_split_heuristic(1.0, 1000, 10, 500.0)
    assert mid.boundaries == (999,)  # N^(1/s) clamped to N-1


def test_zipf_split_validation():
    with pytest.raises(ValueError):
        zipf_split_heuristic(0.0, 100, 4, 1.0)
    with pytest.raises(ValueError):
        zipf_split_heuristic(0.6, 1, 4, 1.0)


def test_partition_accessors():
    part = LevelPartition(boundaries=(10, 40), n_files=100)
    cfg = discretize(zipf_distribution(0.8, 100), part, 2, 8, [1, 1, 1], 1.0)
    assert [lv.n_files for lv in cfg.levels] == [10, 30, 60]
    lm = level_map_for_config(cfg, 100)
    assert lm[0] == 0 and lm[9] == 0 and lm[10] == 1 and lm[39] == 1 and lm[40] == 2
    assert lm[99] == 2 and len(lm) == 100


def test_partition_validation():
    with pytest.raises(ValueError):
        LevelPartition(boundaries=(0,), n_files=10)
    with pytest.raises(ValueError):
        LevelPartition(boundaries=(5, 5), n_files=10)


def test_discretize_uniform_two_blocks():
    dist = EmpiricalDistribution(probabilities=(1 / 40,) * 40)
    part = LevelPartition(boundaries=(20,), n_files=40)
    cfg = discretize(dist, part, num_caches=4, total_users=8, degrees=(1, 1), memory=5.0)
    assert [lv.users_per_cache for lv in cfg.levels] == [1, 1]
    assert [lv.n_files for lv in cfg.levels] == [20, 20]


def test_discretize_user_counts_follow_block_mass():
    dist = zipf_distribution(0.6, 10_000)
    part = LevelPartition(boundaries=(2000,), n_files=10_000)
    cfg = discretize(dist, part, num_caches=10, total_users=100, degrees=(1, 1), memory=1.0)
    mass_head = float(np.cumsum(dist.probabilities)[1999])
    expected_u1 = int(np.floor(10 * mass_head + 0.5))
    assert cfg.levels[0].users_per_cache == expected_u1
    assert cfg.levels[0].n_files == 2000
    assert sum(lv.users_per_cache for lv in cfg.levels) == 10


def test_discretize_single_block():
    dist = zipf_distribution(0.6, 100)
    part = LevelPartition(boundaries=(), n_files=100)
    cfg = discretize(dist, part, num_caches=5, total_users=20, degrees=(1,), memory=1.0)
    assert cfg.num_levels == 1
    assert cfg.levels[0].users_per_cache == 4


def test_discretize_merges_zero_user_level():
    dist = zipf_distribution(0.6, 1000)
    part = LevelPartition(boundaries=(3,), n_files=1000)  # tiny head block
    with pytest.warns(ValidationWarning):
        cfg = discretize(dist, part, num_caches=4, total_users=8, degrees=(1, 1), memory=1.0)
    assert cfg.num_levels == 1


def test_discretize_every_level_zero_is_error():
    dist = zipf_distribution(0.6, 100)
    part = LevelPartition(boundaries=(50,), n_files=100)
    with pytest.raises(ConfigError), warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        discretize(dist, part, num_caches=100, total_users=10, degrees=(1, 1), memory=1.0)


def test_discretize_warns_on_regularity_violation():
    dist = zipf_distribution(2.5, 200)  # very skewed head
    part = LevelPartition(boundaries=(5,), n_files=200)
    with pytest.warns(ValidationWarning):
        discretize(dist, part, num_caches=10, total_users=100, degrees=(1, 1), memory=1.0)


def test_brute_force_single_level():
    dist = zipf_distribution(0.6, 400)
    part, rate = brute_force_partition(dist, 1, 4, 60.0, (1,), 16)
    assert part.boundaries == ()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = discretize(dist, part, 4, 16, (1,), 60.0)
    assert rate == pytest.approx(pama_rate(cfg).exact.total, rel=1e-12)


def test_brute_force_beats_heuristic_on_shared_grid():
    dist = zipf_distribution(0.6, 400)
    heur = zipf_split_heuristic(0.6, 400, 4, 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg_h = discretize(dist, heur, 4, 16, (1, 1), 60.0)
        rate_h = pama_rate(cfg_h).exact.total
        _, rate_bf = brute_force_partition(
            dist, 2, 4, 60.0, (1, 1), 16, coarsening=10, extra_cuts=heur.boundaries
        )
    assert rate_bf <= rate_h + 1e-9


def test_brute_force_rate_improves_with_levels():
    dist = zipf_distribution(0.6, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rates = [
            brute_force_partition(dist, lcount, 4, 60.0, (1, 1, 1), 16, coarsening=10)[1]
            for lcount in (1, 2, 3)
        ]
    assert rates[1] <= rates[0] + 1e-9
    assert rates[2] <= rates[1] + 1e-9


def test_brute_force_budget_enforced():
    dist = zipf_distribution(0.6, 400)
    with pytest.raises(ValueError, match="budget"):
        brute_force_partition(dist, 3, 4, 60.0, (1, 1, 1), 16, coarsening=1, budget=100)


def _scalar_discretize(dist, partition, num_caches, total_users, degrees, memory):
    """discretize written one block at a time with Python lists: the
    independent reference for the array discretization."""
    if partition.n_files != dist.n_files:
        raise ConfigError("partition and distribution disagree on the file count")
    if len(degrees) != partition.num_levels:
        raise ConfigError("need one access degree per level")
    if max(degrees, default=0) > num_caches:
        raise ConfigError(f"access degree {max(degrees)} exceeds K = {num_caches}")
    if total_users < 1:
        raise ConfigError("total_users must be positive")

    cum = np.concatenate([[0.0], dist.cumulative])
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
        warnings.warn(
            "rounding reordered near-tied blocks; level indices no longer "
            "follow catalogue rank order",
            ValidationWarning,
        )
    return SystemConfig(num_caches=num_caches, memory=float(memory), levels=ordered)


def _outcome(func, *args):
    """(instance or error, warning messages) of one discretization."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidationWarning)
        try:
            result = func(*args)
        except ConfigError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def test_discretize_matches_the_scalar_reference():
    rng = np.random.default_rng(20261018)
    seen = {"merge": 0, "regularity": 0, "reorder": 0, "zero users": 0, "exceeds K": 0}
    for i in range(2000):
        lcount = int(rng.integers(1, 6))
        k = int(rng.integers(1, 12))
        n = int(rng.integers(lcount, 201))
        if i % 3:
            dist = zipf_distribution(float(rng.uniform(0.2, 2.5)), n)
        else:
            # Tied counts: blocks of equal mass, where rounding decides
            # the level order.
            counts = np.sort(rng.integers(1, 4, n))[::-1].astype(float)
            dist = EmpiricalDistribution(probabilities=counts / counts.sum())
        cuts = np.sort(rng.choice(np.arange(1, n), lcount - 1, replace=False)).tolist()
        part = LevelPartition(tuple(cuts), n)
        degrees = rng.integers(1, k + 2 if i % 10 == 0 else min(3, k) + 1, lcount).tolist()
        users = int(rng.integers(0 if i % 50 == 0 else 1, 6 * k + 1))
        args = (dist, part, k, users, degrees, float(rng.uniform(0.0, n)))
        got, got_notes = _outcome(discretize, *args)
        ref, ref_notes = _outcome(_scalar_discretize, *args)
        if isinstance(ref, ConfigError):
            assert isinstance(got, ConfigError) and str(got) == str(ref)
            seen["zero users"] += "zero users" in str(ref)
            seen["exceeds K"] += "exceeds K" in str(ref)
            continue
        assert got == ref and got_notes == ref_notes
        seen["merge"] += any("rounds to zero" in m for m in ref_notes)
        seen["regularity"] += any("regularity" in m for m in ref_notes)
        seen["reorder"] += any("reordered" in m for m in ref_notes)
    assert all(seen.values()), seen


def _reference_rate(dist, cuts, num_caches, total_users, degrees, memory):
    """One candidate priced the direct way: the scalar discretization,
    then pama_rate.  Also returns the ValidationWarning messages the
    discretization raised."""
    part = LevelPartition(boundaries=tuple(cuts), n_files=dist.n_files)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidationWarning)
        cfg = _scalar_discretize(
            dist, part, num_caches, total_users, degrees[: part.num_levels], memory
        )
    return pama_rate(cfg).exact.total, [str(w.message) for w in caught]


def _reference_brute_force(
    dist, num_levels, num_caches, memory, degrees, total_users, coarsening, extra_cuts=()
):
    """The one-split-at-a-time search: every candidate through
    discretize and pama_rate, the first strict improvement by 1e-15
    wins.  Returns (cut tuples, rates, warnings, best cuts, best rate)."""
    n = dist.n_files
    cuts = sorted(
        set(range(coarsening, n, coarsening)) | {c for c in extra_cuts if 0 < c < n}
    )
    combos = list(itertools.combinations(cuts, num_levels - 1))
    rates, notes = [], []
    best_rate, best_cuts = math.inf, None
    for combo in combos:
        rate, caught = _reference_rate(dist, combo, num_caches, total_users, degrees, memory)
        rates.append(rate)
        notes.append(caught)
        if rate < best_rate - 1e-15:
            best_rate, best_cuts = rate, combo
    return combos, rates, notes, best_cuts, best_rate


def _batch_rates(dist, combos, num_levels, num_caches, total_users, degrees, memory):
    cum = np.concatenate([[0.0], dist.cumulative])
    rows = np.array(combos, dtype=np.int64).reshape(len(combos), num_levels - 1)
    return popularity._price_splits(
        cum, rows, degrees[:num_levels], num_caches, total_users, memory
    ).tolist()


def test_batch_prices_equal_pama_rate_bit_for_bit(monkeypatch):
    # A small block makes every search below span several blocks.
    monkeypatch.setattr(popularity, "SPLIT_BLOCK", 7)
    rng = np.random.default_rng(20261018)
    merges = {1: 0, 2: 0}
    reorders = multi_block = 0
    seen_levels, seen_degrees = set(), set()
    for i in range(60):
        lcount = 1 + i % 4
        k = int(rng.integers(1, 11))
        degrees = tuple(int(d) for d in rng.integers(1, min(3, k) + 1, lcount))
        n = int(rng.integers(30, 301))
        users = int(rng.integers(k, 8 * k + 1))
        dist = zipf_distribution(float(rng.uniform(0.3, 1.5)), n)
        coarsening = max(1, n // int(rng.integers(6, 13)))
        extra = (0, n, *rng.integers(1, n, 2).tolist())
        memory = n * float(rng.uniform(0.0, 1.1)) * 10.0 ** float(rng.uniform(-2, 0))
        if i % 2:
            # Sit exactly on a breakpoint Y_t of some candidate, where
            # neighbouring splits tie up to rounding and pama_rate's
            # tolerance rule decides.
            cut = tuple(sorted(rng.choice(np.arange(1, n), lcount - 1, replace=False).tolist()))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidationWarning)
                cfg = discretize(dist, LevelPartition(cut, n), k, users, degrees, memory)
            table = build_threshold_table(cfg)
            memory = table.breakpoints[int(rng.integers(len(table.breakpoints)))].memory
            extra += cut
        combos, ref, notes, ref_cuts, ref_rate = _reference_brute_force(
            dist, lcount, k, memory, degrees, users, coarsening, extra
        )
        assert _batch_rates(dist, combos, lcount, k, users, degrees, memory) == ref
        part, rate = brute_force_partition(
            dist, lcount, k, memory, degrees, users, coarsening=coarsening, extra_cuts=extra
        )
        assert (part.boundaries, rate) == (ref_cuts, ref_rate)
        for caught in notes:
            merged = sum("rounds to zero users" in m for m in caught)
            if merged:
                merges[min(merged, 2)] += 1
            reorders += any("reordered" in m for m in caught)
        multi_block += len(combos) > popularity.SPLIT_BLOCK
        seen_levels.add(lcount)
        seen_degrees.update(degrees)
    assert seen_levels == {1, 2, 3, 4} and seen_degrees == {1, 2, 3}
    assert merges[1] > 0 and merges[2] > 0 and reorders > 0 and multi_block > 0


def test_batch_keeps_pama_tie_rule_on_breakpoints():
    # At a breakpoint memory Y_t, neighbouring splits often price within
    # rounding of each other; pama_rate keeps the later split when it is
    # within 1e-12 relative of the best, so its rate is then not the
    # plain minimum.  The batch must make the same choice.
    rng = np.random.default_rng(7)
    decisive = 0
    for _ in range(100):
        lcount = int(rng.integers(1, 4))
        k = int(rng.integers(1, 11))
        degrees = tuple(int(d) for d in rng.integers(1, min(3, k) + 1, lcount))
        n = int(rng.integers(30, 301))
        users = int(rng.integers(k, 8 * k + 1))
        dist = zipf_distribution(float(rng.uniform(0.3, 1.5)), n)
        cut = tuple(sorted(rng.choice(np.arange(1, n), lcount - 1, replace=False).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            cfg = discretize(dist, LevelPartition(cut, n), k, users, degrees, 0.0)
        table = build_threshold_table(cfg)
        for bp in table.breakpoints:
            at = cfg.with_memory(bp.memory)
            rate = pama_rate(at, table).exact.total
            totals = [
                total_rate_exact(at, pama_allocate(at, part)).total
                for part in candidate_partitions(table, bp.memory)
            ]
            decisive += rate != min(totals)
            assert _batch_rates(dist, [cut], lcount, k, users, degrees, bp.memory) == [rate]
    assert decisive > 0


def test_batch_merges_match_discretize():
    uniform = EmpiricalDistribution(probabilities=(0.01,) * 100)
    # The last block rounds to zero users and merges into the block
    # before it, keeping that block's degree.
    with pytest.warns(ValidationWarning, match="rounds to zero users"):
        cfg = discretize(uniform, LevelPartition((80,), 100), 2, 4, (1, 2), 10.0)
    assert cfg.levels == (LevelSpec(100, 2, 1),)
    assert _batch_rates(uniform, [(80,)], 2, 2, 4, (1, 2), 10.0) == [pama_rate(cfg).exact.total]
    # Two zero-user head blocks merge one after the other, each into
    # its less popular neighbour.
    with pytest.warns(ValidationWarning, match="rounds to zero users") as caught:
        cfg = discretize(uniform, LevelPartition((10, 20), 100), 3, 3, (1, 2, 3), 10.0)
    assert len(caught) == 2 and cfg.levels == (LevelSpec(100, 1, 3),)
    assert _batch_rates(uniform, [(10, 20)], 3, 3, 3, (1, 2, 3), 10.0) == [
        pama_rate(cfg).exact.total
    ]


def test_brute_force_all_zero_users_is_error():
    dist = zipf_distribution(0.6, 100)
    for lcount in (1, 2, 3):
        with pytest.raises(ConfigError, match="zero users"):
            brute_force_partition(dist, lcount, 10, 5.0, (1, 1, 1), 4, coarsening=10)


def test_brute_force_degree_above_cache_count_is_error():
    # Both paths refuse the degree before pricing any split.
    dist = zipf_distribution(0.8, 200)
    with pytest.raises(ValueError):
        _reference_rate(dist, (50,), 4, 40, (5, 1), 20.0)
    with pytest.raises(ValueError, match="exceeds K"):
        brute_force_partition(dist, 2, 4, 20.0, (5, 1), 40, coarsening=50)
