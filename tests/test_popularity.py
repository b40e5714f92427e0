import io
import warnings

import numpy as np
import pytest

from codedcache.model import ConfigError, ValidationWarning
from codedcache.pama import pama_rate
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


def test_distribution_is_a_read_only_array():
    dist = EmpiricalDistribution(probabilities=(0.5, 0.375, 0.125))
    assert isinstance(dist.as_array(), np.ndarray)
    assert not dist.as_array().flags.writeable
    assert not dist.cumulative().flags.writeable
    assert dist.cumulative() is dist.cumulative()
    assert dist.cumulative().tolist() == [0.5, 0.875, 1.0]
    zipf = zipf_distribution(0.8, 1000)
    weights = np.arange(1, 1001, dtype=np.float64) ** -0.8
    assert np.array_equal(zipf.as_array(), weights / weights.sum())


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
    counts = (dist.as_array() * 10**9).astype(int)
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
    mass_head = float(np.cumsum(dist.as_array())[1999])
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
