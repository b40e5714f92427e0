import math
import warnings

import numpy as np
import pytest

import codedcache.pama
from codedcache.model import ConfigError, ValidationWarning, make_config
from codedcache.pama import (
    Allocation,
    Partition,
    build_threshold_table,
    candidate_partitions,
    grid_search_alpha,
    optimize_access_structure,
    pama_allocate,
    pama_rate,
    total_rate_closed_form,
    total_rate_exact,
)
from codedcache.sim import place

EX1 = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)])
EX1_TABLE = build_threshold_table(EX1)


def _random_config(rng, max_levels=4):
    lcount = int(rng.integers(1, max_levels + 1))
    k = int(rng.integers(2, 17))
    levels = []
    for _ in range(lcount):
        u = int(rng.integers(1, 5))
        n = k * u * int(rng.integers(1, 20))
        d = int(rng.integers(1, min(4, k) + 1))
        levels.append((n, u, d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_config(k, 0.0, levels)


def test_example1_thresholds_and_memories():
    ys = [bp.memory for bp in EX1_TABLE.breakpoints]
    assert ys == pytest.approx([0.0, 37.5, 400 / 3, 200.0], rel=1e-12)


def test_example1_partition_sequence():
    labels = [bp.partition.label() for bp in EX1_TABLE.breakpoints]
    assert labels == ["H=2;I=1;J=", "H=;I=1,2;J=", "H=;I=2;J=1", "H=;I=;J=1,2"]


def test_single_level_table():
    cfg = make_config(8, 0.0, [(100, 1, 1)])
    table = build_threshold_table(cfg)
    assert [bp.memory for bp in table.breakpoints] == pytest.approx([0.0, 100.0])
    assert [bp.partition.label() for bp in table.breakpoints] == [
        "H=;I=1;J=",
        "H=;I=;J=1",
    ]


def test_breakpoints_sorted_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        cfg = _random_config(rng)
        ys = [bp.memory for bp in build_threshold_table(cfg).breakpoints]
        assert all(a <= b + 1e-9 for a, b in zip(ys, ys[1:]))


def test_one_move_per_step():
    rng = np.random.default_rng(8)
    for _ in range(100):
        cfg = _random_config(rng)
        table = build_threshold_table(cfg)
        prev = Partition.all_h(cfg.num_levels)
        for bp in table.breakpoints:
            moved = (
                len(prev.h_set ^ bp.partition.h_set)
                + len(prev.i_set ^ bp.partition.i_set)
                + len(prev.j_set ^ bp.partition.j_set)
            )
            assert moved == 2  # one level changes group
            prev = bp.partition


@pytest.mark.parametrize(
    "memory,label",
    [(100.0, "H=;I=1,2;J="), (150.0, "H=;I=2;J=1"), (250.0, "H=;I=;J=1,2")],
)
def test_get_partition_examples(memory, label):
    assert candidate_partitions(EX1_TABLE, memory)[-1].label() == label


def test_allocation_examples():
    part = candidate_partitions(EX1_TABLE, 100.0)[-1]
    assert pama_allocate(EX1, part).shares == (75.0, 25.0)
    full = candidate_partitions(EX1_TABLE, 250.0)[-1]
    assert pama_allocate(EX1.with_memory(250.0), full).shares == (100.0, 100.0)
    empty = pama_allocate(EX1.with_memory(0.0), candidate_partitions(EX1_TABLE, 0.0)[-1])
    assert empty.shares == (0.0, 0.0)


def test_shares_sum_to_memory_when_feasible():
    rng = np.random.default_rng(9)
    for _ in range(200):
        cfg = _random_config(rng)
        table = build_threshold_table(cfg)
        m = float(rng.uniform(0, cfg.full_memory))
        cfg_m = cfg.with_memory(m)
        part = candidate_partitions(table, m)[-1]
        closed = None
        try:
            closed = total_rate_closed_form(cfg_m, part)
        except ValueError:
            continue
        if closed.in_validity and part.i_set:
            shares = pama_allocate(cfg_m, part).shares
            assert sum(shares) == pytest.approx(m, rel=1e-9, abs=1e-9)


def test_shared_level_share_capped_at_full_storage():
    # Level 1 alone holds sqrt(N*U) of I, so its proportional share of
    # M = 4.165 would exceed its full-storage point N/d = 4.
    cfg = make_config(12, 4.165392342509941, [(12, 1, 3), (72, 1, 3)])
    res = pama_rate(cfg)
    for share, lv in zip(res.allocation.shares, cfg.levels):
        assert share <= lv.full_memory
    place(cfg, res.allocation, 64, seed=1)


def test_total_rate_exact_examples():
    assert total_rate_exact(EX1, Allocation(shares=(100.0, 0.0))).total == 8.0
    res = total_rate_exact(EX1, Allocation(shares=(75.0, 25.0)))
    assert res.total == pytest.approx(5.69962, abs=1e-4)
    assert res.total <= 6.0
    assert total_rate_exact(EX1.with_memory(200), Allocation(shares=(100.0, 100.0))).total == 0.0


def test_closed_form_examples():
    assert total_rate_closed_form(EX1, candidate_partitions(EX1_TABLE, 100.0)[-1]).value == pytest.approx(6.0, abs=1e-9)
    cfg150 = EX1.with_memory(150.0)
    assert total_rate_closed_form(cfg150, candidate_partitions(EX1_TABLE, 150.0)[-1]).value == pytest.approx(1.0, abs=1e-9)
    cfg250 = EX1.with_memory(250.0)
    assert total_rate_closed_form(cfg250, candidate_partitions(EX1_TABLE, 250.0)[-1]).value == 0.0


def test_closed_form_division_by_zero_is_an_error():
    part = Partition(frozenset({1}), frozenset({0}), frozenset())
    with pytest.raises(ValueError):
        total_rate_closed_form(EX1.with_memory(0.0), part)


def test_exact_below_closed_form_when_valid():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(300):
        cfg = _random_config(rng)
        table = build_threshold_table(cfg)
        m = float(rng.uniform(0, cfg.full_memory))
        cfg_m = cfg.with_memory(m)
        part = candidate_partitions(table, m)[-1]
        try:
            closed = total_rate_closed_form(cfg_m, part)
        except ValueError:
            continue
        if closed.in_validity:
            exact = total_rate_exact(cfg_m, pama_allocate(cfg_m, part)).total
            assert exact <= closed.value + 1e-9
            checked += 1
    assert checked > 50


def test_definition_inequalities_verbatim_at_example_points():
    # I = {1, 2} at M = 100: m_lo <= tildeM <= m_hi for both levels.
    tilde = 100.0 / 40.0
    assert (1 / 8) * math.sqrt(100 / 9) <= tilde <= math.sqrt(100 / 9)
    assert (1 / 8) * math.sqrt(100 / 1) <= tilde <= math.sqrt(100 / 1)
    assert total_rate_closed_form(EX1, candidate_partitions(EX1_TABLE, 100.0)[-1]).in_validity


def test_feasibility_inequalities_hold_when_flagged_valid():
    # Independent re-statement of the three defining inequalities; must
    # agree with the in_validity flag wherever the flag is True.
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(200):
        cfg = _random_config(rng, max_levels=3)
        table = build_threshold_table(cfg)
        m = float(rng.uniform(0, cfg.full_memory * 1.05))
        cfg_m = cfg.with_memory(m)
        part = candidate_partitions(table, m)[-1]
        try:
            closed = total_rate_closed_form(cfg_m, part)
        except ValueError:
            continue
        if not closed.in_validity or not part.i_set:
            continue
        s_i = sum(
            math.sqrt(cfg.levels[i].n_files * cfg.levels[i].users_per_cache)
            for i in part.i_set
        )
        t_j = sum(cfg.levels[j].full_memory for j in part.j_set)
        tilde = (m - t_j) / s_i
        tol = 1e-9 * (1 + abs(tilde))
        for i in part.i_set:
            lv = cfg.levels[i]
            root = math.sqrt(lv.n_files / lv.users_per_cache)
            assert root / cfg.num_caches <= tilde + tol
            assert tilde <= root / lv.access_degree + tol
        for h in part.h_set:
            lv = cfg.levels[h]
            root = math.sqrt(lv.n_files / lv.users_per_cache)
            assert tilde < root / cfg.num_caches + (lv.n_files / cfg.num_caches) / s_i + tol
        for j in part.j_set:
            lv = cfg.levels[j]
            root = math.sqrt(lv.n_files / lv.users_per_cache)
            assert tilde > root / lv.access_degree - tol
        checked += 1
    assert checked > 30


def test_literal_partition_flagged_out_of_validity_in_degenerate_zone():
    # Just above the second breakpoint the literal split violates the
    # entering level's lower inequality.
    cfg = EX1.with_memory(40.0)
    part = candidate_partitions(EX1_TABLE, 40.0)[-1]
    assert part.label() == "H=;I=1,2;J="
    assert not total_rate_closed_form(cfg, part).in_validity


def test_pama_rate_picks_cheaper_split_in_degenerate_zone():
    res = pama_rate(EX1.with_memory(40.0), EX1_TABLE)
    assert res.partition.label() == "H=2;I=1;J="
    literal = candidate_partitions(EX1_TABLE, 40.0)[-1]
    assert literal.label() == "H=;I=1,2;J="
    literal_rate = total_rate_exact(
        EX1.with_memory(40.0), pama_allocate(EX1.with_memory(40.0), literal)
    ).total
    assert res.exact.total < literal_rate


def test_reported_rate_non_increasing_and_continuous():
    grid = np.linspace(0.0, 210.0, 841)
    rates = [pama_rate(EX1.with_memory(float(m)), EX1_TABLE).exact.total for m in grid]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    for bp in EX1_TABLE.breakpoints:
        eps = 1e-7
        left = pama_rate(EX1.with_memory(max(0.0, bp.memory - eps)), EX1_TABLE).exact.total
        right = pama_rate(EX1.with_memory(bp.memory + eps), EX1_TABLE).exact.total
        assert abs(left - right) <= 1e-5 * (1.0 + left)


def test_pama_rate_monotone_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(25):
        cfg = _random_config(rng, max_levels=3)
        table = build_threshold_table(cfg)
        grid = np.linspace(0.0, cfg.full_memory * 1.02, 160)
        rates = [pama_rate(cfg.with_memory(float(m)), table).exact.total for m in grid]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_grid_search_single_level_gives_everything_to_it():
    cfg = make_config(4, 30.0, [(100, 2, 1)])
    alloc, rate = grid_search_alpha(cfg, 0.05)
    assert alloc.shares == (30.0,)
    assert rate == pytest.approx(pama_rate(cfg).exact.total, rel=1e-12)


def test_grid_search_zero_memory():
    cfg = make_config(4, 0.0, [(100, 2, 1), (100, 1, 1)])
    _, rate = grid_search_alpha(cfg, 0.05)
    assert rate == cfg.uncached_rate


def test_grid_search_example1_window():
    _, rate = grid_search_alpha(EX1, 0.01)
    assert rate <= 5.6996 + 1e-9
    # grid slack: the oracle may genuinely beat the structured allocation
    assert rate >= 5.6996 - 0.2


def test_grid_search_step_validation():
    with pytest.raises(ValueError):
        grid_search_alpha(EX1, 0.5)


def test_access_opt_single_candidate():
    cfg = make_config(8, 60.0, [(160, 2, 1), (320, 1, 1)])
    degrees, rate = optimize_access_structure(cfg, 1, 2.0)
    assert degrees == (1, 1)
    assert rate == pytest.approx(pama_rate(cfg).exact.total, rel=1e-12)


def test_access_opt_scores_each_candidate_once(monkeypatch):
    cfg = make_config(8, 60.0, [(160, 2, 1), (320, 1, 1)])
    scored = []

    def counting_pama_rate(config, *args):
        scored.append(tuple(lv.access_degree for lv in config.levels))
        return pama_rate(config, *args)

    monkeypatch.setattr(codedcache.pama, "pama_rate", counting_pama_rate)
    degrees, rate = optimize_access_structure(cfg, 2, 2.0)
    assert sorted(scored) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert rate == pama_rate(cfg.with_degrees(degrees)).exact.total


def test_access_opt_infeasible_constraint():
    cfg = make_config(8, 60.0, [(160, 2, 1)])
    with pytest.raises(ConfigError):
        optimize_access_structure(cfg, 3, 0.5)


def test_access_opt_ordering_flips_with_memory():
    levels = [(400, 3, 1), (1300, 2, 1), (8300, 5, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        small = make_config(10, 500.0, levels)
        large = make_config(10, 3000.0, levels)
        d_small, _ = optimize_access_structure(small, 3, 2.0)
        d_large, rate_large = optimize_access_structure(large, 3, 2.0)
    assert d_small[0] >= d_small[1] >= d_small[2]
    assert d_large[0] <= d_large[1] <= d_large[2]
    assert rate_large > 0
