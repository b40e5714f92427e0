import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import codedcache.pama
from codedcache.acceptance import _any_instance
from codedcache.model import ConfigError, ValidationWarning, make_config
from codedcache.pama import (
    Allocation,
    ClosedFormRate,
    Partition,
    _level_arrays,
    build_threshold_table,
    candidate_partitions,
    grid_search_alpha,
    optimize_access_structure,
    pama_allocate,
    pama_rate,
    pama_memories,
    pama_totals,
    table_splits,
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


def test_closed_form_division_by_zero_is_inf_and_out_of_validity():
    part = Partition(frozenset({1}), frozenset({0}), frozenset())
    closed = total_rate_closed_form(EX1.with_memory(0.0), part)
    assert closed == ClosedFormRate(math.inf, False)


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
    res = pama_rate(EX1.with_memory(40.0))
    assert res.partition.label() == "H=2;I=1;J="
    literal = candidate_partitions(EX1_TABLE, 40.0)[-1]
    assert literal.label() == "H=;I=1,2;J="
    literal_rate = total_rate_exact(
        EX1.with_memory(40.0), pama_allocate(EX1.with_memory(40.0), literal)
    ).total
    assert res.exact.total < literal_rate


def test_reported_rate_non_increasing_and_continuous():
    grid = np.linspace(0.0, 210.0, 841)
    rates = [pama_rate(EX1.with_memory(float(m))).exact.total for m in grid]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    for bp in EX1_TABLE.breakpoints:
        eps = 1e-7
        left = pama_rate(EX1.with_memory(max(0.0, bp.memory - eps))).exact.total
        right = pama_rate(EX1.with_memory(bp.memory + eps)).exact.total
        assert abs(left - right) <= 1e-5 * (1.0 + left)


def test_pama_rate_monotone_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(25):
        cfg = _random_config(rng, max_levels=3)
        grid = np.linspace(0.0, cfg.full_memory * 1.02, 160)
        rates = [pama_rate(cfg.with_memory(float(m))).exact.total for m in grid]
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


def _reference_grid_search(config, grid_step):
    """grid_search_alpha as it priced one simplex point at a time."""
    lcount = config.num_levels
    steps = round(1.0 / grid_step)
    m = config.memory
    caps = [lv.full_memory for lv in config.levels]
    best_rate = math.inf
    best_shares = tuple(0.0 for _ in range(lcount))
    if m == 0 or lcount == 1:
        shares = tuple(min(m, caps[i]) if i == 0 else 0.0 for i in range(lcount))
        alloc = Allocation(shares=shares)
        return alloc, total_rate_exact(config, alloc).total
    for head in itertools.product(range(steps + 1), repeat=lcount - 1):
        used = sum(head)
        if used > steps:
            continue
        alphas = list(head) + [steps - used]
        shares = tuple(min(alphas[i] * m / steps, caps[i]) for i in range(lcount))
        rate = total_rate_exact(config, Allocation(shares=shares)).total
        if rate < best_rate - 1e-15:
            best_rate = rate
            best_shares = shares
    return Allocation(shares=best_shares), best_rate


def _quiet_config(k, memory, levels):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        return make_config(k, memory, levels)


def _walk(rates, width=1):
    """_first_best over one candidate per rate, each priced by its index."""
    prices = np.array(rates)
    candidates = ((i,) * width for i in range(len(rates)))
    return codedcache.pama._first_best(candidates, width, lambda rows: prices[rows[:, 0]])


@pytest.mark.parametrize("block", [None, 2])
def test_first_best_keeps_the_first_of_near_ties(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(codedcache.pama, "SEARCH_BLOCK", block)
    # Near 1 the float64 spacing (1.1e-16) resolves the 1e-15 margin.
    assert _walk([1.0, 1.0, 1.0]) == ((0,), 1.0)
    assert _walk([1.0, 1.0 - 0.9e-15]) == ((0,), 1.0)
    # The third beats the kept best, 1.0, not the second, by 1e-15.
    assert _walk([1.0, 1.0 - 0.6e-15, 1.0 - 1.2e-15]) == ((2,), 1.0 - 1.2e-15)
    assert _walk([7.0, 6.0, 9.0, 6.0, 3.0, 3.0], width=2) == ((4, 4), 3.0)


def test_first_best_prices_one_empty_tuple_at_width_zero():
    blocks = []

    def price(rows):
        blocks.append(rows.shape)
        return np.array([4.0])

    assert codedcache.pama._first_best(iter([()]), 0, price) == ((), 4.0)
    assert blocks == [(1, 0)]


def test_grid_search_matches_point_by_point_reference(monkeypatch):
    # A block of 7 points splits every simplex mid-row.
    monkeypatch.setattr(codedcache.pama, "SEARCH_BLOCK", 7)
    same = [(60, 2, 1)] * 3
    caps = [(20, 1, 1), (200, 2, 2), (40, 1, 4)]
    cases = [
        # Identical levels: every permutation of a split ties.
        (_quiet_config(6, 45.0, same), 0.05),
        (_quiet_config(6, 90.0, same[:2]), 0.01),
        # Most points hit at least one storage cap.
        (_quiet_config(4, 0.9 * (20 + 100 + 10), caps), 0.05),
        (_quiet_config(4, 2.0 * (20 + 100 + 10), caps), 0.1),
        (_quiet_config(4, 0.0, caps), 0.05),
        (_quiet_config(4, 33.0, [(100, 2, 1)]), 0.05),
    ]
    rng = np.random.default_rng(15)
    for _ in range(30):
        cfg = _random_config(rng)
        memory = float(rng.uniform(0.0, 1.1)) * cfg.full_memory
        step = float(rng.choice([0.1, 0.05, 0.04, 0.03]))
        cases.append((cfg.with_memory(memory), step))
    for cfg, step in cases:
        assert repr(grid_search_alpha(cfg, step)) == repr(_reference_grid_search(cfg, step))
    assert {cfg.num_levels for cfg, _ in cases} == {1, 2, 3, 4}


def test_grid_search_scratch_memory_is_bounded():
    # 23,426 points of an L=4 simplex, about 10 MiB if priced at once.
    cfg = _quiet_config(12, 0.0, [(400, 3, 1), (900, 2, 2), (3000, 1, 3), (8000, 1, 5)])
    cfg = cfg.with_memory(0.6 * cfg.full_memory)
    tracemalloc.start()
    try:
        grid_search_alpha(cfg, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_grid_search_prices_each_level_share_once(monkeypatch):
    # 1,771 points of an L=4 simplex at 20 intervals, but each level's
    # share takes only 21 values.
    cfg = _quiet_config(12, 0.0, [(400, 3, 1), (900, 2, 2), (3000, 1, 3), (8000, 1, 5)])
    cfg = cfg.with_memory(0.6 * cfg.full_memory)
    lanes = {"level_rates": 0, "coded_load": 0}

    def counted(name, func):
        def wrapper(first, *args):
            lanes[name] += np.size(first)
            return func(first, *args)

        return wrapper

    monkeypatch.setattr(
        codedcache.pama, "_level_rates", counted("level_rates", codedcache.pama._level_rates)
    )
    monkeypatch.setattr(
        codedcache.pama, "coded_load", counted("coded_load", codedcache.pama.coded_load)
    )
    grid_search_alpha(cfg, 0.05)
    assert 0 < lanes["coded_load"] <= lanes["level_rates"] <= 4 * 21


def test_grid_search_fine_step_memory_is_the_table_plus_bounded_scratch():
    # 100,001 table rows: built in one piece, the per-lane pricing alone
    # would hold about 20 MiB.  The walk's itertools.combinations keeps
    # its pool, 100,001 ints, for the whole search; that is not scratch.
    cfg = _quiet_config(6, 0.0, [(60, 2, 1), (240, 1, 2)])
    cfg = cfg.with_memory(0.5 * cfg.full_memory)
    steps = 100_000
    tracemalloc.start()
    try:
        pool = tuple(range(steps + 1))
        pool_bytes, _ = tracemalloc.get_traced_memory()
        del pool
        tracemalloc.reset_peak()
        grid_search_alpha(cfg, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= pool_bytes + 4 * 2**20 + 8 * 2 * (steps + 1)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_one_instance_memory_grid_equals_pama_rate_bit_for_bit():
    # pama_memories passes its instance as one (1, L) row with a (rows,)
    # memory grid.  Every row must equal pama_rate at that memory (total,
    # split, shares and per-level rates) and the (rows, L) batch that
    # repeats the instance once per memory; so must a batch of several
    # instances, each at its own memory.
    rng = np.random.default_rng(26)
    undivided = 0
    by_width = {}
    for _ in range(60):
        cfg = _random_config(rng, max_levels=5)
        undivided += any(cfg.num_caches % lv.access_degree for lv in cfg.levels)
        table = build_threshold_table(cfg)
        splits = table_splits(table)
        full = cfg.full_memory
        grid = np.array(
            [0.0, 1e-300, *(bp.memory for bp in table.breakpoints), *rng.uniform(0, full, 8)]
            + [full, 1.1 * full]
        )
        arrays = _level_arrays(cfg)
        one = pama_memories(cfg, grid)
        shape = (grid.size, cfg.num_levels)
        repeated = pama_totals(*(np.broadcast_to(a, shape) for a in arrays), cfg.num_caches, grid)
        for field in ("total", "prefix", "shares", "rates"):
            assert _same_bits(getattr(one, field), getattr(repeated, field)), field
        for r, m in enumerate(grid.tolist()):
            want = pama_rate(cfg.with_memory(m))
            assert _same_bits(one.total[r], np.float64(want.exact.total)), (cfg, m)
            assert splits[one.prefix[r]] == want.partition
            assert _same_bits(one.shares[r], np.array(want.allocation.shares))
            assert _same_bits(one.rates[r], np.array(want.exact.per_level))
        by_width.setdefault((cfg.num_caches, cfg.num_levels), []).append((arrays, grid[-3], one))
    assert undivided >= 10
    for (k, _), group in by_width.items():
        stacked = [np.stack([arrays[i] for arrays, _, _ in group]) for i in range(3)]
        memory = np.array([m for _, m, _ in group])
        batch = pama_totals(*stacked, k, memory)
        assert _same_bits(batch.total, np.array([one.total[-3] for _, _, one in group]))
        assert _same_bits(batch.shares, np.stack([one.shares[-3] for _, _, one in group]))


def test_access_opt_single_candidate():
    cfg = make_config(8, 60.0, [(160, 2, 1), (320, 1, 1)])
    degrees, rate = optimize_access_structure(cfg, 1, 2.0)
    assert degrees == (1, 1)
    assert rate == pytest.approx(pama_rate(cfg).exact.total, rel=1e-12)


def test_access_opt_scores_each_candidate_once(monkeypatch):
    cfg = make_config(8, 60.0, [(160, 2, 1), (320, 1, 1)])
    batches = []

    def recording_pama_totals(n_files, users, degrees, num_caches, memory):
        batches.append((n_files.tolist(), users.tolist(), degrees.tolist(), num_caches, memory))
        return pama_totals(n_files, users, degrees, num_caches, memory)

    monkeypatch.setattr(codedcache.pama, "pama_totals", recording_pama_totals)
    degrees, rate = optimize_access_structure(cfg, 2, 2.0)
    assert len(batches) == 1
    n_files, users, rows, num_caches, memory = batches[0]
    assert sorted(map(tuple, rows)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert n_files == [[160, 320]] * 4 and users == [[2, 1]] * 4
    assert (num_caches, memory) == (8, 60.0)
    assert rate == pama_rate(_with_degrees(cfg, degrees)).exact.total


def _with_degrees(config, degrees):
    levels = tuple(replace(lv, access_degree=d) for lv, d in zip(config.levels, degrees))
    return replace(config, levels=levels)


def _reference_access_opt(config, max_degree, avg_degree):
    """optimize_access_structure with one pama_rate call per degree
    vector, the same candidates and the same tie rule."""
    users = [lv.users_per_cache for lv in config.levels]
    scored = []
    top = min(max_degree, config.num_caches)
    for degrees in itertools.product(range(1, top + 1), repeat=config.num_levels):
        if sum(u * d for u, d in zip(users, degrees)) / sum(users) <= avg_degree + 1e-12:
            rate = pama_rate(_with_degrees(config, degrees)).exact.total
            scored.append((round(rate, 9), sum(degrees), degrees, rate))
    if not scored:
        raise ConfigError("no degree vector")
    _, _, best, best_rate = min(scored)
    return best, best_rate


def test_access_opt_matches_per_vector_pama_rate(monkeypatch):
    # A block of 5 vectors makes most draws span several pama_totals calls.
    monkeypatch.setattr(codedcache.pama, "SEARCH_BLOCK", 5)
    rng = np.random.default_rng(18)
    refused = 0
    for _ in range(120):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            cfg = _any_instance(rng)
        dmax, davg = int(rng.integers(0, 5)), float(rng.uniform(0.5, 4.0))
        try:
            want = _reference_access_opt(cfg, dmax, davg)
        except ConfigError:
            refused += 1
            with pytest.raises(ConfigError):
                optimize_access_structure(cfg, dmax, davg)
            continue
        assert optimize_access_structure(cfg, dmax, davg) == want
    assert 0 < refused < 60


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


def test_tie_band_keeps_its_absolute_term():
    # The rate is about 1e-15 here, where a band of 1e-12 * total alone
    # would lie below the totals' rounding: only the absolute 1e-12 term
    # lets the later, literal split win.
    cfg = make_config(17, 407.99999999999994, [(68, 2, 1), (136, 2, 1), (204, 3, 1)])
    batch = pama_memories(cfg, np.array([cfg.memory]))
    assert batch.prefix.tolist() == [5]
    assert 0.0 < batch.total[0] < 1e-14
    totals = pama_totals(*_level_arrays(cfg)[:, None, :], cfg.num_caches, cfg.memory)
    assert totals.prefix.tolist() == [5]
    part = pama_rate(cfg).partition
    assert (part.h_set, part.i_set, part.j_set) == (set(), {2}, {0, 1})
