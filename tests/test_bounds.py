import hashlib
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import codedcache.bounds
from codedcache.bounds import (
    GAMMA,
    BoundWitness,
    _corollary_blocks,
    _corollary_value,
    _cutset_blocks,
    _cutset_value,
    _first_maxima,
    _noncutset_blocks,
    _noncutset_value,
    best_lower_bound,
    corollary_bound,
    cutset_bound,
    gap_profile,
    k0,
    lower_bounds,
    noncutset_bound,
    optimality_gap_envelope,
)
from codedcache.cli import run
from codedcache.model import ConfigError, make_config
from codedcache.pama import pama_rate
from codedcache.rate import single_level_rate

EX1 = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)])
GAP3LEVEL = Path(__file__).resolve().parents[1] / "configs" / "gap3level.json"


def test_gamma_and_k0():
    assert GAMMA == pytest.approx(1.5820, abs=1e-4)
    assert k0(1, 2) == pytest.approx(16 * 4 * (2 * GAMMA + 1), rel=1e-12)
    assert optimality_gap_envelope(1, 3) == 37 * 8 * 27


def test_cutset_example():
    cfg = make_config(10, 10.0, [(500, 9, 1)])
    w = cutset_bound(cfg, 0, 9)
    assert w.value == pytest.approx(9 - (1 / 55) * 10, rel=1e-12)


def test_cutset_zero_memory_pool_everyone():
    cfg = make_config(10, 0.0, [(500, 9, 1)])
    assert cutset_bound(cfg, 0, 90).value == 90.0


def test_cutset_clamps_at_zero():
    assert cutset_bound(EX1, 0, 9).value == 0.0  # 9 - 100/11 < 0


def test_cutset_range_validation():
    with pytest.raises(ValueError):
        cutset_bound(EX1, 0, 0)
    with pytest.raises(ValueError):
        cutset_bound(EX1, 0, 73)  # exceeds K*U = 72
    cfg = make_config(2, 1.0, [(10, 4, 1)])
    with pytest.raises(ValueError):
        cutset_bound(cfg, 0, 11)  # v > N would zero the floor


def test_noncutset_example():
    cfg = make_config(8, 10.0, [(100, 9, 1), (100, 1, 1)])
    w = noncutset_bound(cfg, 1, {0}, 4, 2)
    assert w.value == pytest.approx(6.0, rel=1e-12)


def test_noncutset_zero_memory_formula():
    cfg = make_config(8, 0.0, [(100, 9, 1), (100, 1, 1)])
    w = noncutset_bound(cfg, 0, frozenset(), 8, 1)
    assert w.value == pytest.approx(0.5 * min(8 * 9, 100 / 8), rel=1e-12)


def test_noncutset_large_b_vanishes():
    cfg = make_config(8, 10.0, [(100, 9, 1), (100, 1, 1)])
    w = noncutset_bound(cfg, 1, frozenset(), 8, 10**6)
    assert w.value <= 0.5 * min(8, 100 / 8) + 1e-6


def test_noncutset_validation():
    with pytest.raises(ValueError):
        noncutset_bound(EX1, 0, {0}, 4, 1)  # l in A
    with pytest.raises(ValueError):
        noncutset_bound(EX1, 0, set(), 0, 1)  # s below degree
    with pytest.raises(ValueError):
        noncutset_bound(EX1, 0, set(), 4, 0)  # b < 1


def test_corollary_examples():
    assert corollary_bound(EX1, {0, 1}, 100).value == pytest.approx(1.0, rel=1e-12)
    zero_m = EX1.with_memory(0.0)
    assert corollary_bound(zero_m, {0, 1}, 1).value == 10.0
    # fully stored level with generous b gives nothing
    cfg = make_config(4, 100.0, [(100, 2, 1)])
    assert corollary_bound(cfg, {0}, 50).value == 0.0


def test_corollary_validation():
    with pytest.raises(ValueError):
        corollary_bound(EX1, set(), 1)
    with pytest.raises(ValueError):
        corollary_bound(EX1, {0}, 0)


BAD_EVALUATIONS = {
    "negative-level": lambda: cutset_bound(EX1, -1, 3),  # would wrap to the last level
    "level-past-end": lambda: cutset_bound(EX1, 2, 3),
    "bool-level": lambda: cutset_bound(EX1, True, 3),
    "float-v": lambda: cutset_bound(EX1, 0, 3.0),
    "fractional-s-b": lambda: noncutset_bound(EX1, 1, [0], 2.5, 1.5),
    "bool-b": lambda: noncutset_bound(EX1, 1, [0], 2, True),
    "negative-l": lambda: noncutset_bound(EX1, -1, [0], 2, 1),
    "negative-A-member": lambda: noncutset_bound(EX1, 1, [-1], 2, 1),  # labelled A=0
    "A-member-past-end": lambda: noncutset_bound(EX1, 0, [5], 2, 1),
    "corollary-bool-b": lambda: corollary_bound(EX1, [0], True),
    "corollary-float-b": lambda: corollary_bound(EX1, [0], 2.0),
    "corollary-A-past-end": lambda: corollary_bound(EX1, [0, 2], 1),
}


@pytest.mark.parametrize("evaluate", BAD_EVALUATIONS.values(), ids=BAD_EVALUATIONS.keys())
def test_evaluators_refuse_bad_arguments(evaluate):
    with pytest.raises(ValueError):
        evaluate()


def test_best_bound_uncached_instance():
    w = best_lower_bound(EX1.with_memory(0.0))
    assert w.value == 72.0
    assert w.kind == "cutset"
    assert dict(w.params) == {"level": 1, "v": 72}


def test_best_bound_fully_stored_single_level():
    cfg = make_config(8, 100.0, [(100, 1, 1)])
    w = best_lower_bound(cfg)
    assert w.value == 0.0
    assert w.kind == "trivial_zero"


def test_best_bound_never_exceeds_achievable():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lcount = int(rng.integers(1, 4))
        k = int(rng.integers(2, 20))
        levels = []
        for _ in range(lcount):
            u = int(rng.integers(1, 5))
            n = k * u * int(rng.integers(1, 25))
            d = int(rng.integers(1, min(5, k) + 1))
            levels.append((n, u, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = make_config(k, 0.0, levels)
            cfg = cfg.with_memory(float(rng.uniform(0, 1.1 * cfg.full_memory)))
            achievable = pama_rate(cfg).exact.total
        assert best_lower_bound(cfg).value <= achievable + 1e-9


def test_best_bound_non_increasing_in_memory():
    values = [
        best_lower_bound(EX1.with_memory(float(m))).value for m in np.linspace(0, 200, 41)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_cutset_sound_against_classic_single_access():
    # At d = 1, U = 1 the bound family must stay below the classic
    # achievable single-access rate.
    for k, n in ((4, 40), (8, 80), (12, 240)):
        cfg = make_config(k, 0.0, [(n, 1, 1)])
        for m in np.linspace(0, n, 21):
            cfg_m = cfg.with_memory(float(m))
            best = max(
                cutset_bound(cfg_m, 0, v).value for v in range(1, min(k, n) + 1)
            )
            assert best <= single_level_rate(float(m), k, n, 1, 1) + 1e-9


def test_gap_profile_reports_unity_when_nothing_sent():
    cfg = make_config(4, 0.0, [(40, 1, 1)])
    profile = gap_profile(cfg, [40.0, 41.0])
    assert [p.ratio for p in profile.points] == [1.0, 1.0]


def test_gap_profile_max_and_argmax():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_config(10, 0.0, [(500, 9, 1), (1500, 5, 3), (8000, 1, 5)])
        profile = gap_profile(cfg, np.geomspace(1, 2599, 12))
    assert profile.max_ratio == max(p.ratio for p in profile.points)
    assert profile.max_ratio <= 45.0


def test_gap_profile_matches_per_point_pama_rate():
    # One batch prices the achievable column; each entry must be the
    # scalar pama_rate bit for bit, d not dividing K included.
    rng = np.random.default_rng(21)
    undivided = 0
    for _ in range(30):
        lcount = int(rng.integers(1, 5))
        k = int(rng.integers(2, 16))
        levels = []
        for _ in range(lcount):
            u = int(rng.integers(1, 5))
            d = int(rng.integers(1, min(4, k) + 1))
            levels.append((k * u * int(rng.integers(1, 20)) + int(rng.integers(0, k)), u, d))
        cfg = _quiet(make_config, k, 0.0, levels)
        undivided += any(k % lv.access_degree for lv in cfg.levels)
        full = cfg.full_memory
        grid = [0.0, 1e-300, *rng.uniform(0, 1.05 * full, 12), full, 1.05 * full, 3 * full]
        for memories in (grid, grid[::-1], np.array(grid)):
            profile = _quiet(gap_profile, cfg, memories)
            witnesses = lower_bounds(cfg, memories)
            assert [p.memory for p in profile.points] == [float(m) for m in memories]
            for p, w in zip(profile.points, witnesses, strict=True):
                exact = _quiet(pama_rate, cfg.with_memory(p.memory)).exact.total
                assert p.achievable == exact, (k, levels, p.memory)
                assert (p.lower_bound, p.witness) == (w.value, w)
    assert undivided >= 5


def test_gap_profile_of_empty_grid():
    assert gap_profile(EX1, []).points == ()
    assert gap_profile(EX1, np.array([])).points == ()


def test_empty_gap_profile_has_no_largest_ratio():
    profile = gap_profile(EX1, [])
    for field in ("max_ratio", "argmax_memory"):
        with pytest.raises(ValueError, match="gap profile is empty"):
            getattr(profile, field)


@pytest.mark.parametrize("memory", [math.nan, -1.0, math.inf, True])
def test_gap_profile_refuses_bad_memory(memory):
    with pytest.raises(ConfigError):
        gap_profile(EX1, [10.0, memory])


def _quiet(build, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build(*args)


# (K, levels, M, kind, params, value) of best_lower_bound.  Most rows sit
# on a tie, where another candidate reaches the same value, so they pin
# the first-maximum enumeration order: over levels and v (cut-set), over
# b rows and windows s (non-cut-set), over b (corollary) and across the
# families.  Two rows pin the formulas' order of summation to the last
# bit.  The 11-level row wins with A = all eleven levels.  The two
# single-level rows with more than 10^4 possible v are searched over the
# ends of the runs of constant ceil(v/U) and floor(N/v), and hold the
# all-v maximum.  Every row but the K = 300 one was computed before the
# bound formulas were shared between the evaluators and the search.
ELEVEN_LEVELS = [(6 * (i + 1) ** 2, 1 + i % 3, 1 + i % 2) for i in range(11)]
PINNED_WITNESSES = [
    (2, [(20, 5, 1), (300, 5, 2)], 0.0, "cutset", (("level", 1), ("v", 10)), 10.0),
    (8, [(36, 1, 1), (130, 1, 3)], 8.0, "cutset", (("level", 2), ("v", 7)), 3.0),
    (300, [(30011, 50, 1)], 100.0, "cutset", (("level", 1), ("v", 7500)), 3750.0),
    (200, [(20000, 60, 1)], 500.0, "cutset", (("level", 1), ("v", 1250)), 593.75),
    (3, [(12, 4, 1), (30, 2, 1)], 3.0, "noncutset", (("l", 2), ("A", "1"), ("s", 2), ("b", 3)), 5.0),
    (6, [(42, 7, 1), (90, 1, 2)], 20.0, "noncutset", (("l", 2), ("A", "1"), ("s", 4), ("b", 6)),
     4.666666666666666),
    (2, [(10, 5, 1), (130, 4, 1), (351, 3, 1)], 10.0, "noncutset",
     (("l", 3), ("A", "1,2"), ("s", 2), ("b", 29)), 7.0),
    (2, [(36, 4, 1), (110, 3, 1)], 8.0, "noncutset", (("l", 2), ("A", "1"), ("s", 2), ("b", 9)),
     6.111111111111111),
    (10, [(500, 9, 1), (1500, 5, 3), (8000, 1, 5)], 300.0, "noncutset",
     (("l", 3), ("A", "1,2"), ("s", 10), ("b", 56)), 9.571428571428573),
    (11, [(330, 6, 1), (623, 2, 2), (3659, 1, 3)], 345.6452380952381, "noncutset",
     (("l", 3), ("A", "1,2"), ("s", 9), ("b", 58)), 3.480254515599344),
    (3, [(32, 3, 1), (380, 1, 3)], 10.0, "corollary", (("A", "1,2"), ("b", 10)), 3.0),
    (6, [(180, 6, 1), (475, 5, 1), (1826, 1, 4)], 666.9, "corollary", (("A", "1,2,3"), ("b", 456)),
     0.9739035087719299),
    (8, [(100, 9, 1), (100, 1, 1)], 199.0, "corollary", (("A", "1,2"), ("b", 100)),
     0.010000000000000009),
    (6, ELEVEN_LEVELS, 475.0, "corollary", (("A", "1,2,3,4,5,6,7,8,9,10,11"), ("b", 96)),
     7.989583333333333),
    (8, [(100, 9, 1), (100, 1, 1)], 200.0, "trivial_zero", (), 0.0),
]


def test_best_bound_pinned_witnesses():
    for k, levels, memory, kind, params, value in PINNED_WITNESSES:
        cfg = _quiet(make_config, k, memory, levels)
        w = best_lower_bound(cfg)
        assert (w.kind, w.params, w.value) == (kind, params, value), (k, levels, memory, w)


def test_lower_bounds_match_per_point_search(monkeypatch):
    # A block of 200 values holds fewer memories than each grid, so every
    # grid is priced in several column blocks.
    monkeypatch.setattr(codedcache.bounds, "PRICE_BLOCK", 200)
    rng = np.random.default_rng(14)
    for _ in range(40):
        lcount = int(rng.integers(1, 4))
        k = int(rng.integers(2, 16))
        levels = []
        for _ in range(lcount):
            u = int(rng.integers(1, 5))
            d = int(rng.integers(1, min(3, k) + 1))
            levels.append((k * u * int(rng.integers(1, 20)) + int(rng.integers(0, k)), u, d))
        cfg = _quiet(make_config, k, 0.0, levels)
        full = cfg.full_memory
        grid = [0.0, 1e-9 * full, *rng.uniform(0, 1.05 * full, 30), full, 1.05 * full]
        batch = lower_bounds(cfg, grid)
        assert len(batch) == len(grid)
        for m, w in zip(grid, batch):
            single = best_lower_bound(cfg.with_memory(m))
            assert (w.kind, w.params, w.value) == (single.kind, single.params, single.value)


def _evaluate(cfg, witness):
    """The public evaluator of a witness's kind at its 1-based parameters."""
    params = dict(witness.params)
    a_set = [int(j) - 1 for j in str(params.get("A", "")).split(",") if j]
    if witness.kind == "cutset":
        return cutset_bound(cfg, params["level"] - 1, params["v"])
    if witness.kind == "noncutset":
        return noncutset_bound(cfg, params["l"] - 1, a_set, params["s"], params["b"])
    return corollary_bound(cfg, a_set, params["b"])


def test_lower_bounds_values_equal_the_public_evaluators(monkeypatch):
    # Each witness value is read from the priced array.  It must be, bit
    # for bit and as a float, the public evaluator of its kind and
    # parameters at that memory.  Blocks of 150 values make every grid
    # span several blocks, and integral memories sit on many ties.
    monkeypatch.setattr(codedcache.bounds, "PRICE_BLOCK", 150)
    rng = np.random.default_rng(26)
    instances = [(_quiet(make_config, k, m, levels), [m]) for k, levels, m, *_ in PINNED_WITNESSES]
    for _ in range(200):
        lcount = int(rng.integers(1, 7))
        k = int(rng.integers(2, 16))
        levels = []
        for _ in range(lcount):
            u = int(rng.integers(1, 5))
            d = int(rng.integers(1, min(4, k) + 1))
            levels.append((k * u * int(rng.integers(1, 20)) + int(rng.integers(0, k)), u, d))
        cfg = _quiet(make_config, k, 0.0, levels)
        full = cfg.full_memory
        grid = [0.0, 1e-300, *rng.uniform(0, 1.05 * full, 8).tolist()]
        grid += [*np.floor(rng.uniform(0, full, 10)).tolist(), math.floor(full), full]
        instances.append((cfg, grid))
    kinds = set()
    undivided = 0
    for cfg, grid in instances:
        undivided += any(cfg.num_caches % lv.access_degree for lv in cfg.levels)
        for m, w in zip(grid, lower_bounds(cfg, grid), strict=True):
            assert type(w.value) is float
            kinds.add(w.kind)
            if w.kind == "trivial_zero":
                assert (w.value, w.params) == (0.0, ())
                continue
            expected = _evaluate(cfg.with_memory(m), w)
            assert (expected.value, expected.kind, expected.params) == (w.value, w.kind, w.params)
            assert math.copysign(1.0, w.value) == 1.0, (cfg, m, w)
    assert kinds == {"cutset", "noncutset", "corollary", "trivial_zero"}
    assert undivided >= 50


def test_gap_profile_takes_a_one_pass_iterable():
    grid = [1.0, 50.0, 150.0, 199.0]
    assert gap_profile(EX1, (m for m in grid)) == gap_profile(EX1, grid)
    assert gap_profile(EX1, iter(np.array(grid))) == gap_profile(EX1, grid)


def test_lower_bounds_of_empty_grid():
    assert lower_bounds(EX1, []) == []


@pytest.mark.parametrize("memory", [-1.0, math.nan, math.inf, True])
def test_lower_bounds_refuse_bad_memory(memory):
    with pytest.raises(ConfigError):
        lower_bounds(EX1, [10.0, memory])


def test_lower_bounds_scratch_memory_is_bounded():
    # 5578 candidates at 2000 memories would be 85 MiB priced at once.
    cfg = _quiet(make_config, 300, 0.0, [(3000, 5, 1), (9000, 3, 2), (60000, 1, 3)])
    grid = np.linspace(0.0, 1.05 * cfg.full_memory, 2000)
    tracemalloc.start()
    try:
        witnesses = lower_bounds(cfg, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(witnesses) == 2000
    assert peak <= 8 * 2**20


def test_gap_profile_scratch_memory_is_bounded():
    # 10,000 memories of an L=4 instance: about 21 MiB with the
    # achievable column priced at once; the profile itself keeps 3 MiB.
    cfg = _quiet(make_config, 12, 900.0, [(400, 3, 1), (900, 2, 2), (3000, 1, 3), (8000, 1, 5)])
    grid = np.linspace(0.0, cfg.full_memory, 10_000)
    tracemalloc.start()
    try:
        profile = gap_profile(cfg, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(profile.points) == 10_000
    assert peak <= 14 * 2**20


def test_gap_profile_keeps_few_bytes_per_point():
    # A point keeps a GapPoint, a BoundWitness and their floats: about
    # 232 bytes with slots, 312 with a __dict__ on each dataclass.
    cfg = _quiet(make_config, 12, 900.0, [(400, 3, 1), (900, 2, 2), (3000, 1, 3), (8000, 1, 5)])
    grid = np.linspace(0.0, cfg.full_memory, 20_000)
    gap_profile(cfg, grid[:100])
    tracemalloc.start()
    try:
        profile = gap_profile(cfg, grid)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(profile.points) == 20_000
    assert kept <= 260 * 20_000


def test_gap_cli_output_pinned(capsys):
    assert _quiet(run, ["gap", "--config", str(GAP3LEVEL)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6a154f7f377e5d5adebf565a015f6a621e8591166fdf69ff5185778d1c34c3b6"
    )


# Reference searches over the full spaces the best-bound search once
# enumerated: every v, every subset A of the eligible levels (the empty
# one too, for the non-cut-set family), and for the corollary the powers
# of two beside the switch-point neighbours.  Each takes the first strict
# maximum in the old enumeration order.
def _first_strict_max(best, values, witness):
    pos = np.unravel_index(int(np.argmax(values)), values.shape)
    return witness(*pos) if values[pos] > best.value else best


def _all_subsets(levels):
    return [
        frozenset(x for i, x in enumerate(levels) if mask >> i & 1)
        for mask in range(1 << len(levels))
    ]


def _reference_cutset(cfg):
    best = BoundWitness(0.0, "trivial_zero")
    for idx, lv in enumerate(cfg.levels):
        v = np.arange(1, min(cfg.num_caches * lv.users_per_cache, lv.n_files) + 1)
        best = _first_strict_max(
            best,
            _cutset_value(cfg, idx, v, cfg.memory),
            lambda i: cutset_bound(cfg, idx, int(v[i])),
        )
    return best


def _reference_noncutset(cfg):
    best = BoundWitness(0.0, "trivial_zero")
    for l, lv in enumerate(cfg.levels):
        d_l = lv.access_degree
        s = np.arange(d_l, cfg.num_caches + 1, dtype=np.float64)
        eligible = [
            j
            for j in range(l)
            if cfg.levels[j].access_degree <= d_l
            and cfg.levels[j].popularity > lv.popularity
        ]
        head_switch = lv.n_files / (s * (s - d_l + 1) * lv.users_per_cache)
        for a in _all_subsets(eligible):
            tails = [
                np.full_like(s, cfg.levels[j].n_files)
                / (cfg.levels[j].access_degree * cfg.levels[j].users_per_cache)
                for j in a
            ]
            switches = np.vstack([head_switch, *tails])
            rounded = np.stack([np.floor(switches), np.ceil(switches)], axis=1)
            b = np.vstack([np.ones_like(s), np.maximum(1.0, rounded.reshape(-1, s.size))])
            best = _first_strict_max(
                best,
                _noncutset_value(cfg, l, a, s, b, cfg.memory),
                lambda r, c: noncutset_bound(cfg, l, a, int(s[c]), int(b[r, c])),
            )
    return best


def _reference_corollary(cfg):
    best = BoundWitness(0.0, "trivial_zero")
    max_n = max(lv.n_files for lv in cfg.levels)
    powers = {2**e for e in range(max_n.bit_length() + 1)}
    for a in _all_subsets(range(cfg.num_levels))[1:]:
        b = {1} | powers
        for j in a:
            lj = cfg.levels[j]
            x = lj.n_files / (lj.access_degree * lj.users_per_cache)
            b |= {math.floor(x), math.ceil(x)}
        b = np.array(sorted(b))
        best = _first_strict_max(
            best,
            _corollary_value(cfg, a, b, cfg.memory),
            lambda i: corollary_bound(cfg, a, int(b[i])),
        )
    return best


def _reference_instances():
    # Memories are drawn from a continuous range.  At an M that makes a
    # corollary segment exactly flat in b, a power of two inside the
    # segment can beat its ends by a rounding error of a few ulps.
    rng = np.random.default_rng(2024)
    shapes = (
        [(int(rng.integers(1, 5)), int(rng.integers(2, 21)), 8) for _ in range(40)]
        + [(int(rng.integers(1, 3)), int(rng.integers(150, 401)), 120) for _ in range(12)]
        + [(int(rng.integers(11, 13)), int(rng.integers(2, 7)), 4) for _ in range(3)]
    )
    instances = [make_config(300, 100.0, [(30011, 50, 1)])]
    for lcount, k, max_u in shapes:
        levels = []
        for _ in range(lcount):
            u = int(rng.integers(1, max_u + 1))
            d = int(rng.integers(1, min(3, k) + 1))
            levels.append((k * u * int(rng.integers(1, 20)) + int(rng.integers(0, k)), u, d))
        cfg = _quiet(make_config, k, 0.0, levels)
        share = 0.3 if k >= 150 else 1.05
        instances.append(cfg.with_memory(float(rng.uniform(0, share * cfg.full_memory))))
    return instances


def test_search_matches_exhaustive_references():
    def key(w):
        return w.kind, w.params, w.value

    instances = _reference_instances()
    assert any(
        min(cfg.num_caches * lv.users_per_cache, lv.n_files) > 10**4
        for cfg in instances
        for lv in cfg.levels
    )
    assert max(cfg.num_levels for cfg in instances) > 10
    for cfg in instances:
        best = BoundWitness(0.0, "trivial_zero")
        for family, reference in (
            (_cutset_blocks, _reference_cutset),
            (_noncutset_blocks, _reference_noncutset),
            (_corollary_blocks, _reference_corollary),
        ):
            expected = reference(cfg)
            (found,) = _first_maxima(cfg, family(cfg), np.array([cfg.memory]))
            assert key(found) == key(expected), (cfg, family.__name__)
            if expected.value > best.value:
                best = expected
        assert key(best_lower_bound(cfg)) == key(best), cfg
