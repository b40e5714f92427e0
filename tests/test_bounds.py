import warnings

import numpy as np
import pytest

from codedcache.bounds import (
    GAMMA,
    best_lower_bound,
    corollary_bound,
    cutset_bound,
    gap_profile,
    k0,
    noncutset_bound,
    optimality_gap_envelope,
)
from codedcache.model import make_config
from codedcache.pama import pama_rate
from codedcache.rate import single_level_rate

EX1 = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)])


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
