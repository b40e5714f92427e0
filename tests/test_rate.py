import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedcache.bounds import best_lower_bound
from codedcache.model import ValidationWarning, make_config
from codedcache.pama import pama_rate
from codedcache.rate import (
    RateWarning,
    coded_load,
    lfu_rate,
    single_level_rate,
    small_k_rate,
)


EX1 = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)])


def test_zero_memory_limit():
    assert single_level_rate(0, 8, 100, 9, 1) == 72.0


def test_full_storage_endpoint():
    assert single_level_rate(100, 8, 100, 1, 1) == 0.0


def test_multi_access_value():
    # 4 * (100/50 - 1) * (1 - 0.5^3)
    assert single_level_rate(25, 6, 100, 2, 2) == pytest.approx(3.5, abs=1e-12)


def test_partial_memory_value():
    expected = 9 * (1 / 3) * (1 - 0.25**8)
    assert single_level_rate(75, 8, 100, 9, 1) == pytest.approx(expected, rel=1e-12)


def test_negative_memory_rejected():
    with pytest.raises(ValueError):
        single_level_rate(-1, 8, 100, 9, 1)


def test_oversized_memory_clamps_with_warning():
    with pytest.warns(RateWarning):
        assert single_level_rate(120, 8, 100, 1, 1) == 0.0


def test_single_access_examples():
    assert single_level_rate(50, 2, 100, 1, 1) == pytest.approx(0.75, abs=1e-12)
    assert single_level_rate(100, 5, 100, 1, 1) == 0.0
    assert single_level_rate(0, 5, 100, 1, 1) == 5.0


def test_single_access_special_case():
    # U = d = 1 gives the classic (N/M - 1) * (1 - (1 - M/N)^K).
    for m in np.linspace(5, 75, 15):
        classic = (80 / m - 1) * (1 - (1 - m / 80) ** 7)
        assert single_level_rate(float(m), 7, 80, 1, 1) == pytest.approx(classic, rel=1e-12)


@pytest.mark.parametrize("memory", [1e-15, 1e-12, 1e-9, 1e-6])
def test_tiny_memory_rate_tends_to_uncached_and_stays_above_bound(memory):
    assert single_level_rate(memory, 10, 10**6, 5, 1) == pytest.approx(50.0, rel=1e-9)
    cfg = make_config(10, memory, [(10**6, 5, 1), (10**7, 1, 1)])
    assert pama_rate(cfg).exact.total >= best_lower_bound(cfg).value - 1e-9


@pytest.mark.parametrize("k,n,u,d", [(8, 100, 9, 1), (6, 100, 2, 2), (9, 270, 3, 3)])
def test_monotone_and_convex_in_memory(k, n, u, d):
    grid = np.linspace(0, n / d, 201)
    rates = [single_level_rate(float(m), k, n, u, d) for m in grid]
    diffs = np.diff(rates)
    assert np.all(diffs <= 1e-9)
    assert np.all(np.diff(diffs) >= -1e-9)


@pytest.mark.parametrize("k,n,u,d", [(8, 120, 1, 2), (12, 240, 2, 3), (10, 100, 4, 1)])
def test_color_subsystem_identity(k, n, u, d):
    # d*U copies of the bracketed single-access expression at fraction
    # d*M/N with K/d caches.
    for m in np.linspace(0.01, n / d * 0.99, 23):
        mu = d * m / n
        bracket = (1 / mu - 1) * (1 - (1 - mu) ** (k / d))
        assert single_level_rate(float(m), k, n, u, d) == pytest.approx(
            d * u * bracket, rel=1e-12
        )


@given(
    st.integers(1, 64),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 12),
)
@settings(max_examples=300)
def test_endpoints_exact(k, u, d, mult):
    d = min(d, k)
    n = k * u * mult
    assert single_level_rate(0.0, k, n, u, d) == float(k * u)
    assert single_level_rate(n / d, k, n, u, d) == 0.0


def test_rate_never_exceeds_uncached_cost():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        u = int(rng.integers(1, 6))
        d = int(rng.integers(1, min(k, 6) + 1))
        n = k * u * int(rng.integers(1, 9))
        m = float(rng.uniform(0, n / d))
        assert 0.0 <= single_level_rate(m, k, n, u, d) <= k * u + 1e-9


def test_color_slice_reproduces_level_rate():
    # d*U groups, d colors, each color load is coded_load subfiles of
    # size 1/d files, with K/d caches each holding fraction d*M/N.
    k, n, u, d, m = 6, 12, 2, 2, 3.0
    assert d * u * coded_load(d * m / n, k / d) == pytest.approx(
        single_level_rate(m, k, n, u, d), rel=1e-12
    )


def test_coded_load_endpoints():
    assert coded_load(0.0, 3.5) == 3.5
    assert coded_load(-0.1, 3) == 3.0
    assert coded_load(1.0, 3) == 0.0
    assert coded_load(100.0 / 6, 3) == 0.0
    assert coded_load(0.5, 0) == 0.0
    assert coded_load(1e-300, 7) == 7.0


def test_lfu_example1_full_first_level():
    assert lfu_rate(EX1) == 8.0


def test_lfu_zero_memory_is_uncached_cost():
    assert lfu_rate(EX1.with_memory(0)) == EX1.uncached_rate


def test_lfu_everything_cached():
    assert lfu_rate(EX1.with_memory(200)) == 0.0


def test_lfu_non_increasing_piecewise():
    values = [lfu_rate(EX1.with_memory(float(m))) for m in range(0, 201, 5)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lfu_truncates_fractional_memory():
    assert lfu_rate(EX1.with_memory(99.9)) == lfu_rate(EX1.with_memory(99.0))


def test_small_k_midpoint():
    assert small_k_rate(EX1.with_memory(50)) == pytest.approx(44.0, abs=1e-12)


def test_small_k_endpoints():
    assert small_k_rate(EX1.with_memory(0)) == lfu_rate(EX1.with_memory(0))
    assert small_k_rate(EX1.with_memory(200)) == 0.0


def test_small_k_nonnegative_on_sweep():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        cfg = make_config(3, 0.0, [(30, 5, 1), (60, 2, 2), (90, 1, 3)])
    for m in np.linspace(0, cfg.full_memory * 1.1, 50):
        assert small_k_rate(cfg.with_memory(float(m))) >= 0.0
