"""Closed-form achievable broadcast rates.

All rates are normalized by the file size: a rate of 1 means one file's
worth of broadcast bits per delivery round.

The core expression is the single-level multi-access rate

    R(M) = d*U * (N/(d*M) - 1) * (1 - (1 - d*M/N)^(K/d))

for memory M in [0, N/d], which degrades gracefully to K*U at M = 0 and
to 0 at M = N/d.  K/d is evaluated as a real exponent, but the formula
is the scheme's rate only when d divides K, as the paper assumes.  When
it does not, the scheme serves the d-1 wrap-around caches' users uncoded
and the formula undercuts it (0 at full storage where the scheme still
transmits); ROADMAP item 1 plans to price that layout.

With mu = d*M/N this is d*U times the random-placement coded load
(1/mu - 1)(1 - (1 - mu)^k) of k = K/d users (Maddah-Ali & Niesen,
decentralized coded caching).  :func:`coded_load` is the one place that
evaluates it, in a form that stays accurate at tiny mu.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .model import SystemConfig


class RateWarning(UserWarning):
    """Out-of-range memory argument handled by clamping."""


def coded_load(mu: float | np.ndarray, k: float | np.ndarray) -> float | np.ndarray:
    """Expected coded load (1/mu - 1)(1 - (1 - mu)^k), in subfile units,
    of k users whose caches each hold a random fraction mu of every file.

    Evaluated as (1 - mu)/mu * -expm1(k * log1p(-mu)), which does not
    cancel at small mu, and clamped to [0, k].  Exactly k at mu <= 0 and
    exactly 0 at mu >= 1 or k <= 0.

    ``mu`` may also be a float64 array (``k`` a scalar or an array of the
    same shape); the result is then an array equal, lane by lane and bit
    for bit, to the scalar result.
    """
    if type(mu) is np.ndarray:
        return _coded_load_lanes(mu, k)
    if k <= 0 or mu >= 1.0:
        return 0.0
    if mu <= 0.0:
        return float(k)
    value = _open_load(mu, k, math.log1p, math.expm1)
    # Both factors are >= 0, so only the upper clamp can bite: rounding,
    # or NaN from overflow at subnormal mu, where the limit is k.
    return value if value < k else float(k)


def _open_load(mu, k, log1p, expm1):
    """The coded load for 0 < mu < 1 and k > 0, before clamping."""
    return (1.0 - mu) / mu * -expm1(k * log1p(-mu))


def _libm(func):
    """Apply a ``math`` function to each lane of an array.  NumPy's SIMD
    log1p and expm1 can differ from libm in the last ulp, and the array
    path must equal the scalar one exactly."""
    return lambda values: np.fromiter(map(func, values.tolist()), np.float64, values.size)


def _coded_load_lanes(mu: np.ndarray, k: float | np.ndarray) -> np.ndarray:
    mu, k = np.broadcast_arrays(mu.astype(np.float64), np.asarray(k, dtype=np.float64))
    endpoint = (k <= 0) | (mu >= 1.0)
    load = np.where(endpoint, 0.0, k)
    # Every other lane, NaN included, takes the formula, as in the scalar path.
    open_ = ~(endpoint | (mu <= 0.0))
    mu, k = mu[open_], k[open_]
    with np.errstate(over="ignore", invalid="ignore"):
        value = _open_load(mu, k, _libm(math.log1p), _libm(math.expm1))
    load[open_] = np.where(value < k, value, k)
    return load


def single_level_rate(
    memory: float,
    num_caches: int,
    n_files: int,
    users_per_cache: int,
    degree: int = 1,
) -> float:
    """Achievable rate of one level served alone with the given memory.

    Parameters
    ----------
    memory : float
        Per-cache memory devoted to this level, in file units.
    num_caches, n_files, users_per_cache, degree : int
        K, N, U and d for the level.

    Returns
    -------
    float
        Rate in files per round; K*U at memory 0, exactly 0 at
        memory >= N/degree.  Non-increasing and convex in memory.
    """
    if memory < 0:
        raise ValueError(f"memory must be non-negative, got {memory!r}")
    cap = n_files / degree
    if memory >= cap:
        if memory > cap * (1 + 1e-12):
            warnings.warn(
                f"memory {memory:g} exceeds N/d = {cap:g}; clamping to full storage",
                RateWarning,
                stacklevel=2,
            )
        return 0.0
    if memory == 0:
        return float(num_caches * users_per_cache)
    mu = degree * memory / n_files
    return degree * users_per_cache * coded_load(mu, num_caches / degree)


def lfu_rate(config: SystemConfig) -> float:
    """Worst-case rate of the least-frequently-used baseline.

    Every cache stores the floor(M) most popular whole files, filled in
    popularity order across levels; each distinct requested file outside
    the stored set costs one file transmission, and at most K*U_i
    distinct level-i files can be requested.
    """
    remaining = int(math.floor(config.memory))
    rate = 0.0
    for lv in config.levels:
        stored = min(lv.n_files, max(0, remaining))
        remaining -= stored
        rate += min(
            config.num_caches * lv.users_per_cache,
            lv.n_files - stored,
        )
    return float(rate)


def small_k_rate(config: SystemConfig) -> float:
    """Rate of the simplified scheme used when the cache count is small.

    Finds the unique level i* whose storage window contains M, fully
    stores the more popular levels, caches level i* linearly, and leaves
    the rest uncached:

        R = sum_{h > i*} K*U_h + K*U_{i*} * (1 - (M - T)/ (N_{i*}/d_{i*}))

    where T is the memory spent on the fully stored levels.
    """
    k = config.num_caches
    m = config.memory
    prefix = 0.0
    for idx, lv in enumerate(config.levels):
        cap = lv.full_memory
        if m < prefix + cap:
            tail = sum(
                k * other.users_per_cache for other in config.levels[idx + 1 :]
            )
            return float(tail + k * lv.users_per_cache * (1.0 - (m - prefix) / cap))
        prefix += cap
    return 0.0
