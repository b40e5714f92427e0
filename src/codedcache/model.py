"""Problem-instance data model and validation.

An instance describes a broadcast network of ``K`` access-point caches,
each holding ``M`` file units, serving ``L`` popularity levels.  Level
``i`` contains ``N_i`` equally popular files, has ``U_i`` users attached
to every cache, and an access degree ``d_i``: each level-``i`` user reads
the ``d_i`` consecutive caches starting at its own (cyclically).

Levels are kept sorted by decreasing per-file popularity ``U_i/N_i``.
All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Iterable

import numpy as np


class ConfigError(ValueError):
    """Fatal problem-instance validation failure."""


class ValidationWarning(UserWarning):
    """Non-fatal irregularity in a problem instance."""


def _is_count(value: Any) -> bool:
    """A positive int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _real(value: Any, name: str) -> float:
    """``value`` as a float; bools, strings and other non-numbers are fatal."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _memory(value: Any) -> float:
    """A cache size as a float; it must be a finite, non-negative real."""
    memory = _real(value, "memory")
    if not math.isfinite(memory) or memory < 0:
        raise ConfigError(f"memory must be a finite non-negative real, got {memory!r}")
    return memory


def _memories(values: Iterable[Any]) -> np.ndarray:
    """A memory grid as float64; a valid 1-D numeric array or list of floats
    and ints passes at once, else :func:`_memory` raises at the first bad entry."""
    grid = values if isinstance(values, np.ndarray) else list(values)
    if isinstance(grid, list) and set(map(type, grid)) <= {float, int} or (
        isinstance(grid, np.ndarray) and grid.ndim == 1 and grid.dtype.kind in "fiu"
    ):
        memories = np.asarray(grid, dtype=np.float64)
        if ((0.0 <= memories) & (memories < math.inf)).all():
            return memories
    return np.array([_memory(m) for m in grid], dtype=np.float64)


@dataclass(frozen=True)
class LevelSpec:
    """One popularity level: ``n_files`` files, ``users_per_cache`` users
    attached to every cache, each reading ``access_degree`` consecutive
    caches."""

    n_files: int
    users_per_cache: int
    access_degree: int = 1

    def __post_init__(self) -> None:
        for name in ("n_files", "users_per_cache", "access_degree"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")

    @property
    def popularity(self) -> Fraction:
        """Per-file request share U/N as an exact rational."""
        return Fraction(self.users_per_cache, self.n_files)

    @property
    def full_memory(self) -> float:
        """Memory that stores the whole level: N/d file units."""
        return self.n_files / self.access_degree


@dataclass(frozen=True)
class SystemConfig:
    """A full problem instance.

    Attributes
    ----------
    num_caches : int
        Number of access-point caches K, arranged cyclically.
    memory : float
        Per-cache memory M in file units (real valued to support sweeps).
    levels : tuple of LevelSpec
        Popularity levels, most popular first after validation.
    separation_ratio : float or None
        Optional popularity-separation threshold q > 1.  When given,
        :func:`validate` warns if two levels are closer than q in
        popularity.
    """

    num_caches: int
    memory: float
    levels: tuple[LevelSpec, ...]
    separation_ratio: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def max_degree(self) -> int:
        """Largest access degree D (derived, never stored)."""
        return max(lv.access_degree for lv in self.levels)

    @property
    def uncached_rate(self) -> float:
        """Rate with empty caches: sum of K*U_i over levels."""
        return float(sum(self.num_caches * lv.users_per_cache for lv in self.levels))

    @property
    def full_memory(self) -> float:
        """Memory that stores every level entirely: sum of N_i/d_i."""
        return sum(lv.full_memory for lv in self.levels)

    def with_memory(self, memory: float) -> "SystemConfig":
        """Copy of this instance with a different cache size (for sweeps);
        a bool, non-real, non-finite or negative memory raises
        :class:`ConfigError`."""
        return replace(self, memory=_memory(memory))


def validate(config: SystemConfig) -> SystemConfig:
    """Check an instance against the model's regularity rules.

    Returns the config with levels re-sorted into decreasing popularity
    if needed.  Fatal problems (a non-integer or boolean count, negative
    or non-finite memory, q not finite above 1, more users than files,
    degree exceeding K) raise :class:`ConfigError`; soft irregularities
    (weak popularity separation, degree not dividing K) only emit a
    :class:`ValidationWarning`.

    Idempotent: validating a validated config returns an equal config.
    """
    if not _is_count(config.num_caches):
        raise ConfigError(f"num_caches must be a positive integer, got {config.num_caches!r}")
    _memory(config.memory)
    if not config.levels:
        raise ConfigError("at least one popularity level is required")

    k = config.num_caches
    for idx, lv in enumerate(config.levels):
        if lv.n_files < k * lv.users_per_cache:
            raise ConfigError(
                f"level {idx + 1}: needs at least K*U = {k * lv.users_per_cache} files, "
                f"got {lv.n_files}"
            )
        if lv.access_degree > k:
            raise ConfigError(
                f"level {idx + 1}: access degree {lv.access_degree} exceeds K = {k}"
            )
        if k % lv.access_degree != 0:
            warnings.warn(
                f"level {idx + 1}: degree {lv.access_degree} does not divide K = {k}; "
                "simulation serves wrap-around users uncoded",
                ValidationWarning,
                stacklevel=2,
            )

    # Stable sort keeps equally popular levels in input order.
    ordered = tuple(sorted(config.levels, key=lambda lv: lv.popularity, reverse=True))

    if config.separation_ratio is not None:
        q = _real(config.separation_ratio, "separation_ratio")
        if not math.isfinite(q) or q <= 1:
            raise ConfigError(f"separation_ratio must be finite and exceed 1, got {q!r}")
        for i in range(len(ordered) - 1):
            ratio = ordered[i].popularity / ordered[i + 1].popularity
            if ratio < q:
                warnings.warn(
                    f"levels {i + 1} and {i + 2} are closer in popularity "
                    f"({float(ratio):.4g}) than the separation ratio q = {q:g}",
                    ValidationWarning,
                    stacklevel=2,
                )

    return replace(config, levels=ordered)


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Build a validated config from the JSON instance schema
    ``{"K": int, "M": float, "levels": [{"N", "U", "d"}, ...], "q": float?}``.

    Nothing is coerced: K, N, U and d must be integers, M and q numbers
    (bools are neither), and any other value raises :class:`ConfigError`.
    """
    if not isinstance(data, dict):
        raise ConfigError("instance must be a JSON object")
    known = {"K", "M", "levels", "q"}
    extra = set(data) - known
    if extra:
        warnings.warn(f"ignoring unknown instance fields: {sorted(extra)}", ValidationWarning)
    try:
        k = data["K"]
        m = data["M"]
        raw_levels = data["levels"]
    except KeyError as exc:
        raise ConfigError(f"instance is missing required field {exc.args[0]!r}") from None
    if not isinstance(raw_levels, list) or not raw_levels:
        raise ConfigError('"levels" must be a non-empty list')
    levels = []
    for idx, entry in enumerate(raw_levels):
        if not isinstance(entry, dict) or not {"N", "U", "d"} <= entry.keys():
            raise ConfigError(f"levels[{idx}]: expected an object with fields N, U, d")
        extra = set(entry) - {"N", "U", "d"}
        if extra:
            warnings.warn(
                f"ignoring unknown fields of levels[{idx}]: {sorted(extra)}", ValidationWarning
            )
        try:
            levels.append(LevelSpec(entry["N"], entry["U"], entry["d"]))
        except ConfigError as exc:
            raise ConfigError(f"levels[{idx}]: {exc}") from None
    q = data.get("q")
    config = SystemConfig(
        num_caches=k,
        memory=_real(m, "M"),
        levels=tuple(levels),
        separation_ratio=_real(q, "q") if q is not None else None,
    )
    return validate(config)


def config_to_dict(config: SystemConfig) -> dict[str, Any]:
    """Inverse of :func:`config_from_dict`."""
    data: dict[str, Any] = {
        "K": config.num_caches,
        "M": config.memory,
        "levels": [
            {"N": lv.n_files, "U": lv.users_per_cache, "d": lv.access_degree}
            for lv in config.levels
        ],
    }
    if config.separation_ratio is not None:
        data["q"] = config.separation_ratio
    return data


def config_from_json(text: str) -> SystemConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid instance JSON: {exc}") from None
    return config_from_dict(data)


def config_to_json(config: SystemConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2)


def load_config(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())


def make_config(
    num_caches: int,
    memory: float,
    levels: Iterable[tuple[int, int, int]],
    separation_ratio: float | None = None,
) -> SystemConfig:
    """Shorthand constructor from (N, U, d) triples; validates."""
    specs = tuple(LevelSpec(n, u, d) for n, u, d in levels)
    return validate(
        SystemConfig(
            num_caches=num_caches,
            memory=_real(memory, "memory"),
            levels=specs,
            separation_ratio=separation_ratio,
        )
    )
