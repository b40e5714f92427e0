import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from codedcache.model import (
    ConfigError,
    LevelSpec,
    SystemConfig,
    ValidationWarning,
    _memories,
    _memory,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    make_config,
    validate,
)


def test_valid_already_sorted():
    cfg = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)])
    assert [lv.n_files for lv in cfg.levels] == [100, 100]
    assert [lv.users_per_cache for lv in cfg.levels] == [9, 1]


def test_unsorted_levels_get_swapped():
    cfg = make_config(8, 100.0, [(100, 1, 1), (100, 9, 1)])
    assert [lv.users_per_cache for lv in cfg.levels] == [9, 1]


def test_regularity_violation_is_fatal():
    with pytest.raises(ConfigError):
        make_config(8, 100.0, [(50, 9, 1)])


def test_degree_beyond_cache_count_is_fatal():
    with pytest.raises(ConfigError):
        make_config(4, 10.0, [(100, 1, 5)])


def test_negative_memory_is_fatal():
    with pytest.raises(ConfigError):
        make_config(4, -1.0, [(100, 1, 1)])


def test_nonpositive_level_fields_are_fatal():
    with pytest.raises(ConfigError):
        LevelSpec(n_files=0, users_per_cache=1, access_degree=1)
    with pytest.raises(ConfigError):
        LevelSpec(n_files=10, users_per_cache=-2, access_degree=1)


def test_degree_not_dividing_k_warns():
    with pytest.warns(ValidationWarning):
        make_config(10, 5.0, [(300, 1, 3)])


def test_weak_separation_warns():
    with pytest.warns(ValidationWarning):
        make_config(4, 5.0, [(100, 2, 1), (100, 1, 1)], separation_ratio=10.0)


def test_strong_separation_is_silent(recwarn):
    make_config(4, 5.0, [(100, 20, 1), (1000, 1, 1)], separation_ratio=10.0)
    assert not [w for w in recwarn if issubclass(w.category, ValidationWarning)]


def test_validate_is_idempotent():
    cfg = make_config(8, 100.0, [(100, 1, 1), (100, 9, 1)])
    assert validate(cfg) == cfg


def test_equal_popularity_keeps_input_order():
    a = LevelSpec(200, 2, 1)
    b = LevelSpec(100, 1, 2)  # same popularity 1/100
    cfg = validate(SystemConfig(num_caches=4, memory=0.0, levels=(a, b)))
    assert cfg.levels == (a, b)
    cfg2 = validate(SystemConfig(num_caches=4, memory=0.0, levels=(b, a)))
    assert cfg2.levels == (b, a)


@given(
    st.integers(1, 8),
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 30)),
        min_size=1,
        max_size=5,
    ),
)
def test_sorted_levels_satisfy_cross_multiplication(k, raw):
    levels = [(k * u * mult, u, 1) for u, mult in raw]
    cfg = make_config(k, 1.0, levels)
    for i in range(cfg.num_levels):
        for j in range(i + 1, cfg.num_levels):
            a, b = cfg.levels[i], cfg.levels[j]
            assert a.users_per_cache * b.n_files >= b.users_per_cache * a.n_files


def test_derived_quantities():
    cfg = make_config(8, 100.0, [(100, 9, 1), (128, 1, 2)])
    assert cfg.max_degree == 2
    assert cfg.uncached_rate == 8 * 9 + 8 * 1
    assert cfg.full_memory == 100 + 64


def test_json_roundtrip():
    cfg = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)], separation_ratio=2.0)
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_json_field_names():
    data = config_to_dict(make_config(8, 100.0, [(100, 9, 1)]))
    assert set(data) == {"K", "M", "levels"}
    assert set(data["levels"][0]) == {"N", "U", "d"}


def test_json_missing_field_is_fatal():
    with pytest.raises(ConfigError):
        config_from_dict({"K": 4, "levels": [{"N": 100, "U": 1, "d": 1}]})
    with pytest.raises(ConfigError):
        config_from_dict({"K": 4, "M": 1, "levels": [{"N": 100, "U": 1}]})


def test_json_unknown_field_warns():
    with pytest.warns(ValidationWarning):
        config_from_dict(
            {"K": 4, "M": 1, "levels": [{"N": 100, "U": 1, "d": 1}], "extra": 5}
        )


LEVEL = {"N": 100, "U": 1, "d": 1}


def test_json_unknown_level_field_warns():
    # A misplaced "q" and a typo "D" inside a level used to vanish silently.
    data = {"K": 4, "M": 1, "levels": [LEVEL, {"N": 100, "U": 1, "d": 1, "D": 3, "q": 2}]}
    with pytest.warns(ValidationWarning, match=r"levels\[1\]: \['D', 'q'\]"):
        config_from_dict(data)


def test_json_known_level_fields_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config_from_dict({"K": 4, "M": 1, "levels": [LEVEL, LEVEL]})


@pytest.mark.parametrize(
    "data",
    [
        {"K": 8.7, "M": 1, "levels": [LEVEL]},
        {"K": True, "M": 1, "levels": [LEVEL]},
        {"K": "4", "M": 1, "levels": [LEVEL]},
        {"K": 4, "M": 1, "levels": [{"N": 100.9, "U": 1, "d": 1}]},
        {"K": 4, "M": 1, "levels": [{"N": 100.0, "U": 1, "d": 1}]},
        {"K": 4, "M": 1, "levels": [{"N": 100, "U": True, "d": 1}]},
        {"K": 4, "M": 1, "levels": [{"N": 100, "U": 1, "d": 1.5}]},
        {"K": 4, "M": 1, "levels": [{"N": 100, "U": 1, "d": False}]},
        {"K": 4, "M": 1, "levels": [[100, 1, 1]]},
        {"K": 4, "M": True, "levels": [LEVEL]},
        {"K": 4, "M": "1", "levels": [LEVEL]},
        {"K": 4, "M": math.nan, "levels": [LEVEL]},
        {"K": 4, "M": math.inf, "levels": [LEVEL]},
        {"K": 4, "M": 1, "levels": [LEVEL], "q": math.nan},
        {"K": 4, "M": 1, "levels": [LEVEL], "q": math.inf},
        {"K": 4, "M": 1, "levels": [LEVEL], "q": True},
        {"K": 4, "M": 1, "levels": [LEVEL], "q": "2"},
        {"K": 4, "M": 1, "levels": [LEVEL], "q": 1},
    ],
)
def test_json_fields_are_not_coerced(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


@pytest.mark.parametrize("m", [1, 2.5, 0])
def test_json_integer_and_float_memory_load(m):
    cfg = config_from_dict({"K": 4, "M": m, "levels": [LEVEL], "q": 2})
    assert cfg.memory == float(m) and isinstance(cfg.memory, float)
    assert cfg.separation_ratio == 2.0


@pytest.mark.parametrize(
    "fields",
    [
        {"num_caches": True},
        {"num_caches": 4.0},
        {"memory": True},
        {"memory": math.nan},
        {"separation_ratio": math.nan},
        {"separation_ratio": math.inf},
    ],
)
def test_validate_rejects_bool_and_nonfinite_fields(fields):
    base = {"num_caches": 4, "memory": 1.0, "levels": (LevelSpec(100, 1, 1),)}
    with pytest.raises(ConfigError):
        validate(SystemConfig(**{**base, **fields}))


def test_make_config_rejects_bool_memory():
    with pytest.raises(ConfigError):
        make_config(4, True, [(100, 1, 1)])


def test_invalid_json_text():
    with pytest.raises(ConfigError):
        config_from_json("{not json")


def test_with_memory():
    cfg = make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)])
    assert cfg.with_memory(5).memory == 5.0
    assert type(cfg.with_memory(5).memory) is float


@pytest.mark.parametrize("memory", ["5", True, float("nan"), float("inf"), -1.0, None])
def test_with_memory_rejects_non_memory_values(memory):
    cfg = make_config(4, 1.0, [(100, 1, 1)])
    with pytest.raises(ConfigError):
        cfg.with_memory(memory)


@pytest.mark.parametrize(
    "grid",
    [
        [1.0, -2, float("nan")],
        [3, True],
        ["5"],
        [1.0, None],
        [1.0, float("inf")],
        [np.float64(2.0), np.float64(-1.0)],
        np.array([1.0, np.nan, -1.0]),
        np.array([2, -1]),
        np.array([True]),
        np.array([[1.0]]),
    ],
)
def test_memory_grid_refuses_its_first_bad_entry_as_memory_does(grid):
    with pytest.raises(ConfigError) as expected:
        [_memory(m) for m in grid]
    with pytest.raises(ConfigError) as got:
        _memories(grid)
    assert str(got.value) == str(expected.value)


def test_memory_grid_holds_what_memory_returns():
    grids = ([0.0, -0.0, 5, 2.5], np.array([3, 0]), np.linspace(0, 1, 4), [np.float64(1.5), 2], [])
    for grid in grids:
        got = _memories(grid)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([_memory(m) for m in grid], dtype=np.float64).tobytes()
    assert _memories(m for m in (1.0, 2)).tolist() == [1.0, 2.0]
