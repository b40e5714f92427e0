import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from codedcache import cli, pama
from codedcache.cli import _fmt, build_parser, run
from codedcache.model import (
    ValidationWarning,
    config_from_json,
    config_to_json,
    make_config,
)
from codedcache.pama import (
    build_threshold_table,
    candidate_partitions,
    grid_search_alpha,
    pama_allocate,
    pama_rate,
    total_rate_closed_form,
    total_rate_exact,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = CONFIGS.parent / "src"
EX1_JSON = config_to_json(make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)]))


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(EX1_JSON)
    return str(path)


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 64
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["rate", "--config", "x.json", "--bogus"]) == 64


def test_missing_config_file_is_runtime_error(capsys):
    assert run(["rate", "--config", "/nonexistent.json"]) == 3


def test_invalid_instance_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 8, "M": 1, "levels": [{"N": 5, "U": 9, "d": 1}]}')
    assert run(["pama", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_non_integral_instance_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 8.7, "M": 1, "levels": [{"N": 100, "U": 1, "d": 1}]}')
    assert run(["rate", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_pama_summary_reproduces_reference_point(ex1_path, tmp_path):
    summary_path = tmp_path / "summary.json"
    out_path = tmp_path / "pama.csv"
    code = run(
        ["pama", "--config", ex1_path, "--out", str(out_path), "--summary", str(summary_path)]
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["partition"] == "H=;I=1,2;J="
    assert summary["shares"] == [75.0, 25.0]
    assert summary["R_closed"] == pytest.approx(6.0, abs=1e-9)
    assert summary["R_exact"] == pytest.approx(5.6996, abs=1e-3)


def test_pama_grid_step_reports_oracle(ex1_path, tmp_path):
    summary_path = tmp_path / "summary.json"
    assert (
        run(["pama", "--config", ex1_path, "--grid-step", "0.01",
             "--summary", str(summary_path), "--out", str(tmp_path / "o.csv")])
        == 0
    )
    summary = json.loads(summary_path.read_text())
    assert summary["oracle_rate"] <= summary["R_exact"] + 1e-9


def test_sweep_rows_and_monotonicity(ex1_path, tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", ex1_path, "--m", "0:250:100", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    data = [line.split(",") for line in lines if line and not line.startswith("#")]
    header, rows = data[0], data[1:]
    assert len(rows) == 100
    col = header.index("R_exact")
    rates = [float(r[col]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_sweep_deterministic_bytes(ex1_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["sweep", "--config", ex1_path, "--m", "0:250:50", "--out", str(a)])
    run(["sweep", "--config", ex1_path, "--m", "0:250:50", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bad_mspec_is_validation_error(ex1_path):
    assert run(["sweep", "--config", ex1_path, "--m", "nope"]) == 2
    assert run(["sweep", "--config", ex1_path, "--m", "0:10:1"]) == 2
    assert run(["sweep", "--config", ex1_path, "--m", "0:10:5:log"]) == 2
    assert run(["sweep", "--config", ex1_path, "--m", "1:0:5:log"]) == 2


@pytest.mark.parametrize("mspec", ["--m=-5:10:3", "--m=nan:1:3"])
def test_sweep_refuses_a_bad_memory_before_pricing(ex1_path, mspec, capsys):
    assert run(["sweep", "--config", ex1_path, mspec]) == 2
    assert capsys.readouterr().err.startswith("error: memory must be a finite non-negative")


@pytest.mark.parametrize(
    "argv, shown",
    [
        ("sweep --config {}/example1.json --m 0:inf:3", "got inf"),
        ("bounds --config {}/example1.json --m 0:nan:3", "got nan"),
        ("gap --config {}/example1.json --m=-1:5:3", "got -1.0"),
    ],
)
def test_bad_mspec_bound_is_refused_cleanly_with_warnings_as_errors(argv, shown):
    # A non-finite MIN or MAX is refused before numpy builds the grid, so
    # no RuntimeWarning can turn into a traceback, and the message shows a
    # plain float.
    proc = subprocess.run(
        [sys.executable, "-m", "codedcache.cli", *argv.format(CONFIGS).split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: memory must be a finite non-negative real, {shown}\n"


def test_reused_parser_keeps_no_state_between_runs(ex1_path, tmp_path, capsys):
    assert build_parser() is build_parser()
    assert run(["sweep", "--config", ex1_path, "--bogus"]) == 64
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", ex1_path, "--m", "0::5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(["sweep", "--config", ex1_path, "--m", "0::5"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _reference_sweep(config, table, grid):
    """Sweep rows and summary priced one memory at a time through
    pama_rate, as sweep once did, and how many rows the 1e-12 tie rule
    decided (the rate is not the cheapest reachable split's)."""
    lines, last, decisive = [], None, 0
    for m in grid:
        at = config.with_memory(m)
        res = pama_rate(at)
        closed = total_rate_closed_form(at, res.partition)
        shares = ",".join(_fmt(s) for s in res.allocation.shares)
        rates = ",".join(_fmt(r) for r in res.exact.per_level)
        lines.append(
            f"{_fmt(m)},{_fmt(res.exact.total)},{_fmt(closed.value)},"
            f"\"{res.partition.label()}\",{shares},{rates}"
        )
        last = {
            "M": m,
            "partition": res.partition.label(),
            "shares": list(res.allocation.shares),
            "R_exact": res.exact.total,
            "R_closed": closed.value,
            "closed_in_validity": closed.in_validity,
            "per_level_rates": list(res.exact.per_level),
        }
        totals = [
            total_rate_exact(at, pama_allocate(at, part)).total
            for part in candidate_partitions(table, m)
        ]
        decisive += res.exact.total != min(totals)
    summary = json.dumps({"points": len(grid), "last": last}, indent=2, sort_keys=True)
    return lines, summary + "\n", decisive


def test_sweep_rows_match_per_point_pama_rate(tmp_path, monkeypatch, capsys):
    # A block of 7 memories makes most grids span several blocks.
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
    rng = np.random.default_rng(15)
    decisive = non_dividing = undefined_closed = 0
    last_kinds = set()
    for i in range(40):
        lcount = 1 + i % 4
        k = int(rng.integers(2, 13))
        levels = []
        for _ in range(lcount):
            u = int(rng.integers(1, 5))
            d = int(rng.integers(1, min(5, k) + 1))
            non_dividing += k % d != 0
            levels.append((k * u * int(rng.integers(1, 12)) + int(rng.integers(0, k)), u, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            cfg = make_config(k, 0.0, levels)
        table = build_threshold_table(cfg)
        full = cfg.full_memory
        # Every breakpoint Y_t, M = 0, full storage and beyond it; the
        # last memory, which the summary reports, rotates between kinds.
        grid = [
            0.0,
            *(bp.memory for bp in table.breakpoints),
            *rng.uniform(0.0, full, 10).tolist(),
            full,
            1.1 * full,
        ]
        grid.append([0.0, float(rng.uniform(0.0, full)), 1.1 * full][i % 3])
        path = tmp_path / "instance.json"
        path.write_text(config_to_json(cfg))
        monkeypatch.setattr(cli, "_parse_mspec", lambda text, default_max: np.array(grid))
        summary = tmp_path / "summary.json"
        argv = ["sweep", "--config", str(path), "--m", "grid", "--summary", str(summary)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            assert run(argv) == 0
        lines, expected_summary, tied = _reference_sweep(cfg, table, grid)
        assert capsys.readouterr().out.splitlines()[2:] == lines
        assert summary.read_text() == expected_summary
        decisive += tied
        undefined_closed += sum(",inf," in line for line in lines)
        last_kinds.add(json.loads(expected_summary)["last"]["closed_in_validity"])
    assert decisive > 0 and non_dividing > 0 and undefined_closed > 0
    assert last_kinds == {True, False}


def test_sweep_scratch_memory_is_bounded(tmp_path):
    # 10,000 memories of an L=4 instance, about 26 MiB priced at once;
    # the CSV lines themselves take about 3 MiB.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        cfg = make_config(12, 0.0, [(400, 3, 1), (900, 2, 2), (3000, 1, 3), (8000, 1, 5)])
    path = tmp_path / "instance.json"
    path.write_text(config_to_json(cfg))
    argv = ["sweep", "--config", str(path), "--m", "0::10000", "--out", str(tmp_path / "o.csv")]
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            assert run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize(
    "value",
    [0.0, 1e-300, 1 / 3, 2.5e17, 123456789.5, 7, float("inf"), -float("inf"), np.float64(0.1)],
)
def test_row_formats_print_what_fmt_prints(value):
    v = _fmt(value)
    assert cli._BOUNDS_ROW.format(value, value, "cutset", "v=1") == f'{v},{v},cutset,"v=1"'
    gap = cli._GAP_ROW.format(value, value, value, value, "cutset", "v=1")
    assert gap == f'{v},{v},{v},{v},cutset,"v=1"'
    pama = cli._pama_line(value, value, value, "H=1;I=;J=", (value, 0.5), (value, 2.0))
    assert pama == f'{v},{v},{v},"H=1;I=;J=",{v},0.5,{v},2'


def test_fmt_keeps_the_sign_of_infinity():
    assert [_fmt(v) for v in (math.inf, -math.inf, np.float64(-np.inf))] == ["inf", "-inf", "-inf"]


def test_gap_subcommand(ex1_path, tmp_path, capsys):
    summary_path = tmp_path / "gap.json"
    assert (
        run(["gap", "--config", ex1_path, "--m", "1:190:6:log", "--summary", str(summary_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert "witness_kind" in out
    summary = json.loads(summary_path.read_text())
    assert summary["max_ratio"] >= 1.0


def test_bounds_subcommand(ex1_path, capsys):
    assert run(["bounds", "--config", ex1_path]) == 0
    out = capsys.readouterr().out
    assert "best_LB" in out


def test_rate_subcommand(ex1_path, capsys):
    assert run(["rate", "--config", ex1_path]) == 0
    assert "R_single_level" in capsys.readouterr().out


# sha256 of stdout and of the --summary file, computed when `rate` priced
# each level with its own single_level_rate call.  None keeps the
# config's memory; 5000 is past full storage for every level of both.
RATE_PINS = [
    ("example1", None,
     "0693a2321ebe3b0c1f1639d3b9b61438ab4cf4e070ae69b5ecd990c044eb133e",
     "29a2f2fe6968b4f95eb50e7c7c49641bb5d709663587ad7feaec4babf8a5b218"),
    ("example1", 0.0,
     "840c29accd6487e4e6de0d9b3d74de7ac2b131df34608bead96ca34c12a9c8ba",
     "cbd430e90e703c29971ed121d8e89056640b71b5b35d5186633e152a795491c0"),
    ("example1", 37.5,
     "3bf7c541d8e823601f1fc6acaedc120fa0f34ae1fe41d9b0c23598504d4811e8",
     "1c4c93fa08092a7b5b57702551c99c68d6279f3cf89ceae4130ccbea2ad005b8"),
    ("example1", 5000.0,
     "419a7911cf4cfe6366c39cc13ad098a59cf123424364fba01f14b79f489fc8a0",
     "7179a9178857faf4b0063d0394cb91654e051e26b0e812b04760c4f015ddf542"),
    ("gap3level", None,
     "51d1678757932e00fc3963b49c248b97adc0cd84c5d398b0a0b660db9c0b8bd3",
     "fa3828626be5945c9260d0f783b143bcbe9739b02db7d058b98d74e5384bcb2c"),
    ("gap3level", 0.0,
     "8800aeb45c1b225fc903497b072ee4f6849e61bcc3ae116b0c03f1ea39f22ca6",
     "620ec8d8e4dda7dd60bc227b4323750113a4e53bcee5877652721f949ef790c7"),
    ("gap3level", 250.0,
     "d5cce65ee941973fc9f4fe4997c92f888ea6afccbb7a7a6150e30a098100d32d",
     "9c3fa751aa463916931d6af55b3f673cd2c797f0bfba9f967cb4ca7ef026f098"),
    ("gap3level", 5000.0,
     "d5646a006a9373757a1b4454adfcb48e4dd5ebc9143ed163b72c6ef4fe3c00cc",
     "a5bd725469c2984834e0eda6d59d320616658138e23addf4799ae06b4a2b7b0a"),
]


@pytest.mark.parametrize("name,memory,out_digest,summary_digest", RATE_PINS)
def test_rate_output_bytes_pinned(name, memory, out_digest, summary_digest, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        config = config_from_json((CONFIGS / f"{name}.json").read_text())
        if memory is not None:
            config = config.with_memory(memory)
        path, summary = tmp_path / "config.json", tmp_path / "summary.json"
        path.write_text(config_to_json(config))
        assert run(["rate", "--config", str(path), "--summary", str(summary)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == out_digest
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_digest


def test_discretize_emits_loadable_instance(tmp_path, capsys):
    out = tmp_path / "instance.json"
    argv = [
        "discretize", "--zipf", "0.6", "--files", "400", "--caches", "4",
        "--users", "40", "--memory", "50", "--heuristic",
    ]
    assert run(argv + ["--out", str(out)]) == 0
    cfg = config_from_json(out.read_text())
    assert cfg.num_caches == 4
    assert sum(lv.n_files for lv in cfg.levels) == 400
    capsys.readouterr()
    assert run(argv) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


# sha256 of the --out instance, computed with the one-split-at-a-time
# brute-force search.  The last two draws merge zero-user levels (one of
# them also reorders near-tied blocks), on a one-file cut grid.
DISCRETIZE_PINS = [
    ("--zipf 0.8 --files 2000 --caches 8 --users 200 --memory 100 --levels 2",
     "f3e9bf8bbacd64bdb348b166d3445cdf35c6c8680c9837fbf6e88cd08461e278"),
    ("--zipf 1.0 --files 3000 --caches 6 --users 300 --memory 450 --levels 3 --coarsen 100",
     "5d8ab8b518182adb267ae1b3f4536db06d2ecf52894605c9ad207fd257c312a1"),
    ("--zipf 0.6 --files 1200 --caches 4 --users 120 --memory 60 --levels 2 --degrees 1,2",
     "b652a75de2197a041e2b5b991f7a660ebc6b6e17fb5c0d48f6304d404e4cd3ba"),
    ("--zipf 0.8 --files 2400 --caches 6 --users 240 --memory 240 --levels 3 --coarsen 80 "
     "--degrees 1,2,3",
     "1f8e4552c50f4f1265cae58c266a748020964d4e09e78007ebb7e40cfacc10c1"),
    ("--zipf 1.2 --files 500 --caches 5 --users 50 --memory 20 --levels 1",
     "9f8de0ae4ad00f1f1690eec45d8bc1b4eceb175f13bfdc1cbf516110816cfb6b"),
    ("--zipf 0.6 --files 300 --caches 4 --users 6 --memory 30 --levels 3",
     "f30c511f95581ce3c76349e96b6346343dbf94a28950a1f5e77fe5b96ccbf892"),
    ("--zipf 0.6 --files 300 --caches 4 --users 12 --memory 300 --levels 3",
     "2fce3eea5186d7ca37b00b46cbfbd000fa9be6cb595683c16785b605bd876d13"),
]


@pytest.mark.parametrize("args,digest", DISCRETIZE_PINS)
def test_discretize_brute_force_bytes_pinned(tmp_path, args, digest):
    out = tmp_path / "instance.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        assert run(["discretize", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_discretize_needs_a_distribution():
    assert run(["discretize", "--caches", "4", "--users", "8", "--memory", "1"]) == 2


def test_discretize_with_no_candidate_split_is_validation_error(capsys):
    argv = "--zipf 0.8 --files 10 --caches 2 --users 4 --memory 2 --levels 2 --coarsen 20"
    assert run(["discretize", *argv.split()]) == 2
    assert "no candidate split" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ("--levels 3 --coarsen 1 --budget 10", "exceed the budget of 10"),
        ("--levels 0", "num_levels must be positive"),
        ("--coarsen 0", "coarsening must be at least 1"),
    ],
)
def test_discretize_bad_search_input_is_validation_error(extra, message, capsys):
    argv = "--zipf 0.8 --files 1000 --caches 4 --users 40 --memory 20 " + extra
    assert run(["discretize", *argv.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_discretize_heuristic_rejects_degree_above_k_before_writing(tmp_path, capsys):
    out = tmp_path / "instance.json"
    argv = "--zipf 0.8 --files 400 --caches 4 --users 40 --memory 20 --heuristic --degrees 5,1"
    assert run(["discretize", *argv.split(), "--out", str(out)]) == 2
    assert "access degree 5 exceeds K = 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "degrees, message",
    [
        ("1,0", "access degree must be a positive integer, got 0"),
        ("1,x", "--degrees expects integers, got '1,x'"),
        ("1.5,1", "--degrees expects integers, got '1.5,1'"),
        ("1,1,1", "need one access degree per level"),
    ],
    ids=["zero", "not-a-number", "fraction", "one-too-many"],
)
def test_discretize_bad_degrees_are_refused_before_the_search(
    degrees, message, tmp_path, capsys, monkeypatch
):
    def no_pricing(*args):
        raise AssertionError("a split was priced")

    monkeypatch.setattr("codedcache.popularity._price_splits", no_pricing)
    out = tmp_path / "instance.json"
    argv = "--zipf 0.8 --files 100 --caches 4 --users 10 --memory 5 --levels 2 --degrees"
    assert run(["discretize", *argv.split(), degrees, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "source, message",
    [
        ("--counts {}", "need at least 10 files to fit a Zipf exponent"),
        ("--zipf 0 --files 100", "Zipf exponent must be positive"),
    ],
    ids=["fit", "split"],
)
def test_discretize_heuristic_bad_zipf_input_is_validation_error(
    source, message, tmp_path, capsys
):
    counts = tmp_path / "counts.txt"
    counts.write_text("5\n3\n1\n")
    argv = f"discretize {source.format(counts)} --caches 2 --users 4 --memory 3 --heuristic"
    assert run(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("memory", ["-5", "nan", "inf"])
@pytest.mark.parametrize("split", ["--levels 2", "--heuristic"])
def test_discretize_bad_memory_is_validation_error(split, memory, tmp_path, capsys):
    out = tmp_path / "instance.json"
    argv = f"discretize --zipf 0.8 --files 100 --caches 4 --users 20 --memory {memory} {split}"
    assert run([*argv.split(), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: memory must be a finite non-negative")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "discretize --zipf nan --files 200 --caches 4 --users 5 --memory 10 --levels 2",
        "simulate --config {}/example1.json --zipf nan --files 200 --users 20 --trials 2",
        "lfu --zipf nan --files 200 --memory 10 --users 20 --trials 2",
    ],
    ids=["discretize", "simulate", "lfu"],
)
def test_nan_zipf_exponent_is_validation_error(argv, tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert run([*argv.format(CONFIGS).split(), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: probabilities must be finite\n"
    assert not out.exists()


def test_access_opt_subcommand(ex1_path, tmp_path):
    summary_path = tmp_path / "acc.json"
    assert (
        run(
            ["access-opt", "--config", ex1_path, "--dmax", "2", "--davg", "2",
             "--summary", str(summary_path)]
        )
        == 0
    )
    summary = json.loads(summary_path.read_text())
    assert len(summary["degrees"]) == 2


def test_simulate_deterministic(ex1_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = [
        "simulate", "--config", ex1_path, "--zipf", "0.6", "--files", "200",
        "--users", "20", "--trials", "5", "--seed", "3",
    ]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[1]
    assert header == "trial,M,empirical_rate,theoretical_rate,ratio"
    assert "seed=3" in a.read_text().splitlines()[0]


def test_simulate_requires_matching_catalogue(ex1_path):
    code = run(
        ["simulate", "--config", ex1_path, "--zipf", "0.6", "--files", "99",
         "--users", "20", "--trials", "2", "--seed", "1"]
    )
    assert code == 2


# sha256 of stdout, computed when callers still passed the rank-to-level
# map to simulate_stochastic.
SIMULATE_PINS = [
    ("--config {}/example1.json --zipf 0.8 --files 200 --users 60 --trials 5 --seed 3 "
     "--m 10:150:4",
     "a42e4cf7cb9b81edf2e13aeb56b9d6eefdf9166dd0941299e2707fb9a4631fe8"),
    ("--config {}/gap3level.json --zipf 0.6 --files 10000 --users 200 --trials 5 --seed 1",
     "3ea48e4f5bbe3268eac01fd372eff6644a0a748966e72d3342ed0d692a088aab"),
]


@pytest.mark.parametrize("args,digest", SIMULATE_PINS, ids=["example1", "gap3level"])
def test_simulate_stdout_bytes_pinned(args, digest, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        assert run(["simulate", *args.format(CONFIGS).split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_simulate_ratio_of_nothing_sent_against_nothing_owed_is_one(capsys):
    # At M = 2700 gap3level stores everything: both rates are 0, and the
    # ratio reads 1, as gap reports R = LB = 0.  With no users nothing is
    # sent against a positive theoretical rate, which stays inf.
    argv = "--config {}/gap3level.json --zipf 0.8 --files 10000 --trials 2 --m 2590:2700:2"
    rows = {}
    for users in (3, 0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidationWarning)
            assert run(["simulate", *argv.format(CONFIGS).split(), "--users", str(users)]) == 0
        out = capsys.readouterr().out.splitlines()[2:]
        rows[users] = [line.split(",")[1:] for line in out]
    assert rows[3][2:] == [["2700", "0", "0", "1"]] * 2
    assert [row[0] for row in rows[3][:2]] == ["2590"] * 2
    assert all(0.0 < float(row[3]) < math.inf for row in rows[3][:2])
    assert [row[1:] for row in rows[0]] == [["0", "0.0314453125", "inf"]] * 2 + [
        ["0", "0", "1"]
    ] * 2


def test_lfu_stdout_bytes_pinned(capsys):
    # sha256 of stdout, computed when each trial drew its ranks with
    # Generator.choice.
    argv = "lfu --zipf 0.8 --files 2000 --memory 50 --users 3000 --trials 12 --seed 4"
    assert run(argv.split()) == 0
    digest = "afe2a5ab523d65adf67a7df16d85a7928c9c57e190f797ce95bc1ee554498c66"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of stdout, computed when each memory point searched its own
# bound candidates.
BOUND_PINS = [
    ("bounds --config {}/example1.json --m 0:200:21",
     "0af013fb4f134155fe5ff4ec121158b195cfdd2599e5843cf6c8ac5a4268418f"),
    ("bounds --config {}/gap3level.json --m 0:200:21",
     "ad6eb57ad58d1a132fe3a251a4b446f0bbff93dd6850a0ea227220f42522ed28"),
    ("gap --config {}/example1.json",
     "8bb2f90712912f0ad3bd568b7d0f468a962fa9c00c9e6ac22a662c61fc40f9ef"),
]


@pytest.mark.parametrize(
    "args,digest", BOUND_PINS, ids=["bounds-example1", "bounds-gap3level", "gap-example1"]
)
def test_bound_stdout_bytes_pinned(args, digest, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        assert run(args.format(CONFIGS).split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, message",
    [
        ("--users 40 --trials 0", "trials must be at least 1"),
        ("--users -5", "user count must be non-negative"),
        ("--users 40 --seed -3", "seed must be non-negative"),
    ],
)
def test_simulate_bad_run_arguments_are_validation_errors(ex1_path, extra, message, capsys):
    argv = f"simulate --config {ex1_path} --zipf 0.8 --files 200 {extra}"
    assert run(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_lfu_negative_seed_is_validation_error(capsys):
    argv = "lfu --zipf 0.8 --files 200 --memory 10 --users 40 --trials 3 --seed -1"
    assert run(argv.split()) == 2
    assert capsys.readouterr().err.startswith("error: the seed must be non-negative")


@pytest.mark.parametrize("memory", ["-5", "inf", "nan"])
def test_lfu_bad_memory_is_validation_error(memory, capsys):
    argv = f"lfu --zipf 0.8 --files 200 --memory {memory} --users 40 --trials 2 --seed 1"
    assert run(argv.split()) == 2
    assert capsys.readouterr().err.startswith("error: memory must be a finite non-negative")


def test_pama_oracle_header_names_the_grid_it_searched(ex1_path, capsys):
    # 0.07 gives round(1/0.07) = 14 intervals, a step of 1/14.
    assert run(["pama", "--config", ex1_path, "--grid-step", "0.07"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    _, oracle = grid_search_alpha(make_config(8, 100.0, [(100, 9, 1), (100, 1, 1)]), 1 / 14)
    assert header == f"# oracle (grid step 0.0714285714): {_fmt(oracle)}"
    for step in ("0.01", "0.02", "0.05"):
        assert run(["pama", "--config", ex1_path, "--grid-step", step]) == 0
        assert f"# oracle (grid step {step}): " in capsys.readouterr().out


def test_pama_builds_one_threshold_table(monkeypatch, capsys):
    # Every module that binds the name gets the counting wrapper.
    built = []

    def counting(config):
        built.append(config)
        return build_threshold_table(config)

    monkeypatch.setattr(cli, "build_threshold_table", counting)
    monkeypatch.setattr(pama, "build_threshold_table", counting)
    assert run(["pama", "--config", str(CONFIGS / "example1.json")]) == 0
    assert capsys.readouterr().out.startswith("# pama allocation for ")
    assert len(built) == 1


def test_pama_grid_step_out_of_range_is_validation_error(ex1_path, capsys):
    assert run(["pama", "--config", ex1_path, "--grid-step", "0.5"]) == 2
    assert capsys.readouterr().err == "error: grid_step must lie in (0, 0.1]\n"


# Runs the CLI in a child process whose address space is capped at 1 GiB,
# so that a search which does build its full candidate set fails there
# with MemoryError instead of taking the machine's memory.
_UNDER_1_GIB = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from codedcache.cli import run
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, refusal",
    [
        # A (10^8 + 1) x 3 rate table (2.4 GB), then 5e15 simplex points.
        (
            "pama --config {configs}/gap3level.json --grid-step 1e-8",
            "grid step 1e-08 gives 5000000150000001 points on 3 levels, "
            "over the limit of 10000000; use a coarser step",
        ),
        # 32^6, about 1.07e9 degree vectors.
        (
            "access-opt --config {wide} --dmax 32 --davg 32",
            "32^6 = 1073741824 degree vectors exceed the limit of 10000000; lower max_degree",
        ),
    ],
    ids=["pama-grid-step", "access-opt"],
)
def test_oversized_searches_are_refused_before_they_start(argv, refusal, tmp_path):
    wide = tmp_path / "wide.json"
    levels = [(1600, 3, 1), (3600, 2, 1), (12000, 1, 1), (32000, 1, 1), (64000, 1, 1)]
    wide.write_text(config_to_json(make_config(32, 50.0, [*levels, (160000, 1, 1)])))
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_1_GIB, *argv.format(configs=CONFIGS, wide=wide).split()],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith(f"error: {refusal}\n")


def test_only_selftest_imports_the_acceptance_suite(ex1_path):
    script = (
        "import sys\n"
        "from codedcache.cli import run\n"
        f"assert run(['rate', '--config', {ex1_path!r}]) == 0\n"
        "assert 'codedcache.acceptance' not in sys.modules\n"
        "assert run(['selftest', '--only', '2']) == 0\n"
        "assert 'codedcache.acceptance' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


def test_lfu_worst_case_sweep(ex1_path, capsys):
    assert run(["lfu", "--config", ex1_path, "--m", "0:200:5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "M,lfu_rate"
    assert len(out) == 2 + 5


def test_lfu_simulated(ex1_path, capsys):
    code = run(
        ["lfu", "--zipf", "0.6", "--files", "100", "--memory", "50",
         "--users", "20", "--trials", "3", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 + 3


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--memory 50", "worst-case lfu (--trials 0) ignores --memory"),
        ("--zipf 0.6 --files 100", "worst-case lfu (--trials 0) ignores --zipf"),
        ("--counts x.txt", "worst-case lfu (--trials 0) ignores --counts"),
        ("--users 5", "worst-case lfu (--trials 0) ignores --users"),
        ("--seed 0", "worst-case lfu (--trials 0) ignores --seed"),
        (
            "--zipf 0.6 --files 100 --trials 2 --m 0:100:3",
            "simulated lfu (--trials > 0) ignores --m",
        ),
        (
            "--zipf 0.6 --files 100 --trials 2 --memory 50",
            "simulated lfu (--trials > 0) ignores --config",
        ),
    ],
)
def test_lfu_refuses_flags_its_mode_ignores(ex1_path, capsys, flags, message):
    assert run(["lfu", "--config", ex1_path, *flags.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_lfu_negative_trials_is_validation_error(ex1_path, capsys):
    assert run(["lfu", "--config", ex1_path, "--trials", "-3", "--m", "0:200:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials must be non-negative, got -3\n"


@pytest.mark.parametrize("only", ["99", "0", "x", "2,13", "2,", ""])
def test_selftest_only_refuses_unknown_criteria(only, capsys):
    assert run(["selftest", "--only", only]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --only: expects comma-separated criterion numbers 1-12" in captured.err


def test_selftest_prints_each_criterion_time(capsys):
    assert run(["selftest", "--only", "2"]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(
        r"criterion  2 \[PASS\] single-level endpoints \(\d+\.\d\ds\): "
        r"1000/1000 tuples exact at both endpoints",
        line,
    )


# sha256 of stdout and of the --summary file, computed when every sweep
# row and every oracle point was priced one at a time.  The last sweep
# grid of each config runs past full storage.  `pama` prints the config
# path, so the commands run in the configs directory.
ANALYSIS_PINS = [
    ("sweep --config example1.json --m 0::100",
     "7ff0b3aef4fc87febd3f1cd54df4a9d2b6da4556884c7056c7596263e036abab",
     "f473c9452c28254d1a3bf3a1eeef90c5ddd868f20aed904a9ceef7a0cbbcb7bb"),
    ("sweep --config gap3level.json --m 0::100",
     "6b70ea266d8678f6b76c278bf2e218744de443c6115491b5141478f666d820e3",
     "01c397d89ad413d9ab746f542c7ef359d34e19a3c105a3d8dcc720ea7f27bbb4"),
    ("sweep --config example1.json --m 0.5::40:log",
     "f65ef3d5a612bec52cabee4ab39ba6f18376d04d013a587d37856b2a6c4cb2fa",
     "06311d764a32cbe50140702486e20ded24e8c957ed25fd35b6d635aecd714ec4"),
    ("sweep --config gap3level.json --m 0.5::40:log",
     "0fc604d5c208bd807c12a68456af9bf3b3938d39afac3e26e48a0bd6ed1f184b",
     "7bf4146c5cfe9e438b44c4e8c38ceca5fb4acc83e43320cef87950b46eae38fe"),
    ("sweep --config example1.json --m 0:250:51",
     "8cc6363781f7ad0569ae1373a6abb473019fc46868667f00441f83fa2270ba19",
     "8f92b21e45b675a9ca3570087c631840229d41e048b986d788dc1ee5b2cfb7e5"),
    ("sweep --config gap3level.json --m 0:2900:59",
     "da2fb5d320039b03dfe22ddc6227ccf1d1e00c2fa263cc67e76b8f5df86c6403",
     "2ba88a0c77b563345d293b7266c66993ba287a7a8841b5a940b5f4b857e4daff"),
    ("pama --config example1.json --grid-step 0.01",
     "5b766dbdb8dce4bf1adb472f2fac19589d5731ff0cb21612bb158222919f2082",
     "6bcaf6f5c3f00487e3e33c9b072ec19e38e078367f1f83764d94430b8858f0e7"),
    ("pama --config gap3level.json --grid-step 0.01",
     "a6f4d9538e1e543a1157390411db9d81a335465d6c7c06ce41071c30b16ea03a",
     "12c9cdc5a0139233c56613ee748853b8bfb9667baa21dc58a51e3aa5c43ba46f"),
]


# sha256 of stdout and of the --summary file, computed when access-opt
# priced each degree vector with its own pama_rate call.
ACCESS_OPT_PINS = [
    ("access-opt --config example1.json --dmax 2 --davg 2",
     "cd739ac320023bfd5a74b38032ae1e86ab3e6ba7fac55b09d968902afd3826e5",
     "cc3a5a049d20c0d24ff41990144263961289cd35452d788c7b855ab52838d3e2"),
    ("access-opt --config example1.json --dmax 3 --davg 2",
     "01b49556ab4339b769d4ffbb60b56b2ebb90624752f3662fe0d45f65656de901",
     "cc3a5a049d20c0d24ff41990144263961289cd35452d788c7b855ab52838d3e2"),
    ("access-opt --config gap3level.json --dmax 3 --davg 2",
     "570a0977c594b9d6a1956505d1db5aa78765f0224e9bc7a0dc8e7f283259ef2f",
     "5ca75e233ca54197f9a2280180f1308a7b2947421f17a92f3044961de6bef05c"),
    ("access-opt --config gap3level.json --dmax 5 --davg 5",
     "d4d485e80861b79f942190d0c0895f64d556e9d3c908d8142ab0e5ceeadecfb4",
     "8162d8e16e0b7f4229dcc0ec911a0bfa9c8a7f5da9c220f74a41df434a83c24d"),
]


# sha256 of stdout and of the --summary file, computed when gap priced
# each achievable rate with its own pama_rate call and formatted each
# field with _fmt.  The third grid runs past full storage; the last one
# descends.
GAP_PINS = [
    ("gap --config example1.json",
     "8bb2f90712912f0ad3bd568b7d0f468a962fa9c00c9e6ac22a662c61fc40f9ef",
     "af83d86c193f6100fdd0f62b2efcaf16a8b7fa04dca2c66dbd111e6eb5f42562"),
    ("gap --config gap3level.json",
     "6a154f7f377e5d5adebf565a015f6a621e8591166fdf69ff5185778d1c34c3b6",
     "a4f004b836b05cce1a94ab6d2e82e6a41c70cc44cdbc2f3e99cfcf53b4f580ae"),
    ("gap --config example1.json --m 0:250:51",
     "70b4734c512df553dcd4749d71c3cb53903eb7f93c516b38bf4fb8f5dbf52419",
     "f753981b541bdd8023135ecdebec412e30d436ce277f7b17b12268c771edde1f"),
    ("gap --config gap3level.json --m 0:2900:59",
     "ec71880141ec510a5e1fab3895caa0bb6ca5e2024ed589c2be25aa9caec123f8",
     "775421eba51eba027ef1659c8d201f76ee76593a6302090e0310afe57db38b7c"),
    ("gap --config gap3level.json --m 2900:0:7",
     "465adbeac41ea03674ab43845776ee1f6a44353929ed0fe74ba0df4bd4b5be2e",
     "6faddbda5a2ef7b9cc79aa3ef018b3d943483b257ac2d87e073b618a558c807a"),
]


@pytest.mark.parametrize(
    "args,out_digest,summary_digest",
    ANALYSIS_PINS + ACCESS_OPT_PINS + GAP_PINS,
    ids=[
        "sweep-example1", "sweep-gap3level", "sweep-log-example1", "sweep-log-gap3level",
        "sweep-past-full-example1", "sweep-past-full-gap3level",
        "oracle-example1", "oracle-gap3level",
        "access-opt-example1-d2", "access-opt-example1-d3",
        "access-opt-gap3level-d3", "access-opt-gap3level-d5",
        "gap-example1", "gap-gap3level", "gap-past-full-example1",
        "gap-past-full-gap3level", "gap-descending-gap3level",
    ],
)
def test_analysis_output_bytes_pinned(
    args, out_digest, summary_digest, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(CONFIGS)
    summary = tmp_path / "summary.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        assert run([*args.split(), "--summary", str(summary)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == out_digest
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_digest


def test_pama_output_at_zero_memory_pinned(tmp_path, capsys, monkeypatch):
    # At M = 0 the split I = {1} has T_J = 0, so the closed form is inf
    # and out of validity.  sha256 of stdout and of the --summary file,
    # computed when pama_rate still priced the closed form itself.
    config = config_from_json((CONFIGS / "example1.json").read_text()).with_memory(0.0)
    (tmp_path / "example1-m0.json").write_text(config_to_json(config))
    monkeypatch.chdir(tmp_path)
    assert run(["pama", "--config", "example1-m0.json", "--summary", "summary.json"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2] == '0,80,inf,"H=2;I=1;J=",0,0,72,8'
    summary = (tmp_path / "summary.json").read_bytes()
    assert json.loads(summary)["closed_in_validity"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4be2db507f38ea68c1d8576690dca104f885082d598c769221cbc7bd7b11f9c7"
    )
    assert hashlib.sha256(summary).hexdigest() == (
        "9ecd747111b5b1cb9133d6b83e1816999c47f575a7edaadeca6d9e4652dc7d47"
    )
