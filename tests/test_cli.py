import hashlib
import json
import re
import warnings

import pytest

from codedcache.cli import run
from codedcache.model import (
    ValidationWarning,
    config_from_json,
    config_to_json,
    make_config,
)

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


def test_pama_grid_step_out_of_range_is_validation_error(ex1_path, capsys):
    assert run(["pama", "--config", ex1_path, "--grid-step", "0.5"]) == 2
    assert capsys.readouterr().err == "error: grid_step must lie in (0, 0.1]\n"


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


def test_selftest_prints_each_criterion_time(capsys):
    assert run(["selftest", "--only", "2"]) == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(
        r"criterion  2 \[PASS\] single-level endpoints \(\d+\.\d\ds\): "
        r"1000/1000 tuples exact at both endpoints",
        line,
    )
