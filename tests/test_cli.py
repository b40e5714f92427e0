import json

import pytest

from codedcache.cli import run
from codedcache.model import config_from_json, config_to_json, make_config

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


def test_discretize_emits_loadable_instance(tmp_path):
    out = tmp_path / "instance.json"
    code = run(
        [
            "discretize", "--zipf", "0.6", "--files", "400", "--caches", "4",
            "--users", "40", "--memory", "50", "--heuristic", "--out", str(out),
        ]
    )
    assert code == 0
    cfg = config_from_json(out.read_text())
    assert cfg.num_caches == 4
    assert sum(lv.n_files for lv in cfg.levels) == 400


def test_discretize_needs_a_distribution():
    assert run(["discretize", "--caches", "4", "--users", "8", "--memory", "1"]) == 2


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
