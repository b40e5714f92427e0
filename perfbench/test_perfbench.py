"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from codedcache import load_config, make_config, place, worst_case_demands  # noqa: E402
from codedcache.pama import pama_rate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPEATED_COUNTS = (
    "pama.points",
    "popularity.candidates",
    "bounds.points",
    "sim.delivered_bits",
    "sim.subsets_enumerated",
)


def bench(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def results(stdout: str) -> dict[str, dict]:
    """Per-workload result objects from a ``--workload all`` run."""
    out = {}
    name = None
    for line in stdout.splitlines():
        if line.startswith("# perfbench "):
            name = line.split()[2]
        elif line.startswith("{") and name is not None:
            out[name] = json.loads(line)
            name = None
    return out


@pytest.fixture(scope="module")
def tiny_plain() -> str:
    return bench("--workload", "all", "--seed", "3", "--seconds", "0.1",
                 "--trace", "0")


@pytest.fixture(scope="module")
def tiny_traced() -> str:
    return bench("--workload", "all", "--seed", "3", "--seconds", "0.1",
                 "--trace", "1")


def assert_metrics(stdout: str, spec: list[dict]) -> None:
    per_workload = results(stdout)
    assert set(per_workload) == {w["name"] for w in SPEC["workloads"]}
    for name, result in per_workload.items():
        assert result["correct"], name
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in spec}, name
        for m in spec:
            assert metrics[m["name"]]["unit"] == m["unit"]
            pattern = rf"^{re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$"
            assert re.search(pattern, stdout, re.MULTILINE), m["name"]


def test_tiny_run_prints_every_end_to_end_metric(tiny_plain):
    assert_metrics(tiny_plain, SPEC["end_to_end"])
    for result in results(tiny_plain).values():
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "# env " in tiny_plain and "# output_sha256 " in tiny_plain


def test_tiny_run_prints_every_per_layer_metric(tiny_traced):
    assert_metrics(tiny_traced, SPEC["per_layer"])
    names = [m["name"] for m in SPEC["per_layer"]]
    assert "trace.overhead_s" in names


def test_counts_and_output_repeat_for_the_same_seed(tiny_traced):
    again_text = bench("--workload", "all", "--seed", "3", "--seconds", "0.1",
                       "--trace", "1")
    again = results(again_text)
    first = results(tiny_traced)
    sha = [line for line in tiny_traced.splitlines() if line.startswith("# output_sha256")]
    assert len(sha) == 3 and all(line in again_text for line in sha)
    for name in first:
        for metric in REPEATED_COUNTS:
            assert first[name]["metrics"][metric] == again[name]["metrics"][metric]
    # Each count is exercised by at least one workload.
    for metric in REPEATED_COUNTS:
        assert any(first[name]["metrics"][metric]["value"] > 0 for name in first), metric


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(row) for row in tracing.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_reference_time_of_their_pass():
    job = workloads.Job(0, "L1", {})

    def runs(seconds: float) -> list:
        records = [workloads.Record(job), workloads.Record(job)]
        for record in records:
            record.seconds = seconds
        return records

    # The second pass ran at half speed: jobs and reference took twice as long.
    passes = [(runs(0.1), run.REFERENCE_S), (runs(0.2), 2 * run.REFERENCE_S)]
    scaled = run.speed_metrics(passes, scaled=True)
    assert scaled["job_p50_ms"] == pytest.approx(100.0)
    assert scaled["job_p90_ms"] == pytest.approx(100.0)
    assert scaled["jobs_per_s"] == pytest.approx(10.0)
    raw = run.speed_metrics(passes, scaled=False)
    assert raw["job_p50_ms"] == pytest.approx(150.0)
    assert raw["jobs_per_s"] == pytest.approx(7.5)


# -- the output checks fire on doctored outputs -----------------------


def cli_output(argv: list[str]) -> str:
    rc, out, _ = workloads.call_cli(argv)
    assert rc == 0
    return out


@pytest.fixture()
def instance(tmp_path) -> str:
    path = tmp_path / "inst.json"
    workloads.write_instance(path, 8, 50.0, [(100, 9, 1), (400, 2, 2)])
    return str(path)


def test_gap_check_fires_on_a_bound_above_the_rate(instance):
    text = cli_output(["gap", "--config", instance, "--m", "1:100:5"])
    assert checks.check_gap(text) == []
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[2] = checks.fmt9(2 * float(fields[1]) + 1)  # best_LB > R_exact
    doctored = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    assert checks.check_gap(doctored)


def test_sweep_check_fires_on_a_rate_rising_with_memory(instance):
    text = cli_output(["sweep", "--config", instance, "--m", "0::10"])
    assert checks.check_sweep(text, 8 * (9 + 2)) == []
    lines = text.splitlines()
    head, rows = lines[:2], lines[2:]
    rates = [row.split(",")[1] for row in rows]
    rising = [",".join([row.split(",", 2)[0], r, row.split(",", 2)[2]])
              for row, r in zip(rows, reversed(rates))]
    assert checks.check_sweep("\n".join(head + rising) + "\n", 8 * (9 + 2))
    # Out of range also fires.
    assert checks.check_sweep(text, 1.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_refused_instance_is_a_failed_job(tmp_path):
    job = workloads.Job(0, "L2", {
        "s": 1.2, "N": 2000, "K": 8, "users": 500, "M": 200.0, "L": 2,
        "coarsen": None, "sim_users": 2500, "sim_seed": 1,
        "out": str(tmp_path / "refused.json"),
    })
    record = workloads.Record(job)
    workloads.WORKLOADS["catalogue"].run(job, record)
    assert record.refused and not record.ok
    assert "needs at least K*U = 432 files" in record.problems[0]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_set_up_screens_out_draws_that_hit_known_defects(tmp_path):
    catalogue = workloads.WORKLOADS["catalogue"]
    params = {"s": 1.2, "N": 2000, "K": 8, "users": 500, "M": 200.0, "L": 2,
              "coarsen": None, "out": str(tmp_path / "x.json")}
    assert not catalogue.regular(params)
    assert catalogue.regular(dict(params, users=100))
    fits = workloads.BitExact.allocation_fits
    assert not fits({"K": 5, "M": 18.365, "levels": [(110, 2, 3), (50, 2, 3)]})
    assert fits({"K": 5, "M": 10.0, "levels": [(110, 2, 3), (50, 2, 3)]})


def test_pool_shapes_are_fixed_and_the_seed_draws_the_rest(tmp_path):
    analysis = workloads.WORKLOADS["analysis"]
    pools = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        jobs, _ = analysis.make_pool(seed, tmp_path / name)
        pools[name] = [
            json.loads(Path(job.params["config"]).read_text(encoding="utf-8")) for job in jobs
        ]
    assert pools["a"] == pools["b"]
    assert [(c["K"], [(lv["U"], lv["d"]) for lv in c["levels"]]) for c in pools["a"]] == [
        (c["K"], [(lv["U"], lv["d"]) for lv in c["levels"]]) for c in pools["c"]
    ]
    assert [c["M"] for c in pools["a"]] != [c["M"] for c in pools["c"]]
    assert sorted(workloads.pass_order(1, 0, 20)) == list(range(20))
    assert workloads.pass_order(1, 0, 20) != workloads.pass_order(1, 1, 20)


def test_simulate_check_fires_on_a_wrong_theoretical_rate(tmp_path):
    job = workloads.Job(0, "L2", {
        "s": 0.8, "N": 2000, "K": 8, "users": 100, "M": 100.0, "L": 2,
        "coarsen": None, "sim_users": 500, "sim_seed": 1,
        "out": str(tmp_path / "ok.json"),
    })
    record = workloads.Record(job)
    catalogue = workloads.WORKLOADS["catalogue"]
    catalogue.run(job, record)
    assert record.ok
    assert catalogue.check(record) == []
    theory = pama_rate(load_config(job.params["out"])).exact.total
    text = record.outputs["simulate"]
    assert checks.check_simulate(text, 500, catalogue.trials, theory) == []
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[3] = checks.fmt9(float(fields[3]) * (1 + 1e-6))
    doctored = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert checks.check_simulate(doctored, 500, catalogue.trials, theory)
    assert checks.check_simulate(text, 1, catalogue.trials, theory)  # rate above users
    assert checks.check_instance('{"levels": [{"N": 10}]}', 2000)


def test_delivery_check_fires_on_a_failed_decode():
    assert checks.check_delivery(True) == []
    assert checks.check_delivery(False)


# -- the tracer -------------------------------------------------------


def test_subsets_enumerated_counts_group_subsets():
    config = make_config(4, 2.0, [(8, 2, 1)])
    placement = place(config, pama_rate(config).allocation, 64, 0)
    # Two slots on each of 4 caches: two groups of 4 users, 11 subsets each.
    assert tracing.subsets_enumerated(placement, worst_case_demands(config)) == 22


def test_tracer_wraps_every_importer_and_restores_them():
    import codedcache.bounds
    import codedcache.pama

    original = codedcache.pama.pama_rate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert codedcache.bounds.pama_rate is codedcache.pama.pama_rate
        assert codedcache.pama.pama_rate is not original
        cli_output(["pama", "--config", str(ROOT / "configs" / "example1.json")])
    finally:
        tracer.uninstall()
    assert codedcache.pama.pama_rate is original
    assert codedcache.bounds.pama_rate is original
    stats = tracer.stats
    assert stats["pama_rate"].calls == 1
    assert stats["build_threshold_table"].calls == 1
    assert stats["load_config"].calls == 1
    assert 0 <= stats["pama_rate"].self_s <= stats["pama_rate"].total_s
