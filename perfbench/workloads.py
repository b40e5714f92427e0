"""The three workloads: inputs from a seed, the job steps, the checks.

Each workload makes a pool of jobs during set-up, and a run goes over
the pool again and again, in a fresh order each pass, until its time
is up.  The pool's job shapes (the parameters that set a job's cost,
such as the level count and sizes of a catalogue split or the group
size of a delivery) come from a fixed design and are the same for every
seed.  The seed moves each size by up to 5% and draws everything else:
file contents, demands, simulation and placement seeds.  So every run
times nearly the same work, and its median and 90th percentile stay put
from seed to seed.

Pool draws come from ``default_rng(seed)`` and the order of pass ``p``
from ``SeedSequence(seed, spawn_key=(p,))``, so the same seed gives the
same inputs.  The program sees only what the jobs hand it: instance
JSON files and argv for the CLI, and for ``bit-exact`` the library's
public functions.

Two known defects of the program make some draws fail (see
``perfbench/README.md``).  Set-up screens such draws out and draws again
within the same shape, and every run prints how many it screened.  Each
``DRAWS_PER_STEP`` failed draws of one shape step the size that leads
into the defect down by ``STEP`` (the catalogue's user count, the
bit-exact memory share), so the shape moves the same way for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import codedcache
from codedcache import cli

import checks

# Seed of the fixed design that gives every workload its job shapes.
DESIGN_SEED = 2014
# Largest share by which the run's seed moves a size the shape fixes.
JITTER = 0.05
# Screened-out draws of one shape before it steps away from a defect,
# and the factor of each step.
DRAWS_PER_STEP = 3
STEP = 0.9


@dataclass
class Job:
    id: int
    stratum: str
    params: dict


@dataclass
class Record:
    """What one run of a job produced, kept until its output is checked."""

    job: Job
    seconds: float = 0.0
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    refused: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def design_rng() -> np.random.Generator:
    return np.random.default_rng(DESIGN_SEED)


def pass_order(seed: int, index: int, size: int) -> list[int]:
    """The order in which pass ``index`` runs the pool's jobs."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    return [int(i) for i in rng.permutation(size)]


def bin_centres(low: float, high: float, bins: int) -> np.ndarray:
    """The centres of ``bins`` equal bins of [low, high)."""
    return low + (high - low) * (np.arange(bins) + 0.5) / bins


def jitter(rng: np.random.Generator, value: float) -> float:
    """``value`` moved by a uniform share of at most ``JITTER``."""
    return value * (1.0 + JITTER * float(rng.uniform(-1.0, 1.0)))


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``codedcache.cli.run(argv)`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def write_instance(path: Path, k: int, memory: float, levels: list[tuple[int, int, int]]) -> None:
    doc = {"K": k, "M": memory, "levels": [{"N": n, "U": u, "d": d} for n, u, d in levels]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


class Workload:
    name = ""
    # Rough seconds per pass over the pool on a 2-core VM.  It sizes the
    # fixed pass count of a traced run.
    pass_seconds = 1.0
    # Whether output_text is CLI output (counted in cli.bytes_out).
    writes_cli = True
    # Output names, in the order they are hashed.
    steps: tuple[str, ...] = ()
    # Draws tried per shape before set-up gives up.
    max_draws = 100

    def make_pool(self, seed: int, workdir: Path) -> tuple[list[Job], list[str]]:
        """The run's jobs, and lines the run prints about how they were made."""
        raise NotImplementedError

    def run(self, job: Job, record: Record) -> None:
        """Run the job's steps; store outputs on ``record``."""
        raise NotImplementedError

    def check(self, record: Record) -> list[str]:
        raise NotImplementedError

    def output_text(self, record: Record) -> str:
        """The job's output for the run's sha256 and ``cli.bytes_out``."""
        return "".join(record.outputs.get(step, "") for step in self.steps)

    def run_cli(self, record: Record, step: str, argv: list[str]) -> bool:
        rc, out, err = call_cli(argv)
        record.outputs[step] = out
        problems = checks.check_exit(step, rc, err)
        if problems:
            record.problems += problems
            record.refused = True
            return False
        return True

    def screened_draws(self, rng, shapes, draw, usable):
        """One job per shape: ``draw(rng, index, shape, scale)`` until
        ``usable`` accepts it, where ``scale`` is ``STEP`` to the power of
        the shape's steps so far.  Returns the jobs' params and the draws
        screened out."""
        pool, screened = [], 0
        for index, shape in enumerate(shapes):
            for attempt in range(self.max_draws):
                params = draw(rng, index, shape, STEP ** (attempt // DRAWS_PER_STEP))
                if usable(params):
                    break
                screened += 1
            else:
                raise RuntimeError(f"{self.name}: no usable draw for shape {shape}")
            pool.append(params)
        return pool, screened


class Catalogue(Workload):
    """Popularity catalogue -> discretized instance -> stochastic check."""

    name = "catalogue"
    steps = ("discretize", "simulate")
    exponents = (0.6, 0.8, 1.0, 1.2)
    files = (2000, 10_001)
    users = (100, 501)
    # (levels, jobs, cut grid divisor): eleven two-level splits at the
    # default coarsening (an N/200 cut grid) and four three-level splits
    # on an N/30 grid.  With 15 jobs run once per pass, the median falls
    # amid the runs of the 8th-slowest job, a two-level one, and the 90th
    # percentile amid those of the 2nd-slowest, a three-level one.
    groups = ((2, 11, None), (3, 4, 30))
    pass_seconds = 3.5
    trials = 20
    memory_shares = (0.01, 0.5)

    def shapes(self) -> list[dict]:
        """Per job: levels, cut grid, exponent, K, file and user counts and
        M as a share of N.  The file and user counts are the centres of
        equal bins, so each group covers 2k-10k files and 100-500 users
        evenly."""
        rng = design_rng()
        shapes = []
        for levels, count, divisor in self.groups:
            files = rng.permutation(bin_centres(*self.files, count))
            users = rng.permutation(bin_centres(*self.users, count))
            caches = rng.integers(4, 13, count)
            shares = rng.uniform(*self.memory_shares, count)
            for j in range(count):
                shapes.append({
                    "L": levels, "divisor": divisor,
                    "s": self.exponents[j % len(self.exponents)], "K": int(caches[j]),
                    "N": float(files[j]), "users": float(users[j]),
                    "memory_share": float(shares[j]),
                })
        return shapes

    def make_pool(self, seed, workdir):
        def draw(rng, index, shape, scale):
            # Fewer users make a smaller head block regular.
            n = int(jitter(rng, shape["N"]))
            users = int(jitter(rng, scale * shape["users"]))
            share = jitter(rng, shape["memory_share"])
            return {
                "s": shape["s"],
                "N": n,
                "K": shape["K"],
                "users": users,
                "M": round(share * n, 3),
                "L": shape["L"],
                "coarsen": n // shape["divisor"] if shape["divisor"] else None,
                "sim_users": 5 * users,
                "sim_seed": int(rng.integers(0, 2**31)),
                "out": str(workdir / f"catalogue-{index}.json"),
            }

        pool, screened = self.screened_draws(
            np.random.default_rng(seed), self.shapes(), draw, self.regular)
        jobs = [Job(i, f"L{p['L']}", p) for i, p in enumerate(pool)]
        return jobs, [
            f"# known defect: screened out {screened} catalogue draws for which "
            "discretize wrote a level with N_i < K*U_i (simulate refuses those)"
        ]

    @staticmethod
    def discretize_argv(p: dict) -> list[str]:
        argv = [
            "discretize", "--zipf", str(p["s"]), "--files", str(p["N"]),
            "--caches", str(p["K"]), "--users", str(p["users"]),
            "--memory", str(p["M"]), "--levels", str(p["L"]), "--out", p["out"],
        ]
        if p["coarsen"]:
            argv += ["--coarsen", str(p["coarsen"])]
        return argv

    def regular(self, p: dict) -> bool:
        """Whether the instance discretize writes for these params has
        N_i >= K*U_i on every level.  A draw whose discretize step fails
        outright is kept, so that the failure shows in the timed phase."""
        if call_cli(self.discretize_argv(p))[0] != 0:
            return True
        doc = json.loads(Path(p["out"]).read_text(encoding="utf-8"))
        return all(level["N"] >= doc["K"] * level["U"] for level in doc["levels"])

    def run(self, job, record):
        p = job.params
        if not self.run_cli(record, "discretize", self.discretize_argv(p)):
            return
        self.run_cli(record, "simulate", [
            "simulate", "--config", p["out"], "--zipf", str(p["s"]),
            "--files", str(p["N"]), "--users", str(p["sim_users"]),
            "--trials", str(self.trials), "--seed", str(p["sim_seed"]),
        ])

    def output_text(self, record):
        # discretize writes its instance to --out, not stdout.
        path = Path(record.job.params["out"])
        instance = path.read_text(encoding="utf-8") if path.exists() else ""
        return instance + record.outputs.get("simulate", "")

    def check(self, record):
        p = record.job.params
        problems = checks.check_instance(Path(p["out"]).read_text(encoding="utf-8"), p["N"])
        if problems or "simulate" not in record.outputs:
            return problems
        theory = codedcache.pama_rate(codedcache.load_config(p["out"])).exact.total
        return checks.check_simulate(
            record.outputs["simulate"], p["sim_users"], self.trials, theory
        )


class Analysis(Workload):
    """Per-instance rate-versus-bound study: sweep, gap, oracle."""

    name = "analysis"
    steps = ("sweep", "gap", "pama")
    # A job's cost is set mostly by its level count.  With 25 jobs run
    # once per pass, the median falls amid the runs of the 13th-slowest
    # job, in the middle of the L=2 group, and the 90th percentile amid
    # those of the 3rd-slowest, in the middle of the L=4 group.
    level_counts = (1,) * 8 + (2,) * 9 + (3,) * 4 + (4,) * 4
    pass_seconds = 2.5
    grid_steps = {1: 0.01, 2: 0.01, 3: 0.02, 4: 0.05}

    def shapes(self) -> list[dict]:
        """Per job: an instance drawn the way the acceptance suite's fuzzed
        ones are (K 2-32, U 1-8, d 1-5, N_i from spread popularities), and
        M as a share of full storage, uniform on [0, 1.1]."""
        rng = design_rng()
        shapes = []
        for lcount in self.level_counts:
            k = int(rng.integers(2, 33))
            pops = sorted((float(rng.uniform(0.2, 50.0)) for _ in range(lcount)), reverse=True)
            levels = []
            for pop in pops:
                u = int(rng.integers(1, 9))
                n = int(math.ceil(k * u * pops[0] / pop * rng.uniform(1.0, 3.0)))
                levels.append((n, u, int(rng.integers(1, min(5, k) + 1))))
            shapes.append({"K": k, "levels": levels,
                           "memory_share": float(rng.uniform(0.0, 1.1))})
        return shapes

    @staticmethod
    def draw_instance(rng: np.random.Generator, shape: dict) -> tuple[float, list]:
        """The shape's N_i and M, each moved by the seed."""
        k = shape["K"]
        levels = [(max(k * u, int(jitter(rng, n))), u, d) for n, u, d in shape["levels"]]
        full = sum(n / d for n, _, d in levels)
        return jitter(rng, shape["memory_share"]) * full, levels

    def make_pool(self, seed, workdir):
        rng = np.random.default_rng(seed)
        jobs = []
        for job_id, shape in enumerate(self.shapes()):
            memory, levels = self.draw_instance(rng, shape)
            path = workdir / f"analysis-{job_id}.json"
            write_instance(path, shape["K"], memory, levels)
            jobs.append(Job(job_id, f"L{len(levels)}", {
                "config": str(path),
                "max_rate": float(sum(shape["K"] * u for _, u, _ in levels)),
                "grid_step": self.grid_steps[len(levels)],
            }))
        return jobs, []

    def run(self, job, record):
        p = job.params
        if not self.run_cli(record, "sweep", ["sweep", "--config", p["config"], "--m", "0::100"]):
            return
        if not self.run_cli(record, "gap", ["gap", "--config", p["config"]]):
            return
        self.run_cli(record, "pama", [
            "pama", "--config", p["config"], "--grid-step", str(p["grid_step"]),
        ])

    def check(self, record):
        out = record.outputs
        return (
            checks.check_sweep(out["sweep"], record.job.params["max_rate"])
            + checks.check_gap(out["gap"])
            + checks.check_oracle(out["pama"])
        )


class BitExact(Workload):
    """Allocation, random placement and XOR delivery with decode check."""

    name = "bit-exact"
    # The hashed output is a summary line per delivery, not CLI output.
    steps = ("delivery",)
    writes_cli = False
    # Three jobs whose first level has delivery groups of K/d = 10, 10
    # and 11 members (delivery cost grows as 2^(K/d)), and twelve with
    # groups of at most 9.  The large jobs are the slowest fifth; with 15
    # jobs run once per pass, the 90th percentile falls amid the runs of
    # the 2nd-slowest job, a K/d = 10 one, and the median amid those of
    # the 8th-slowest.  The K/d = 11 job stores the most bits, so it
    # sets the memory peak.
    group_sizes = (10, 10, 11)
    small_jobs = 12
    pass_seconds = 2.5
    # The twelve small shapes are spread over the bits they place,
    # K * sum_i N_i * F / d_i, which sets their cost: the design draws
    # this many candidates per small job, sorts them by that work and
    # takes one from each run.
    candidates_per_job = 10

    @staticmethod
    def draw_small(rng: np.random.Generator) -> tuple[int, list, int]:
        """One or two levels, K 4-12, U 1-2, d 1-3 with K // d <= 9,
        N = K*U*(1..6), F in [2^12, 2^14] bits."""
        k = int(rng.integers(4, 13))
        low = 1 if k <= 9 else 2
        levels = []
        for _ in range(int(rng.integers(1, 3))):
            u = int(rng.integers(1, 3))
            levels.append((k * u * int(rng.integers(1, 7)), u, int(rng.integers(low, 4))))
        return k, levels, int(rng.integers(2**12, 2**14 + 1))

    def shapes(self) -> list[dict]:
        """Per job: K, the levels (N, U, d), a file size, M as a share of
        full storage and whether the demands are the worst case (8 of the
        15 jobs) or random."""
        rng = design_rng()
        # K = group; a first level with d = 1, U = 1, N = 12K and a second
        # with d = 2, U = 2, N = 24K; F in [2^13, 2^14] bits.
        shapes = [
            (group, [(group * 12, 1, 1), (group * 24, 2, 2)], int(rng.integers(2**13, 2**14 + 1)))
            for group in self.group_sizes
        ]

        def placed_bits(draw):
            k, levels, file_bits = draw
            return k * sum(n * file_bits / d for n, _, d in levels)

        per = self.candidates_per_job
        candidates = sorted((self.draw_small(rng) for _ in range(per * self.small_jobs)),
                            key=placed_bits)
        shapes += [candidates[per * i + int(rng.integers(per))] for i in range(self.small_jobs)]
        worst = rng.permutation(len(shapes)) < (len(shapes) + 1) // 2
        shares = rng.uniform(0.0, 1.0, len(shapes))
        large = len(self.group_sizes)
        return [
            {"K": k, "levels": levels, "file_bits": f, "worst_case": bool(w),
             "memory_share": float(m),
             "stratum": f"K/d={k}" if i < large else "K/d<=9"}
            for i, ((k, levels, f), w, m) in enumerate(zip(shapes, worst, shares))
        ]

    def make_pool(self, seed, workdir):
        def draw(rng, index, shape, scale):
            # Less memory keeps pama_rate below a level's full storage.
            full = sum(n / d for n, _, d in shape["levels"])
            share = min(jitter(rng, scale * shape["memory_share"]), 1.0)
            return {
                "K": shape["K"],
                "levels": shape["levels"],
                "M": share * full,
                "file_bits": int(min(max(round(jitter(rng, shape["file_bits"])), 2**12), 2**14)),
                "worst_case": shape["worst_case"],
                "seed": int(rng.integers(0, 2**31)),
                "stratum": shape["stratum"],
            }

        pool, screened = self.screened_draws(
            np.random.default_rng(seed), self.shapes(), draw, self.allocation_fits)
        jobs = []
        for job_id, p in enumerate(pool):
            path = workdir / f"bit-exact-{job_id}.json"
            write_instance(path, p["K"], p["M"], p["levels"])
            jobs.append(Job(job_id, p["stratum"], {
                "config": str(path),
                "file_bits": p["file_bits"],
                "worst_case": p["worst_case"],
                "seed": p["seed"],
            }))
        return jobs, [
            f"# known defect: screened out {screened} bit-exact draws for which "
            "pama_rate gave a level more memory than N_i/d_i (place refuses those)"
        ]

    @staticmethod
    def allocation_fits(p: dict) -> bool:
        """Whether ``pama_rate`` keeps every level's cached fraction
        d_i * share_i / N_i within 1, as ``place`` requires."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = codedcache.make_config(p["K"], p["M"], p["levels"])
            shares = codedcache.pama_rate(config).allocation.shares
        return all(lv.access_degree * share / lv.n_files <= 1.0 + 1e-9
                   for lv, share in zip(config.levels, shares))

    @staticmethod
    def random_demands(config, seed: int) -> list[tuple[int, int, int]]:
        """U_i level-i users on every cache, each asking for a uniformly
        drawn file of its level."""
        rng = np.random.default_rng(seed)
        return [
            (cache, level, int(rng.integers(lv.n_files)))
            for cache in range(config.num_caches)
            for level, lv in enumerate(config.levels)
            for _ in range(lv.users_per_cache)
        ]

    def run(self, job, record):
        p = job.params
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            config = codedcache.load_config(p["config"])
            allocation = codedcache.pama_rate(config).allocation
            placement = codedcache.place(config, allocation, p["file_bits"], p["seed"])
            if p["worst_case"]:
                demands = codedcache.worst_case_demands(config)
            else:
                demands = self.random_demands(config, p["seed"])
            log = codedcache.deliver_bit_exact(placement, demands)
        record.outputs["decode_ok"] = log.decode_ok
        record.outputs["delivery"] = f"{job.id},{log.total_bits},{log.uncoded_bits}\n"

    def check(self, record):
        return checks.check_delivery(record.outputs["decode_ok"])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Catalogue(), Analysis(), BitExact())}
