"""Outside-in tracing of the codedcache layers.

The tracer wraps public library functions from the benchmark's side; no
source file of the package is edited.  Package modules bind these names
with ``from .x import y``, so each wrapper replaces the name in every
``codedcache`` module that holds the original function object, and
:meth:`Tracer.uninstall` puts the originals back.

Per function the tracer records calls, total time and self time (total
minus the time spent in nested traced calls, their wrappers included).  Some wrappers also count
work from the arguments or the result (witness kinds, delivered bits).
A span per job, tagged with the job id, is kept in memory and written
out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Traced functions, grouped by the layer (package module) that defines them.
LAYERS: dict[str, tuple[str, ...]] = {
    "model": ("load_config", "validate"),
    "rate": ("single_level_rate", "lfu_rate"),
    "pama": (
        "build_threshold_table",
        "pama_rate",
        "total_rate_exact",
        "pama_allocate",
        "grid_search_alpha",
    ),
    "bounds": ("best_lower_bound", "gap_profile"),
    "popularity": (
        "zipf_distribution",
        "brute_force_partition",
        "discretize",
        "level_map_for_config",
    ),
    "sim": ("place", "deliver_bit_exact", "simulate_stochastic", "expected_profile_rate"),
}

WITNESS_KINDS = ("cutset", "noncutset", "corollary", "trivial_zero")

# Per-layer metrics as (name, unit, better).  Work counts are "lower is
# better" (the same jobs done with less work); the witness counts and
# the uncoded share describe the jobs and should not move at all.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("model.calls", "count", "lower"),
    ("model.self_s", "s", "lower"),
    ("rate.calls", "count", "lower"),
    ("rate.self_s", "s", "lower"),
    ("rate.ns_per_call", "ns", "lower"),
    ("pama.points", "count", "lower"),
    ("pama.tables", "count", "lower"),
    ("pama.tables_per_point", "ratio", "lower"),
    ("pama.exact_evals", "count", "lower"),
    ("pama.evals_per_point", "ratio", "lower"),
    ("pama.us_per_point", "us", "lower"),
    ("pama.self_s", "s", "lower"),
    ("pama.oracle_s", "s", "lower"),
    ("bounds.points", "count", "lower"),
    ("bounds.ms_per_point", "ms", "lower"),
    ("bounds.self_s", "s", "lower"),
    *((f"bounds.wins.{kind}", "count", "higher") for kind in WITNESS_KINDS),
    ("popularity.partitions", "count", "lower"),
    ("popularity.candidates", "count", "lower"),
    ("popularity.candidates_per_s", "1/s", "higher"),
    ("popularity.self_s", "s", "lower"),
    ("popularity.zipf_s", "s", "lower"),
    ("sim.place_s", "s", "lower"),
    ("sim.deliver_s", "s", "lower"),
    ("sim.deliver_bits_per_s", "bits/s", "higher"),
    ("sim.delivered_bits", "bits", "lower"),
    ("sim.uncoded_share", "ratio", "lower"),
    ("sim.subsystems", "count", "lower"),
    ("sim.subsets_enumerated", "count-computed", "lower"),
    ("sim.trials", "count", "lower"),
    ("sim.demands_priced", "count", "lower"),
    ("sim.us_per_demand", "us", "lower"),
    ("sim.stochastic_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def subsets_enumerated(placement, demands) -> int:
    """Subsets of two or more users that ``deliver_bit_exact`` walks:
    the sum of 2^n - n - 1 over every (group, colour) subsystem.

    Computed, not measured: group sizes follow from the demands (slot =
    arrival order per cache and level) and the colouring (users on edge
    caches are served uncoded and join no group).
    """
    config = placement.config
    k = config.num_caches
    slots: Counter = Counter()
    groups: Counter = Counter()
    for cache, level, _ in demands:
        d = config.levels[level].access_degree
        slot = slots[(cache, level)]
        slots[(cache, level)] += 1
        if k % d and cache > k - d:
            continue
        groups[(level, cache % d, slot)] += 1
    return sum(
        config.levels[level].access_degree * (2**n - n - 1)
        for (level, _, _), n in groups.items()
    )


class Tracer:
    """Wraps the functions in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.stats = {name: FunctionStats() for names in LAYERS.values() for name in names}
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self._child_s: list[float] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "codedcache" or name.startswith("codedcache."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"codedcache.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        child_s = self._child_s
        active = self._active
        after = getattr(self, f"_after_{name}", None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            try:
                child_s.append(0.0)
                active[name] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    active[name] -= 1
                    nested = child_s.pop()
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - nested
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                # The caller is credited with the whole wrapper, bookkeeping
                # and after-hook included, so the tracer's own cost does not
                # land in the caller's self time.
                span = clock() - entered
                if child_s:
                    child_s[-1] += span
                else:
                    self.counts["toplevel_s"] += span

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    # -- counters taken from arguments and results --------------------

    def _after_best_lower_bound(self, witness, *args, **kwargs) -> None:
        self.counts[f"wins.{witness.kind}"] += 1

    def _after_discretize(self, config, *args, **kwargs) -> None:
        if self._active["brute_force_partition"]:
            self.counts["candidates"] += 1

    def _after_deliver_bit_exact(self, log, placement, demands) -> None:
        self.counts["delivered_bits"] += log.total_bits
        self.counts["uncoded_bits"] += log.uncoded_bits
        self.counts["subsystems"] += len(log.pair_bits)
        self.counts["subsets_enumerated"] += subsets_enumerated(placement, demands)

    def _after_simulate_stochastic(self, result, *args, **kwargs) -> None:
        self.counts["trials"] += len(result.rates)

    def _after_expected_profile_rate(self, rate, config, shares, demands) -> None:
        self.counts["demands_priced"] += len(demands)

    # -- jobs ---------------------------------------------------------

    def job_span(self, job_id: int, kind: str, start: float, end: float, ok: bool) -> None:
        self.spans.append(
            {"job": job_id, "kind": kind, "start": start, "end": end, "ok": ok}
        )

    # -- results ------------------------------------------------------

    def _layer(self, layer: str) -> FunctionStats:
        out = FunctionStats()
        for name in LAYERS[layer]:
            s = self.stats[name]
            out.calls += s.calls
            out.total_s += s.total_s
            out.self_s += s.self_s
        return out

    def metrics(self, cli_bytes_out: int) -> dict[str, float]:
        """Per-layer metrics, keyed by the names in BENCHMARK.json."""
        st = self.stats
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        job_s = sum(span["end"] - span["start"] for span in self.spans)
        points = st["pama_rate"].calls
        bound_points = st["best_lower_bound"].calls
        rate = self._layer("rate")
        model = self._layer("model")
        deliver_s = st["deliver_bit_exact"].total_s
        out = {
            "cli.self_s": job_s - c["toplevel_s"],
            "cli.bytes_out": cli_bytes_out,
            "model.calls": model.calls,
            "model.self_s": model.self_s,
            "rate.calls": rate.calls,
            "rate.self_s": rate.self_s,
            "rate.ns_per_call": 1e9 * ratio(rate.self_s, rate.calls),
            "pama.points": points,
            "pama.tables": st["build_threshold_table"].calls,
            "pama.tables_per_point": ratio(st["build_threshold_table"].calls, points),
            "pama.exact_evals": st["total_rate_exact"].calls,
            "pama.evals_per_point": ratio(st["total_rate_exact"].calls, points),
            "pama.us_per_point": 1e6 * ratio(st["pama_rate"].total_s, points),
            "pama.self_s": self._layer("pama").self_s,
            "pama.oracle_s": st["grid_search_alpha"].total_s,
            "bounds.points": bound_points,
            "bounds.ms_per_point": 1e3 * ratio(st["best_lower_bound"].total_s, bound_points),
            "bounds.self_s": self._layer("bounds").self_s,
        }
        for kind in WITNESS_KINDS:
            out[f"bounds.wins.{kind}"] = c[f"wins.{kind}"]
        search_s = st["brute_force_partition"].total_s
        out.update(
            {
                "popularity.partitions": st["brute_force_partition"].calls,
                "popularity.candidates": c["candidates"],
                "popularity.candidates_per_s": ratio(c["candidates"], search_s),
                "popularity.self_s": self._layer("popularity").self_s,
                "popularity.zipf_s": st["zipf_distribution"].total_s,
                "sim.place_s": st["place"].total_s,
                "sim.deliver_s": deliver_s,
                "sim.deliver_bits_per_s": ratio(c["delivered_bits"], deliver_s),
                "sim.delivered_bits": c["delivered_bits"],
                "sim.uncoded_share": ratio(c["uncoded_bits"], c["delivered_bits"]),
                "sim.subsystems": c["subsystems"],
                "sim.subsets_enumerated": c["subsets_enumerated"],
                "sim.trials": c["trials"],
                "sim.demands_priced": c["demands_priced"],
                "sim.us_per_demand": 1e6
                * ratio(st["expected_profile_rate"].total_s, c["demands_priced"]),
                "sim.stochastic_s": st["simulate_stochastic"].total_s,
            }
        )
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the spans and per-function statistics as JSON."""
        doc = dict(extra)
        doc["functions"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for name, s in self.stats.items()
        }
        doc["counts"] = dict(self.counts)
        doc["job_spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
