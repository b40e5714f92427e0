"""Output checks, one set per workload.

Every check returns a list of problems; an empty list means the output
passed.  The checks read what the program wrote (CSV text, instance
JSON, a delivery log), never its internals.
"""

from __future__ import annotations

import csv
import json
import math

# The CLI prints 9 significant digits, so comparisons between two
# printed values allow a relative slack of 1e-9.
REL = 1e-9


def fmt9(value: float) -> str:
    """A float the way the CLI prints it."""
    return format(float(value), ".9g")


def csv_rows(text: str) -> list[dict[str, str]]:
    """Data rows of a CLI CSV: '#' lines dropped, first line the header."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_exit(step: str, rc: int, stderr: str) -> list[str]:
    if rc == 0:
        return []
    first = stderr.strip().splitlines()[0] if stderr.strip() else ""
    return [f"{step} exited {rc}: {first}"]


def check_gap(text: str) -> list[str]:
    """Every row has best_LB <= R_exact*(1+1e-9) + 1e-9."""
    rows = csv_rows(text)
    if not rows:
        return ["gap printed no rows"]
    problems = []
    for row in rows:
        r, lb = float(row["R_exact"]), float(row["best_LB"])
        if not lb <= r * (1 + REL) + REL:
            problems.append(f"gap at M={row['M']}: best_LB {lb} exceeds R_exact {r}")
    return problems


def check_sweep(text: str, max_rate: float) -> list[str]:
    """R_exact never increases with M and stays within [0, sum K*U_i]."""
    rows = csv_rows(text)
    if not rows:
        return ["sweep printed no rows"]
    problems = []
    prev = math.inf
    for row in rows:
        r = float(row["R_exact"])
        if not 0.0 <= r <= max_rate * (1 + REL):
            problems.append(f"sweep at M={row['M']}: R_exact {r} outside [0, {max_rate}]")
        if r > prev * (1 + REL) + REL:
            problems.append(f"sweep at M={row['M']}: R_exact rises from {prev} to {r}")
        prev = r
    return problems


def check_oracle(text: str) -> list[str]:
    """``pama --grid-step`` printed its allocation row and a finite,
    non-negative oracle rate."""
    oracle = [line for line in text.splitlines() if line.startswith("# oracle")]
    if len(oracle) != 1 or len(csv_rows(text)) != 1:
        return ["pama --grid-step printed no oracle line or no allocation row"]
    value = float(oracle[0].rsplit(":", 1)[1])
    if not (math.isfinite(value) and value >= 0.0):
        return [f"oracle rate {value} is not a finite non-negative number"]
    return []


def check_instance(text: str, n_files: int) -> list[str]:
    """The discretized instance loads as JSON and its N_i sum to N."""
    try:
        data = json.loads(text)
        total = sum(int(level["N"]) for level in data["levels"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"discretized instance does not load: {exc}"]
    if total != n_files:
        return [f"discretized levels hold {total} files, expected {n_files}"]
    return []


def check_simulate(text: str, users: int, trials: int, theoretical: float) -> list[str]:
    """One row per trial, each with a finite rate in [0, users] and the
    theoretical column equal to ``pama_rate(config).exact.total`` to 9
    digits."""
    rows = csv_rows(text)
    if len(rows) != trials:
        return [f"simulate printed {len(rows)} rows, expected {trials}"]
    problems = []
    want = fmt9(theoretical)
    for row in rows:
        rate = float(row["empirical_rate"])
        if not (math.isfinite(rate) and 0.0 <= rate <= users):
            problems.append(f"trial {row['trial']}: rate {rate} outside [0, {users}]")
        if row["theoretical_rate"] != want:
            problems.append(
                f"trial {row['trial']}: theoretical {row['theoretical_rate']} != pama {want}"
            )
    return problems


def check_delivery(decode_ok: bool) -> list[str]:
    return [] if decode_ok else ["deliver_bit_exact reported decode_ok = False"]
