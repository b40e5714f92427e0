"""Acceptance gate: every criterion must pass at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or ``codedcache selftest`` for the same outside pytest.
"""

import re

import pytest

from codedcache import acceptance
from codedcache.pama import grid_search_alpha
from codedcache.sim import DecodeError, deliver_bit_exact


@pytest.mark.parametrize(
    "number,name,func",
    acceptance.CRITERIA,
    ids=[f"{num:02d}_{name.replace(' ', '_')}" for num, name, _ in acceptance.CRITERIA],
)
def test_criterion(number, name, func):
    passed, detail = func()
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def _criterion(number):
    """Criterion ``number`` as the suite runs it."""
    return next(func for num, _, func in acceptance.CRITERIA if num == number)


def test_criterion_3_counts_a_decode_failure_and_runs_on(monkeypatch):
    calls = []

    def raising(placement, demands):
        calls.append(demands)
        if len(calls) in (1, 204):  # a fuzzed delivery, then the last F=2^17 one
            raise DecodeError("injected")
        return deliver_bit_exact(placement, demands)

    monkeypatch.setattr(acceptance, "deliver_bit_exact", raising)
    passed, detail = _criterion(3)()
    assert not passed
    assert detail.startswith("decode 199/200, worst F=2^17 relative error inf%, ")
    assert len(calls) == 204


def test_criterion_4_fails_when_the_oracle_is_lowered(monkeypatch):
    def lowered(config, grid_step):
        alloc, rate = grid_search_alpha(config, grid_step)
        return alloc, rate - 1e-6

    monkeypatch.setattr(acceptance, "grid_search_alpha", lowered)
    passed, detail = _criterion(4)()
    assert not passed
    assert re.match(r"\d+/100 at or below the oracle, worst PAMA - oracle 1\.00e-06, ", detail)
