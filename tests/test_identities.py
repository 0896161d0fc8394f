"""The seeded identity suite and its corruption control."""

import re

import pytest

from ladderspec import LabeledState, OperatorName, apply, run_suite
from ladderspec.identities import BRACKET_TABLE, bracket_residual, random_state

O = OperatorName


def test_bracket_table_has_36_entries():
    assert len(BRACKET_TABLE) == 36


def test_full_suite_passes():
    results = run_suite(seed=0, probes=5)
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]


def test_suite_is_deterministic():
    a = run_suite(seed=7, probes=3)
    b = run_suite(seed=7, probes=3)
    assert [(r.name, r.passed) for r in a] == [(r.name, r.passed) for r in b]


def test_corrupted_operator_detected():
    # harness hook: a wrong coefficient in one generator must show up
    def corrupted(op, st):
        out = apply(op, st)
        if op is O.B_PLUS:
            return LabeledState(out.label, out.expr.scale(2))
        return out

    results = run_suite(seed=0, probes=3, apply_fn=corrupted)
    assert any(not r.passed for r in results)


def test_failing_rows_render_their_residuals():
    def corrupted(op, st):
        out = apply(op, st)
        if op is O.B_PLUS:
            return LabeledState(out.label, out.expr.scale(2))
        return out

    results = run_suite(seed=0, probes=3, apply_fn=corrupted)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert any(d.startswith("residual ") for d in failed.values()), failed
    bracket = failed["[A-,B+] = C+"]
    assert re.fullmatch(r"residual \S+( \+ \S+)* on probe at \(\S+, \S+, \S+\)",
                        bracket), bracket


def test_every_bracket_individually(rng):
    for entry in BRACKET_TABLE:
        st = random_state(rng)
        assert bracket_residual(entry, st).is_zero, entry[0]
