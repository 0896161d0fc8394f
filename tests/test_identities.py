"""The seeded identity suite and its corruption control."""

import re

import pytest

from ladderspec import LabeledState, OperatorName, apply, run_suite
from ladderspec.identities import _CROSS, BRACKET_TABLE, bracket_residual, random_state
from ladderspec.operators import _BY_SHIFT, SHIFTS

O = OperatorName


def test_bracket_table_has_36_entries():
    assert len(BRACKET_TABLE) == 36


SU21 = ("A", "B", "C", "A+", "A-", "B+", "B-", "C+", "C-")


def test_bracket_rows_are_the_unordered_pairs_of_su21():
    pairs = [frozenset((x, y)) for _, x, y, _ in BRACKET_TABLE]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {frozenset((x, y)) for i, x in enumerate(SU21) for y in SU21[i + 1:]}


def test_cross_constants_are_the_pairs_whose_shifts_add_to_a_ladder_shift():
    # cross-family ladder pairs, in the table's orientation
    cross = [(x, y) for _, x, y, _ in BRACKET_TABLE
             if len(x) == len(y) == 2 and x[0] != y[0]]
    assert len(cross) == 12
    assert set(_CROSS) == {(x, y) for x, y in cross
                           if tuple(map(sum, zip(SHIFTS[x], SHIFTS[y]))) in _BY_SHIFT}


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
