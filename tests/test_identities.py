"""The seeded identity suite and its corruption control."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ladderspec import LabeledState, OperatorName, apply, run_suite
from ladderspec.algebra import _combine
from ladderspec.identities import _CROSS, BRACKET_TABLE, _act, bracket_residual, random_state
from ladderspec.operators import _BY_SHIFT, _GENERATORS, SHIFTS

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


def corrupted_b_plus(op, st):
    """`apply` with B+ doubled, the corruption hook of the suite tests."""
    out = apply(op, st)
    return LabeledState(out.label, out.expr.scale(2)) if op is O.B_PLUS else out


def three_call_residual(entry, st, apply_fn):
    """The oracle: x(y st) - y(x st) - sum c z(st) with every image of st
    applied where it is used, so y st twice on a row [L, y] = c y."""
    _, xg, yg, rhs = entry
    return _combine(_act(xg, _act(yg, st, apply_fn), apply_fn).expr,
                    (_act(yg, _act(xg, st, apply_fn), apply_fn).expr, -1),
                    *((_act(gen, st, apply_fn).expr, -coeff) for coeff, gen in rhs))


def test_apply_fn_is_called_once_per_distinct_image(rng):
    # [L, y] = c y: y st and x(y st), the diagonal x being a scale; a ladder
    # row: y st, x(y st), x st, y(x st), and z st for a ladder z
    for entry in BRACKET_TABLE:
        _, x, y, rhs = entry
        calls = []
        bracket_residual(entry, random_state(rng),
                         lambda op, st: calls.append(op) or apply(op, st))
        if x not in _GENERATORS:
            want = 2 if y in _GENERATORS else 0
        else:
            want = 5 if rhs and rhs[0][1] in _GENERATORS else 4
        assert len(calls) == want, entry[0]
        assert rhs == [] or x in _GENERATORS or rhs[0][1] == y, entry[0]


@pytest.mark.parametrize("apply_fn", [apply, corrupted_b_plus], ids=["apply", "corrupted"])
@settings(max_examples=10)
@given(hst.integers(0, 2 ** 32))
def test_residuals_match_the_three_call_form(apply_fn, seed):
    rng = random.Random(seed)
    for entry in BRACKET_TABLE:
        st = random_state(rng)
        got, want = bracket_residual(entry, st, apply_fn), three_call_residual(entry, st, apply_fn)
        assert got == want and str(got) == str(want), entry[0]
