"""Differential tests of the one-table ladder families.

`operators._FAMILIES` writes each su(2,1) family once, by its label slots,
its multipliers and the two signs (eps, sigma), and derives from it the
tilde generators, the label shifts, the 1D intertwiners and factorization
constants, the diagonal eigenvalues, the Casimir and the reflection map.
The oracle below is the earlier form of the same facts, spelled out per
generator or per family: a literal 15-entry shift table, twelve coefficient
builders, a per-family 1D intertwiner, the per-family constants and
diagonal eigenvalues, the Casimir written term by term and a literal
45-entry reflection table.  `spectra` derives the fundamental states from
the same table; their oracle is the hand-written form: three 1D ground
monomials with six inequalities, the vertex monomial with its two checks,
and the vertex energy -(s+3/2)(s+5/2).  Both must give identical results,
and accept and reject the same labels.
"""

from fractions import Fraction
from functools import partial
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderspec import (AdmissibilityError, FunExpr, LabeledState, OperatorName,
                        ParamPoint, apply, apply_casimir, d_theta, d_xi,
                        diag_eigenvalue, ground_full, monomial, reflect,
                        separated_eigenvalue, separated_ladder, vertex_energy)
from ladderspec.algebra import Monomial, RationalLike, rational
from ladderspec.operators import LADDER_OPERATORS, SHIFTS
from ladderspec.spectra import _ground

O = OperatorName
HALF = Fraction(1, 2)


# --- reference oracle: one coefficient builder per generator --------------

_SHIFTS: dict[OperatorName, tuple[int, int, int]] = {
    O.A_PLUS: (-1, -1, 0), O.A_MINUS: (1, 1, 0),
    O.ATILDE_PLUS: (1, -1, 0), O.ATILDE_MINUS: (-1, 1, 0),
    O.B_PLUS: (-1, 0, -1), O.B_MINUS: (1, 0, 1),
    O.BTILDE_PLUS: (1, 0, -1), O.BTILDE_MINUS: (-1, 0, 1),
    O.C_PLUS: (0, 1, -1), O.C_MINUS: (0, -1, 1),
    O.CTILDE_PLUS: (0, -1, -1), O.CTILDE_MINUS: (0, 1, 1),
    O.L0: (0, 0, 0), O.L1: (0, 0, 0), O.L2: (0, 0, 0),
}

_TAN = (-1, 1, 0, 0)
_COT = (1, -1, 0, 0)
_TANH_COS = (1, 0, -1, 1)
_COTH_SEC = (-1, 0, 1, -1)
_TANH_SIN = (0, 1, -1, 1)
_COTH_CSC = (0, -1, 1, -1)


def _combo(*pairs: tuple[Fraction, tuple[int, int, int, int]]) -> FunExpr:
    return FunExpr.from_terms(
        Monomial(c, Fraction(dp), Fraction(dq), Fraction(dr), Fraction(ds))
        for c, (dp, dq, dr, ds) in pairs if c != 0)


_LADDER_TABLE: dict[OperatorName, tuple[str, int, Callable[[ParamPoint], FunExpr]]] = {
    O.A_PLUS: ("dtheta", +1, lambda l: _combo(
        (-(l.l0 - HALF), _TAN), (l.l1 - HALF, _COT))),
    O.A_MINUS: ("dtheta", -1, lambda l: _combo(
        (-(l.l0 + HALF), _TAN), (l.l1 + HALF, _COT))),
    O.ATILDE_PLUS: ("dtheta", +1, lambda l: _combo(
        (l.l0 + HALF, _TAN), (l.l1 - HALF, _COT))),
    O.ATILDE_MINUS: ("dtheta", -1, lambda l: _combo(
        (l.l0 - HALF, _TAN), (l.l1 + HALF, _COT))),
    O.B_PLUS: ("J1", +1, lambda l: _combo(
        (l.l2 - HALF, _TANH_COS), (l.l0 - HALF, _COTH_SEC))),
    O.B_MINUS: ("J1", -1, lambda l: _combo(
        (l.l2 + HALF, _TANH_COS), (l.l0 + HALF, _COTH_SEC))),
    O.BTILDE_PLUS: ("J1", +1, lambda l: _combo(
        (l.l2 - HALF, _TANH_COS), (-(l.l0 + HALF), _COTH_SEC))),
    O.BTILDE_MINUS: ("J1", -1, lambda l: _combo(
        (l.l2 + HALF, _TANH_COS), (-(l.l0 - HALF), _COTH_SEC))),
    O.C_PLUS: ("J0", +1, lambda l: _combo(
        (l.l2 - HALF, _TANH_SIN), (-(l.l1 + HALF), _COTH_CSC))),
    O.C_MINUS: ("J0", -1, lambda l: _combo(
        (l.l2 + HALF, _TANH_SIN), (-(l.l1 - HALF), _COTH_CSC))),
    O.CTILDE_PLUS: ("J0", +1, lambda l: _combo(
        (l.l2 - HALF, _TANH_SIN), (l.l1 - HALF, _COTH_CSC))),
    O.CTILDE_MINUS: ("J0", -1, lambda l: _combo(
        (l.l2 + HALF, _TANH_SIN), (l.l1 + HALF, _COTH_CSC))),
}


def apply_j0(f: FunExpr) -> FunExpr:
    return monomial(1, 0, 1, 0, 0) * d_xi(f) \
        + monomial(1, 1, 0, 1, -1) * d_theta(f)


def apply_j1(f: FunExpr) -> FunExpr:
    return monomial(1, 1, 0, 0, 0) * d_xi(f) \
        - monomial(1, 0, 1, 1, -1) * d_theta(f)


_DERIVATIVE_PART = {"dtheta": d_theta, "J0": apply_j0, "J1": apply_j1}


def reference_apply(op: OperatorName, st: LabeledState) -> LabeledState:
    if op is O.L0:
        return LabeledState(st.label, st.expr.scale(st.label.l0))
    if op is O.L1:
        return LabeledState(st.label, st.expr.scale(st.label.l1))
    if op is O.L2:
        return LabeledState(st.label, st.expr.scale(st.label.l2))
    kind, sign, coeff_fn = _LADDER_TABLE[op]
    deriv = _DERIVATIVE_PART[kind](st.expr)
    out = deriv.scale(sign) + coeff_fn(st.label) * st.expr
    return LabeledState(st.label.shifted(_SHIFTS[op]), out.scale(HALF))


def reference_separated_ladder(
        family: str, sign: int,
        params: tuple[RationalLike, RationalLike]) -> Callable[[FunExpr], FunExpr]:
    x, y = rational(params[0]), rational(params[1])
    if family == "A":
        w = _combo((-(x + HALF), _TAN), (y + HALF, _COT))
        return lambda f: d_theta(f).scale(sign) + w * f
    if family == "B":
        w = _combo((y + HALF, (0, 0, -1, 1)), (x + HALF, (0, 0, 1, -1)))
        return lambda f: d_xi(f).scale(sign) + w * f
    if family == "C":
        w = _combo((y + HALF, (0, 0, -1, 1)), (-x + HALF, (0, 0, 1, -1)))
        return lambda f: d_xi(f).scale(sign) + w * f
    raise ValueError(f"unknown ladder family {family!r}")


_CONSTANTS: dict[str, Callable[[Fraction, Fraction], Fraction]] = {
    "A": lambda x, y: (1 + x + y) ** 2,
    "B": lambda x, y: -((1 + x + y) ** 2),
    "C": lambda x, y: -((1 - x + y) ** 2),
}


def reference_diag_eigenvalue(which: str, label: ParamPoint) -> Fraction:
    if which == "A":
        return -HALF * (label.l0 + label.l1)
    if which == "B":
        return -HALF * (label.l0 + label.l2)
    if which == "C":
        return -HALF * (label.l2 - label.l1)
    raise ValueError(f"unknown diagonal family {which!r}")


def reference_casimir(st: LabeledState) -> FunExpr:
    """Quadratic Casimir: A+A- - B+B- - C+C- + 2/3(A^2+B^2+C^2) - (A+B+C)."""
    out = reference_apply(O.A_PLUS, reference_apply(O.A_MINUS, st)).expr
    out = out - reference_apply(O.B_PLUS, reference_apply(O.B_MINUS, st)).expr
    out = out - reference_apply(O.C_PLUS, reference_apply(O.C_MINUS, st)).expr
    a = reference_diag_eigenvalue("A", st.label)
    b = reference_diag_eigenvalue("B", st.label)
    c = reference_diag_eigenvalue("C", st.label)
    scalar = Fraction(2, 3) * (a * a + b * b + c * c) - (a + b + c)
    return out + st.expr.scale(scalar)


_REFLECT_TABLE: dict[int, dict[OperatorName, tuple[int, OperatorName]]] = {
    0: {
        O.A_PLUS: (1, O.ATILDE_PLUS), O.A_MINUS: (1, O.ATILDE_MINUS),
        O.ATILDE_PLUS: (1, O.A_PLUS), O.ATILDE_MINUS: (1, O.A_MINUS),
        O.B_PLUS: (1, O.BTILDE_PLUS), O.B_MINUS: (1, O.BTILDE_MINUS),
        O.BTILDE_PLUS: (1, O.B_PLUS), O.BTILDE_MINUS: (1, O.B_MINUS),
        O.C_PLUS: (1, O.C_PLUS), O.C_MINUS: (1, O.C_MINUS),
        O.CTILDE_PLUS: (1, O.CTILDE_PLUS), O.CTILDE_MINUS: (1, O.CTILDE_MINUS),
        O.L0: (-1, O.L0), O.L1: (1, O.L1), O.L2: (1, O.L2),
    },
    1: {
        O.A_PLUS: (1, O.ATILDE_MINUS), O.A_MINUS: (1, O.ATILDE_PLUS),
        O.ATILDE_PLUS: (1, O.A_MINUS), O.ATILDE_MINUS: (1, O.A_PLUS),
        O.B_PLUS: (1, O.B_PLUS), O.B_MINUS: (1, O.B_MINUS),
        O.BTILDE_PLUS: (1, O.BTILDE_PLUS), O.BTILDE_MINUS: (1, O.BTILDE_MINUS),
        O.C_PLUS: (1, O.CTILDE_PLUS), O.C_MINUS: (1, O.CTILDE_MINUS),
        O.CTILDE_PLUS: (1, O.C_PLUS), O.CTILDE_MINUS: (1, O.C_MINUS),
        O.L0: (1, O.L0), O.L1: (-1, O.L1), O.L2: (1, O.L2),
    },
    2: {
        O.A_PLUS: (1, O.A_PLUS), O.A_MINUS: (1, O.A_MINUS),
        O.ATILDE_PLUS: (1, O.ATILDE_PLUS), O.ATILDE_MINUS: (1, O.ATILDE_MINUS),
        O.B_PLUS: (1, O.BTILDE_MINUS), O.B_MINUS: (1, O.BTILDE_PLUS),
        O.BTILDE_PLUS: (1, O.B_MINUS), O.BTILDE_MINUS: (1, O.B_PLUS),
        O.C_PLUS: (-1, O.CTILDE_MINUS), O.C_MINUS: (-1, O.CTILDE_PLUS),
        O.CTILDE_PLUS: (-1, O.C_MINUS), O.CTILDE_MINUS: (-1, O.C_PLUS),
        O.L0: (1, O.L0), O.L1: (1, O.L1), O.L2: (-1, O.L2),
    },
}


# --- reference oracle: the fundamental states written per builder --------

def hand_ground_theta(l0: Fraction, l1: Fraction) -> FunExpr:
    if l0 < -HALF or l1 < -HALF:
        raise AdmissibilityError("theta")
    return monomial(1, l0 + HALF, l1 + HALF, 0, 0)


def hand_ground_chi(l0: Fraction, l2: Fraction) -> FunExpr:
    if l0 < -HALF or not l0 + l2 < -1:
        raise AdmissibilityError("chi")
    return monomial(1, 0, 0, l2 + HALF, l0 + HALF)


def hand_ground_beta(l1: Fraction, l2: Fraction) -> FunExpr:
    if not l2 - l1 < -1 or l1 > HALF:
        raise AdmissibilityError("beta")
    return monomial(1, 0, 0, l2 + HALF, -l1 + HALF)


def hand_ground_full(l0: Fraction, l2: Fraction) -> LabeledState:
    if l0 < -HALF or not l0 + l2 < Fraction(-5, 2):
        raise AdmissibilityError("vertex")
    return LabeledState(ParamPoint(l0, Fraction(0), l2),
                        monomial(1, l0 + HALF, HALF, l2 + HALF, l0 + 1))


def hand_vertex_energy(l0: Fraction, l2: Fraction) -> Fraction:
    s = l0 + l2
    return -(s + Fraction(3, 2)) * (s + Fraction(5, 2))


# name -> (derived builder, hand form); the 1D ground states of families
# A, B and C are those of the theta, chi and beta factor Hamiltonians
_HAND_STATES = {"ground_theta": (partial(_ground, "A"), hand_ground_theta),
                "ground_chi": (partial(_ground, "B"), hand_ground_chi),
                "ground_beta": (partial(_ground, "C"), hand_ground_beta),
                "ground_full": (ground_full, hand_ground_full),
                "vertex_energy": (vertex_energy, hand_vertex_energy)}
QUARTER_LABELS = [(Fraction(a, 4), Fraction(b, 4))
                  for a in range(-12, 13) for b in range(-12, 13)]


def _outcome(build: Callable, x: Fraction, y: Fraction):
    """The built value, or AdmissibilityError when the labels are rejected."""
    try:
        return build(x, y)
    except AdmissibilityError:
        return AdmissibilityError


# --- strategies -----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
exponents = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
nonzero = st.builds(Fraction, st.integers(1, 7), st.integers(1, 3)) \
    .flatmap(lambda c: st.sampled_from((c, -c)))


def exprs(theta: bool = True, hyperbolic: bool = True):
    zero = st.just(Fraction(0))
    mono = st.builds(Monomial, nonzero,
                     exponents if theta else zero, exponents if theta else zero,
                     exponents if hyperbolic else zero,
                     exponents if hyperbolic else zero)
    return st.lists(mono, min_size=1, max_size=3).map(FunExpr.from_terms)


labels = st.builds(ParamPoint, rationals, rationals, rationals)


# --- tests ----------------------------------------------------------------

@pytest.mark.parametrize("op", list(O), ids=lambda op: op.value)
@settings(max_examples=25)
@given(label=labels, expr=exprs())
def test_apply_matches_per_generator_table(op, label, expr):
    st_ = LabeledState(label, expr)
    got, want = apply(op, st_), reference_apply(op, st_)
    assert got.label == want.label
    assert got.expr == want.expr


@pytest.mark.parametrize("sign", (+1, -1))
@pytest.mark.parametrize("family", ("A", "B", "C"))
@settings(max_examples=25)
@given(x=rationals, y=rationals, data=st.data())
def test_separated_ladder_matches_per_family_form(family, sign, x, y, data):
    f = data.draw(exprs(theta=family == "A", hyperbolic=family != "A"))
    got = separated_ladder(family, sign, (x, y))(f)
    assert got == reference_separated_ladder(family, sign, (x, y))(f)


def test_shifts_match_literal_table():
    assert list(SHIFTS.items()) == list(_SHIFTS.items())
    assert LADDER_OPERATORS == tuple(op for op in O if _SHIFTS[op] != (0, 0, 0))


@pytest.mark.parametrize("family", ("A", "B", "C"))
@given(x=rationals, y=rationals)
def test_separated_eigenvalue_matches_per_family_constant(family, x, y):
    assert separated_eigenvalue(family, (x, y)) == _CONSTANTS[family](x, y)


@pytest.mark.parametrize("family", ("A", "B", "C"))
@given(label=labels)
def test_diag_eigenvalue_matches_per_family_chain(family, label):
    assert diag_eigenvalue(family, label) == reference_diag_eigenvalue(family, label)


@settings(max_examples=25)
@given(label=labels, expr=exprs())
def test_casimir_matches_term_by_term_form(label, expr):
    st_ = LabeledState(label, expr)
    assert apply_casimir(st_) == reference_casimir(st_)


@pytest.mark.parametrize("axis", (0, 1, 2))
def test_reflect_matches_literal_table(axis):
    assert {op: reflect(axis, op) for op in O} == _REFLECT_TABLE[axis]


def test_unknown_family_and_reflection_entry_are_rejected():
    with pytest.raises(ValueError):
        separated_ladder("D", +1, (0, 0))
    with pytest.raises(ValueError):
        separated_eigenvalue("D", (0, 0))
    with pytest.raises(ValueError):
        diag_eigenvalue("D", ParamPoint.of(0, 0, 0))
    with pytest.raises(ValueError):
        reflect(3, O.A_PLUS)
    with pytest.raises(ValueError):
        reflect(-1, O.A_PLUS)


@pytest.mark.parametrize("name", list(_HAND_STATES))
def test_fundamental_states_match_hand_forms(name):
    derived, hand = _HAND_STATES[name]
    got = [_outcome(derived, x, y) for x, y in QUARTER_LABELS]
    assert got == [_outcome(hand, x, y) for x, y in QUARTER_LABELS]
    assert any(g is not AdmissibilityError for g in got)


@pytest.mark.parametrize("family, name", [("A", "ground_theta"), ("B", "ground_chi"),
                                          ("C", "ground_beta")])
def test_ground_state_is_the_kernel_of_the_lowering_intertwiner(family, name):
    kept = 0
    for x, y in QUARTER_LABELS:
        f = _outcome(_HAND_STATES[name][0], x, y)
        if f is not AdmissibilityError:
            assert separated_ladder(family, -1, (x, y))(f).is_zero, (x, y)
            kept += 1
    assert kept
