"""Differential tests of the one-pass operator kernel `algebra._linear`.

The Hamiltonian, the 1D factor Hamiltonians and every ladder generator apply
their rules to an expression in one pass of `_linear`, and `-` merges its two
operands directly.  The oracles below are the earlier composition forms of
the same operators: repeated derivatives, products with `monomial`
multipliers, negated copies and sums of intermediate expressions.  Both must
give identical normal forms.  The derivatives and products with a monomial
are checked against Monomial-level oracles in test_normal_form.py, the
ladder generators against their own oracle in test_operator_tables.py.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ladderspec import (FunExpr, LabeledState, ParamPoint, apply_hamiltonian,
                        apply_separated, d_theta, d_xi, monomial, separated_ladder)
from ladderspec.algebra import Monomial

QUARTER = Fraction(1, 4)


# --- reference oracle: the composition forms --------------------------------

def oracle_sub(a: FunExpr, b: FunExpr) -> FunExpr:
    return a + (-b)


def oracle_theta_factor(f: FunExpr, x: Fraction, y: Fraction) -> FunExpr:
    """-d_theta^2 + (y^2-1/4)/sin^2 + (x^2-1/4)/cos^2 applied to f."""
    return oracle_sub(
        monomial(y * y - QUARTER, 0, -2, 0, 0) * f
        + monomial(x * x - QUARTER, -2, 0, 0, 0) * f,
        d_theta(d_theta(f)))


def oracle_apply_hamiltonian(s: LabeledState) -> FunExpr:
    l0, l1, l2 = s.label.astuple()
    f = s.expr
    out = -d_xi(d_xi(f))
    out = oracle_sub(out, monomial(1, 0, 0, 1, -1) * d_xi(f))
    out = oracle_sub(out, monomial(l2 * l2 - QUARTER, 0, 0, -2, 0) * f)
    return out + monomial(1, 0, 0, 0, -2) * oracle_theta_factor(f, l0, l1)


def oracle_apply_separated(which: str, f: FunExpr, x: Fraction,
                           y: Fraction) -> FunExpr:
    if which == "theta":
        return oracle_theta_factor(f, x, y)
    out = -d_xi(d_xi(f)) + monomial(x * x - QUARTER, 0, 0, 0, -2) * f
    return oracle_sub(out, monomial(y * y - QUARTER, 0, 0, -2, 0) * f)


# --- strategies -----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
exponents = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
nonzero = st.builds(Fraction, st.integers(1, 7), st.integers(1, 3)) \
    .flatmap(lambda c: st.sampled_from((c, -c)))


def exprs(theta: bool = True, hyperbolic: bool = True, max_size: int = 3):
    zero = st.just(Fraction(0))
    mono = st.builds(Monomial, nonzero,
                     exponents if theta else zero, exponents if theta else zero,
                     exponents if hyperbolic else zero,
                     exponents if hyperbolic else zero)
    return st.lists(mono, min_size=0, max_size=max_size).map(FunExpr.from_terms)


labels = st.builds(ParamPoint, rationals, rationals, rationals)


def assert_same(got: FunExpr, want: FunExpr) -> None:
    assert got == want
    assert got.terms == want.terms


# --- tests ----------------------------------------------------------------

@given(exprs(max_size=5), exprs(max_size=5))
def test_sub_matches_negated_sum(a, b):
    assert_same(a - b, oracle_sub(a, b))
    assert_same(a - a, FunExpr())
    assert_same(b - a, -(a - b))


@settings(max_examples=50)
@given(labels, exprs())
def test_hamiltonian_matches_composition_form(label, f):
    s = LabeledState(label, f)
    assert_same(apply_hamiltonian(s), oracle_apply_hamiltonian(s))


@settings(max_examples=40)
@given(st.sampled_from(("theta", "chi", "beta")), rationals, rationals, st.data())
def test_separated_matches_composition_form(which, x, y, data):
    f = data.draw(exprs(theta=which == "theta", hyperbolic=which != "theta"))
    assert_same(apply_separated(which, f, (x, y)),
                oracle_apply_separated(which, f, x, y))


@settings(max_examples=40)
@given(st.sampled_from("ABC"), rationals, rationals, rationals, st.data())
def test_separated_ladder_is_affine_in_its_sign(family, sign, x, y, data):
    # sign * D + multipliers, for any rational sign, not only +-1
    f = data.draw(exprs(theta=family == "A", hyperbolic=family != "A"))

    def at(s):
        return separated_ladder(family, s, (x, y))(f)
    assert_same(at(sign) - at(0), (at(1) - at(0)).scale(sign))
