"""Differential and property tests of the partial-fraction normal form.

`FunExpr.from_terms` expands each offset pair in closed form.  The oracle
below reaches the same normal form the slow way: a worklist that applies one
two-term identity (sin^2 = 1 - cos^2, 1 = cos^2 + sin^2, cosh^2 = 1 + sinh^2,
...) per step until no rule fires.  Both must give identical terms.

The arithmetic and the derivatives work on residue classes and integer
offsets.  Their oracles are the earlier Monomial-level versions, which
rebuild Fraction exponents term by term and normalize with `from_terms`.
So is the oracle of the convergence checks `is_normalizable` and `integral`
run, which reads the walls and the large-xi growth slots off `terms` and
sums the terms' Beta values in `terms` order, continued through the poles
of Gamma where a term grows, and the oracle of `eval_at` and `eval_grid`,
which takes the Fraction powers of `terms` one by one.  The continued
values of growing terms are also checked against 60-digit mpmath values
and against mpmath sums of the regulated terms.
"""

import math
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import digamma

from ladderspec import (DivergenceError, DomainError, FunExpr, ParamPoint,
                        apply_word, bound_spectrum, d_theta, d_xi, eval_at,
                        eval_grid, ground_full, inner, integral, is_normalizable,
                        monomial)
from ladderspec.algebra import Monomial, _combine, rational


# --- reference oracle: the stepwise reducer -------------------------------

def _residue(e: Fraction) -> Fraction:
    """Representative of e mod 2 in [0, 2)."""
    return e - 2 * (e / 2).__floor__()


def _reduce_monomial(key: tuple) -> Optional[list[tuple[Fraction, tuple]]]:
    """One rewriting step toward the partial-fraction normal form.

    Trig pair (variables X = cos^2, Y = sin^2 with X + Y = 1): surplus sin
    powers are expanded in cos, a cos surplus on a sin pole is expanded in
    sin, and mixed poles are split.  Hyperbolic pair (R = cosh^2,
    T = sinh^2 with R - T = 1) analogously, keeping cosh minimal.  Returns
    None when `key` is already canonical.
    """
    p, q, r, s = key
    qc, pc = _residue(q), _residue(p)
    if q - qc >= 2:  # sin^2 = 1 - cos^2
        return [(Fraction(1), (p, q - 2, r, s)), (Fraction(-1), (p + 2, q - 2, r, s))]
    if q - qc <= -2 and p - pc >= 2:  # cos^2 = 1 - sin^2
        return [(Fraction(1), (p - 2, q, r, s)), (Fraction(-1), (p - 2, q + 2, r, s))]
    if q - qc <= -2 and p - pc <= -2:  # 1 = cos^2 + sin^2
        return [(Fraction(1), (p + 2, q, r, s)), (Fraction(1), (p, q + 2, r, s))]
    rc, sc = _residue(r), _residue(s)
    if r - rc >= 2:  # cosh^2 = 1 + sinh^2
        return [(Fraction(1), (p, q, r - 2, s)), (Fraction(1), (p, q, r - 2, s + 2))]
    if r - rc <= -2 and s - sc >= 2:  # sinh^2 = cosh^2 - 1
        return [(Fraction(1), (p, q, r + 2, s - 2)), (Fraction(-1), (p, q, r, s - 2))]
    if r - rc <= -2 and s - sc <= -2:  # 1 = cosh^2 - sinh^2
        return [(Fraction(1), (p, q, r + 2, s)), (Fraction(-1), (p, q, r, s + 2))]
    return None


def reference_from_terms(terms) -> FunExpr:
    acc: dict[tuple, Fraction] = {}
    work = [(t.coeff, t.key) for t in terms]
    while work:
        coeff, key = work.pop()
        if coeff == 0:
            continue
        replacement = _reduce_monomial(key)
        if replacement is None:
            acc[key] = acc.get(key, Fraction(0)) + coeff
        else:
            work.extend((coeff * c, k) for c, k in replacement)
    merged = [Monomial(c, *k) for k, c in acc.items() if c != 0]
    merged.sort(key=lambda m: m.key)
    return FunExpr(tuple(merged))


# --- strategies ------------------------------------------------------------

@st.composite
def monomials(draw, budget=12):
    """c * cos^p sin^q cosh^r sinh^s with random rational residues mod 2.

    Each integer offset lies in [-8, 8].  The oracle's step count grows
    about like 2^(|P| + |Q| + |R| + |S|) in the offsets, so the four share
    one budget on that sum; any single one can still reach +-8.
    """
    offsets = [0] * 4
    for slot in draw(st.permutations(range(4))):
        reach = min(8, budget)
        offsets[slot] = k = draw(st.integers(-reach, reach))
        budget -= abs(k)
    exps = []
    for k in offsets:
        d = draw(st.integers(1, 6))
        exps.append(Fraction(draw(st.integers(0, 2 * d - 1)), d) + 2 * k)
    coeff = Fraction(draw(st.integers(-9, 9).filter(bool)),
                     draw(st.integers(1, 6)))
    return Monomial(coeff, *exps)


term_lists = st.lists(monomials(), max_size=4)
small_exprs = st.lists(monomials(budget=4), min_size=1,
                       max_size=2).map(FunExpr.from_terms)


# --- tests -----------------------------------------------------------------

@given(term_lists)
@example([Monomial(Fraction(3), Fraction(-31, 2), Fraction(-17, 3),
                   Fraction(-5, 2), Fraction(-4))])    # deep trig mixed pole
@example([Monomial(Fraction(-1, 2), Fraction(-2), Fraction(-3, 2),
                   Fraction(-17, 3), Fraction(-15))])  # deep hyp mixed pole
def test_matches_stepwise_oracle(terms):
    assert_same(FunExpr.from_terms(terms), reference_from_terms(terms))


@given(term_lists)
def test_idempotent(terms):
    f = FunExpr.from_terms(terms)
    assert FunExpr.from_terms(f.terms) == f


@given(small_exprs, small_exprs, small_exprs)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_exprs, small_exprs, small_exprs)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a


@given(term_lists, st.floats(0.2, math.pi / 2 - 0.2), st.floats(0.2, 2.0))
def test_eval_of_raw_terms_agrees(terms, theta, xi):
    raw = FunExpr(tuple(terms))  # bypasses normalization
    f = FunExpr.from_terms(terms)
    scale = sum(abs(eval_at(FunExpr((m,)), theta, xi))
                for m in raw.terms + f.terms)
    assert abs(eval_at(raw, theta, xi) - eval_at(f, theta, xi)) \
        <= 1e-10 * max(scale, 1.0)


# --- reference oracles: the Monomial-level arithmetic ----------------------

def oracle_add(self, other):
    return FunExpr.from_terms(self.terms + other.terms)


def oracle_neg(self):
    return FunExpr(tuple(Monomial(-m.coeff, *m.key) for m in self.terms))


def oracle_mul(self, other):
    out = []
    for a in self.terms:
        for b in other.terms:
            out.append(Monomial(a.coeff * b.coeff, a.p + b.p, a.q + b.q,
                                a.r + b.r, a.s + b.s))
    return FunExpr.from_terms(out)


def oracle_scale(self, c):
    c = rational(c)
    if c == 0:
        return FunExpr()
    return FunExpr(tuple(Monomial(m.coeff * c, *m.key) for m in self.terms))


def oracle_shift(self, dp=0, dq=0, dr=0, ds=0):
    dp, dq = rational(dp), rational(dq)
    dr, ds = rational(dr), rational(ds)
    return FunExpr.from_terms(
        Monomial(m.coeff, m.p + dp, m.q + dq, m.r + dr, m.s + ds)
        for m in self.terms)


def oracle_d_theta(f):
    out = []
    for m in f.terms:
        if m.p != 0:
            out.append(Monomial(-m.p * m.coeff, m.p - 1, m.q + 1, m.r, m.s))
        if m.q != 0:
            out.append(Monomial(m.q * m.coeff, m.p + 1, m.q - 1, m.r, m.s))
    return FunExpr.from_terms(out)


def oracle_d_xi(f):
    out = []
    for m in f.terms:
        if m.r != 0:
            out.append(Monomial(m.r * m.coeff, m.p, m.q, m.r - 1, m.s + 1))
        if m.s != 0:
            out.append(Monomial(m.s * m.coeff, m.p, m.q, m.r + 1, m.s - 1))
    return FunExpr.from_terms(out)


exprs = term_lists.map(FunExpr.from_terms)
rationals = st.fractions(-9, 9, max_denominator=6)


def assert_same(f, g):
    assert f == g
    assert f.terms == g.terms


@given(exprs, exprs)
def test_add_matches_oracle(a, b):
    assert_same(a + b, oracle_add(a, b))
    assert_same(a - a, FunExpr())


@given(exprs)
def test_neg_matches_oracle(f):
    assert_same(-f, oracle_neg(f))


@given(small_exprs, small_exprs)
def test_mul_matches_oracle(a, b):
    assert_same(a * b, oracle_mul(a, b))


@given(exprs, rationals)
def test_scale_matches_oracle(f, c):
    assert_same(f.scale(c), oracle_scale(f, c))
    assert_same(f.scale(0), oracle_scale(f, 0))
    assert_same(f.scale(1), oracle_scale(f, 1))


factors = st.one_of(st.sampled_from((0, 1, -1)), rationals)


@given(exprs, st.lists(st.tuples(exprs, factors), max_size=3))
def test_combine_matches_oracle(first, parts):
    want = first
    for g, c in parts:
        want = oracle_add(want, oracle_scale(g, c))
    assert_same(_combine(first, *parts), want)


def merge_order(*fs):
    """The (class, offsets) keys of the fs in order of first appearance,
    grouped by class in order of first appearance."""
    groups = {}
    for f in fs:
        for cls, row in f.classes.items():
            keys = groups.setdefault(cls, {})
            keys.update(dict.fromkeys(row))
    return [(cls, k) for cls, keys in groups.items() for k in keys]


@given(exprs, exprs)
def test_sums_keep_the_merge_key_order(a, b):
    """`+` and `-` list a's keys first, then b's new ones, as evaluation sums
    the terms in that order."""
    for got in (a + b, a - b):
        keys = [(cls, k) for cls, row in got.classes.items() for k in row]
        assert keys == [(cls, k) for cls, k in merge_order(a, b)
                        if k in got.classes.get(cls, {})]


@given(exprs, st.lists(st.fractions(-5, 5, max_denominator=4), min_size=4,
                       max_size=4))
def test_monomial_product_matches_oracle(f, shift):
    assert_same(f * monomial(1, *shift), oracle_shift(f, *shift))
    # exact strings, as `monomial` and the other constructors accept them
    assert_same(f * monomial(1, *map(str, shift)), oracle_shift(f, *shift))


@given(exprs)
def test_derivatives_match_oracle(f):
    assert_same(d_theta(f), oracle_d_theta(f))
    assert_same(d_xi(f), oracle_d_xi(f))


@given(exprs, exprs)
def test_eq_and_hash_agree_with_terms(a, b):
    assert (a == b) == (a.terms == b.terms)
    same = FunExpr.from_terms(reversed(a.terms))
    assert same == a and hash(same) == hash(a)
    assert FunExpr.from_terms(a.terms) == a
    assert FunExpr(a.terms) == a  # canonical terms wrap unchanged


@given(exprs, exprs)
def test_raw_duplicate_terms_are_summed(a, b):
    doubled = FunExpr(a.terms + a.terms)
    assert doubled.terms == a.terms + a.terms  # the view keeps them as written
    assert doubled == a.scale(2) and hash(doubled) == hash(a.scale(2))
    assert_same(doubled + b, oracle_add(doubled, b))
    assert_same(FunExpr(a.terms + (-a).terms) + b, b)
    (got, err), (want, want_err) = _outcome(integral, doubled), _outcome(integral, a.scale(2))
    assert got == want and err == want_err  # the summed classes, one term order


# --- reference oracles: the Monomial-level convergence checks --------------

def oracle_check_walls(m):
    if not m.q > -1:
        raise DivergenceError(f"sin exponent q={m.q} <= -1 in term {m}")
    if not m.p > -1:
        raise DivergenceError(f"cos exponent p={m.p} <= -1 in term {m}")
    if not m.s > -2:
        raise DivergenceError(f"sinh exponent s={m.s} <= -2 in term {m}")


def oracle_gen_binomial(x, k):
    out = Fraction(1)
    for j in range(k):
        out *= (x - j)
        out /= (j + 1)
    return out


def oracle_slot_coefficient(f, gamma):
    """Theta-profile of the e^(gamma*xi) term in the large-xi expansion."""
    out = []
    for m in f.terms:
        step = (m.r + m.s - gamma) / 2
        if step.denominator != 1 or step < 0:
            continue
        k = int(step)
        w = sum(oracle_gen_binomial(m.r, j) * oracle_gen_binomial(m.s, k - j)
                * (-1) ** (k - j) for j in range(k + 1))
        if w:
            out.append(Monomial(m.coeff * w * Fraction(1, 4) ** k, m.p, m.q,
                                Fraction(0), Fraction(0)))
    return FunExpr.from_terms(out)


def oracle_growth_slots(f, floor):
    """All candidate growth exponents gamma >= floor, descending."""
    slots = set()
    for m in f.terms:
        g = m.r + m.s
        while g >= floor:
            slots.add(g)
            g -= 2
    return sorted(slots, reverse=True)


def oracle_is_normalizable(f):
    for m in f.terms:
        if not (m.q > Fraction(-1, 2) and m.p > Fraction(-1, 2) and m.s > -1):
            return False
    return all(oracle_slot_coefficient(f, g).is_zero
               for g in oracle_growth_slots(f, Fraction(-1, 2)))


def oracle_log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def oracle_gamma_sign(x: Fraction) -> int:
    """Gamma changes sign at each of its poles 0, -1, -2, ..."""
    return -1 if x < 0 and math.ceil(-x) % 2 else 1


def oracle_continued_beta(a: Fraction, b: Fraction) -> float:
    """B(a, b) for a > 0 >= b: the finite part of B(a, b + delta) at
    delta -> 0, from Gamma(-n + delta) = (-1)^n / n! (1/delta + psi(n+1))
    + O(delta) at the poles of Gamma(b) and Gamma(a + b)."""
    c = a + b
    if c <= 0 and c.denominator == 1:
        if b.denominator != 1:
            return 0.0  # 1/Gamma(c) = 0
        n, m = int(-b), int(-c)  # the 1/delta cancel; Gamma(a) = (a-1)!
        return float((-1) ** (n + m) * Fraction(math.factorial(m) * math.factorial(int(a) - 1),
                                                math.factorial(n)))
    ratio = oracle_gamma_sign(c) * math.exp(math.lgamma(float(a)) - math.lgamma(float(c)))
    if b.denominator != 1:
        return oracle_gamma_sign(b) * ratio * math.exp(math.lgamma(float(b)))
    n = int(-b)
    return (-1) ** n * ratio * float(digamma(n + 1) - digamma(float(c))) / math.factorial(n)


def oracle_integral(f):
    """Sum over `terms` of c B((q+1)/2, (p+1)/2) B((s+2)/2, -(r+s+1)/2) / 4,
    the xi Beta continued in its second argument where the term grows."""
    terms = list(f.terms)
    for m in terms:
        oracle_check_walls(m)
    if any(m.r + m.s >= -1 for m in terms):
        for g in oracle_growth_slots(f, Fraction(-1)):
            prof = oracle_slot_coefficient(f, g)
            if not prof.is_zero:
                raise DivergenceError(
                    f"large-xi growth exponent {g} with profile {prof}")
    total = 0.0
    for m in terms:
        theta = oracle_log_beta(float(m.q + 1) / 2, float(m.p + 1) / 2)
        a, b = (m.s + 2) / 2, -(m.r + m.s + 1) / 2
        if b > 0:
            total += float(m.coeff) * 0.25 * math.exp(theta + oracle_log_beta(float(a), float(b)))
        else:
            total += float(m.coeff) * 0.25 * math.exp(theta) * oracle_continued_beta(a, b)
    return total


def _outcome(fn, f):
    try:
        return fn(f), None
    except DivergenceError as e:
        return None, str(e)


def _off_the_walls(m):
    """m with each negative p, q, s = residue + 2k moved to residue - 2k.

    Its own walls then hold, so draws also reach the growth checks and the
    convergent case; the normal form may still produce wall terms.
    """
    return Monomial(m.coeff, *(e if e >= 0 or i == 2 else e % 2 - 2 * (e // 2)
                               for i, e in enumerate(m.key)))


def _terms(*rows):
    return [Monomial(*map(Fraction, row)) for row in rows]


# Integrable functions whose normal form has growing terms (r+s >= -1), each
# with the 60-digit value of its integral: mpmath.quad over xi of the terms
# as written, theta integrated in closed form, at a working precision that
# outlasts their cancellation at large xi.  Between them they reach every
# branch of the continued Beta value B(a, b), b = -(r+s+1)/2 <= 0.
GROWTH_VALUES = [
    # test_algebra's cross-class case: the growth cancels between two
    # classes; b = -1/4
    (_terms((1, 0, 0, "-3/4", "1/4"), (-1, 0, 0, -1, "1/2")),
     "0.162239298266224436156172422760065894661928594246060270212509"),
    # a decaying monomial whose normal form has two terms with b = -1/2
    (_terms((1, 1, 1, "-7/2", "-1/2")),
     "0.239628046947118441487984498456064775645442532643130311652735"),
    # the growth of the normal form cancels at the top slot; the next slot
    # down is still at or above -1 for `integral`, and at -1/2 for
    # `is_normalizable`.  Here b = -1, -1 and 0 are poles of Gamma(b)
    # alone, so the finite parts take psi
    (_terms((1, 1, 1, "-5/2", "-1/2")),
     "0.333333333333333333333333333333333333333333333333333333333333"),
    (_terms((1, 1, 1, "-9/4", "-1/4")),
     "0.37232782279408056997390329457069966709625007917825604461053"),
    # cosh - sinh - sech/2 decays like e^(-3 xi); cosh^1 has b = -1 and
    # c = a + b = 0, both poles, sinh has b = -1 and sech b = 0
    (_terms((1, 0, 0, 1, 0), (-1, 0, 0, 0, 1), ("-1/2", 0, 0, -1, 0)),
     "0.151697440877176377817341801649465626309999750170433345959581"),
    # cosh^1 sinh^(-1/2) has c = 0 at b = -3/4, so it adds 0
    (_terms((1, 0, 0, 1, "-1/2"), (-1, 0, 0, "-1/2", 1)),
     "2.7458122499512480095778267631315876583847605945607750086407"),
]


def growth_examples(test):
    for terms, _ in GROWTH_VALUES:
        test = example(terms)(test)
    return test


@given(st.one_of(term_lists, st.lists(monomials().map(_off_the_walls), max_size=4)))
@growth_examples
# slot 3 cancels between two classes and slot 1 against a third, so the
# u^2 coefficients of (1+u)^r (1-u)^s decide slot -1
@example(_terms((1, 0, 0, "1/4", "11/4"), (-1, 0, 0, "1/2", "5/2"),
                ("1/8", 0, 0, "1/2", "1/2")))
def test_convergence_checks_match_oracle(terms):
    f = FunExpr.from_terms(terms)
    assert is_normalizable(f) == oracle_is_normalizable(f)
    value, message = _outcome(integral, f)
    want_value, want_message = _outcome(oracle_integral, f)
    assert message == want_message  # the first offender in `terms` order
    assert value == want_value


@pytest.mark.parametrize("terms, value", GROWTH_VALUES)
def test_growth_integral_matches_60_digit_value(terms, value):
    got = integral(FunExpr.from_terms(terms))
    assert type(got) is float
    assert abs(got - mpmath.mpf(value)) <= 1e-14 * abs(mpmath.mpf(value))


def test_integral_and_norm_return_python_floats():
    """No numpy scalar leaks from the digamma of a pole term: the zero
    function, a decaying monomial, and h, whose square has poles b = 0."""
    h = FunExpr.from_terms(GROWTH_VALUES[0][0])
    for f in (FunExpr(), FunExpr.from_terms(_terms((1, 1, 1, -4, 1))), h):
        assert type(integral(f)) is float
        assert type(inner(f, f)) is float


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def regulated_terms(f, delta):
    """The terms of `integral(f)` at the regulator cosh^(-2 delta), under
    which each converges, at the working precision of mpmath."""
    return [_mp(m.coeff) / 4 * mpmath.beta(_mp(m.q + 1) / 2, _mp(m.p + 1) / 2)
            * mpmath.gamma(_mp(m.s + 2) / 2) * mpmath.gamma(-_mp(m.r + m.s + 1) / 2 + delta)
            / mpmath.gamma(_mp(1 - m.r) / 2 + delta) for m in f.terms]


@st.composite
def integrable_growth(draw):
    """Integrable sums whose normal form grows.  A pair
    c cos^p sin^q (cosh^r1 sinh^(g-r1) - cosh^r2 sinh^(g-r2)) with
    -1 <= g < 1 cancels at its one slot g >= -1, across classes when
    r1 - r2 is not an even integer; a monomial with -2 < s < 0 and
    r+s < -1 decays, but its normal form carries growing terms."""
    def exponent(lo, hi):
        d = draw(st.integers(1, 4))
        return Fraction(draw(st.integers(math.floor(lo * d) + 1, math.ceil(hi * d) - 1)), d)

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4)))
        p, q = exponent(-1, 4), exponent(-1, 4)
        if draw(st.booleans()):
            g = Fraction(draw(st.integers(-4, 3)), 4)
            r1, r2 = exponent(-6, g + 2), exponent(-6, g + 2)
            terms += [Monomial(c, p, q, r1, g - r1), Monomial(-c, p, q, r2, g - r2)]
        else:
            s = exponent(-2, 0)
            terms.append(Monomial(c, p, q, exponent(-8, -1 - s), s))
    return FunExpr.from_terms(terms)


@given(integrable_growth())
def test_growth_integral_matches_regulated_sum(f):
    """The continued Beta values against the regulated terms at delta =
    1e-60 and 2e-60 with 140 digits: a pole term is P/delta + F + O(delta),
    so 2 t(2 delta) - t(delta) is its finite part F, and the sum of the
    t(delta) is the integral to O(delta) once the P cancel."""
    got = integral(f)
    assert type(got) is float
    with mpmath.workdps(140):
        delta = mpmath.mpf("1e-60")
        once, twice = regulated_terms(f, delta), regulated_terms(f, 2 * delta)
        scale = mpmath.fsum(abs(2 * y - x) for x, y in zip(once, twice))
        assert abs(got - mpmath.fsum(once)) <= 1e-14 * scale


def _decaying(m):
    """m off the walls with r lowered by an even integer to r+s < -1, so
    squares also reach the value of the integral."""
    m = _off_the_walls(m)
    k = max(0, math.floor((m.r + m.s + 1) / 2) + 1)
    return Monomial(m.coeff, m.p, m.q, m.r - 2 * k, m.s)


def _oracle_squared_norm(f):
    return oracle_integral(oracle_mul(f, f))


@given(st.one_of(exprs, st.lists(monomials().map(_decaying), min_size=1,
                                 max_size=4).map(FunExpr.from_terms)))
def test_square_and_norm_match_oracle(f):
    """`f * f` visits each unordered pair of terms once, and `integral` sums
    its rows in `terms` order: both agree with the oracles bit for bit, or
    both raise on the same kind of divergence (a wall or large-xi growth)."""
    assert_same(f * f, oracle_mul(f, f))
    value, message = _outcome(lambda g: inner(g, g), f)
    want_value, want_message = _outcome(_oracle_squared_norm, f)
    assert (message is None) == (want_message is None)
    if message is None:
        assert value.hex() == want_value.hex()
    else:
        growth = "large-xi growth"
        assert message.startswith(growth) == want_message.startswith(growth)


@pytest.mark.parametrize("target", [(0, 0, -15), (1, 2, -12)])
def test_witness_norms_match_monomial_order_sum(target):
    """The squares of deep witness states cancel the most, so a sum in any
    other order than `terms` shows in the last bits of their norms."""
    report = bound_spectrum(ParamPoint.of(*target))
    for level, consts in zip(report.levels, report.normalizations):
        vertex = ground_full(level.vertex.l0, level.vertex.l2)
        for word, const in zip(level.witnesses, consts):
            f = apply_word(word, vertex).expr
            want = _oracle_squared_norm(f)
            assert inner(f, f).hex() == want.hex()
            assert const == 1.0 / math.sqrt(want)


# --- reference oracles: the Monomial-level evaluation ----------------------

def oracle_require_chart(theta: float, xi: float) -> None:
    if not (0.0 <= theta <= math.pi / 2 and xi >= 0.0):
        raise DomainError(f"point (theta={theta}, xi={xi}) is off the chart "
                          "0 <= theta <= pi/2, xi >= 0")


def oracle_pow(base: float, e: Fraction) -> float:
    if e == 0:
        return 1.0
    if base == 0.0:
        if e < 0:
            raise DomainError(f"zero base with negative exponent {e}")
        return 0.0
    return math.pow(base, float(e))


def oracle_eval_at(f: FunExpr, theta: float, xi: float) -> float:
    """Floating evaluation on the closed quadrant; a wall point only if no
    negative exponent hits it.  cos is exactly 0 at theta = pi/2, not 6e-17."""
    oracle_require_chart(theta, xi)
    ct, st = (0.0 if theta == math.pi / 2 else math.cos(theta)), math.sin(theta)
    ch, sh = math.cosh(xi), math.sinh(xi)
    total = 0.0
    for m in f.terms:
        total += float(m.coeff) * oracle_pow(ct, m.p) * oracle_pow(st, m.q) \
            * oracle_pow(ch, m.r) * oracle_pow(sh, m.s)
    return total


def oracle_eval_grid(f: FunExpr, thetas: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on the tensor grid thetas x xis."""
    thetas, xis = np.asarray(thetas, dtype=float), np.asarray(xis, dtype=float)
    on_t = (thetas >= 0.0) & (thetas <= math.pi / 2)
    on_x = xis >= 0.0
    if not (on_t.all() and on_x.all()):  # argmin finds the first False
        oracle_require_chart(thetas[np.argmin(on_t)], xis[np.argmin(on_x)])
    ct, st = np.where(thetas == math.pi / 2, 0.0, np.cos(thetas)), np.sin(thetas)
    ch, sh = np.cosh(xis), np.sinh(xis)
    out = np.zeros((len(thetas), len(xis)))
    for m in f.terms:
        for base_arr, e in ((ct, m.p), (st, m.q), (sh, m.s)):
            if e < 0 and np.any(base_arr == 0.0):
                raise DomainError("grid touches a wall with negative exponent")
        th_part = np.power(ct, float(m.p)) * np.power(st, float(m.q))
        xi_part = np.power(ch, float(m.r)) * np.power(sh, float(m.s))
        out += float(m.coeff) * np.outer(th_part, xi_part)
    return out


def _value(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return None


def _check_eval(evaluate, oracle, raw, terms, *point):
    """evaluate matches oracle on f to 1e-12 of the summed term magnitudes,
    the scale of `test_eval_of_raw_terms_agrees`: the terms may cancel."""
    f = FunExpr(tuple(terms)) if raw else FunExpr.from_terms(terms)
    got, want = _value(evaluate, f, *point), _value(oracle, f, *point)
    assert (got is None) == (want is None)
    if want is not None:
        scale = sum(np.abs(oracle(FunExpr((m,)), *point)) for m in f.terms)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, 1.0))


# one point on each wall: sin at theta = 0, cos at pi/2, sinh at xi = 0
WALL_POINTS = ((0.0, 1.1), (math.pi / 2, 0.6), (0.9, 0.0))
WALL_TERMS = (_terms((3, "1/2", "-1/2", "-7/2", "1/2")),
              _terms(("-2/3", "-3/2", 1, -4, 1)),
              _terms((5, "1/3", "1/2", "-9/2", "-1/2"), (1, 2, 0, -6, "3/2")),
              _terms((1, 2, "5/2", "-11/2", 1), ("1/2", 0, 0, -4, 0)))


def _on_walls(points):
    """@example per wall point and term list, raw and normalized."""
    def add(test):
        for point in points:
            for terms in WALL_TERMS:
                for raw in (False, True):
                    test = example(raw, terms, *point)(test)
        return test
    return add


@given(st.booleans(), term_lists, st.floats(0.2, math.pi / 2 - 0.2),
       st.floats(0.2, 2.0))
@_on_walls(WALL_POINTS)
def test_eval_at_matches_oracle(raw, terms, theta, xi):
    _check_eval(eval_at, oracle_eval_at, raw, terms, theta, xi)


# an interior grid, then one grid through each wall point
GRIDS = ((np.array([0.25, 0.8, 1.3]), np.array([0.2, 0.9, 2.0])),) \
    + tuple((np.array([0.4, theta]), np.array([xi, 1.5])) for theta, xi in WALL_POINTS)


@given(st.booleans(), term_lists, st.sampled_from(range(len(GRIDS))))
@_on_walls([(i,) for i in range(1, len(GRIDS))])
def test_eval_grid_matches_oracle(raw, terms, grid):
    _check_eval(eval_grid, oracle_eval_grid, raw, terms, *GRIDS[grid])
