"""Exact monomial calculus: arithmetic, derivatives, evaluation, integrals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ladderspec import (DivergenceError, FunExpr, d_theta, d_xi, eval_at,
                        eval_grid, inner, integral, is_normalizable, monomial,
                        norm_squared)
from ladderspec.algebra import Monomial, rational

from conftest import quadrature_oracle


def random_expr(rng, nterms=3):
    terms = []
    for _ in range(rng.randint(1, nterms)):
        coeff = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1))
        expo = lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        terms.append(Monomial(coeff, expo(), expo(), expo(), expo()))
    return FunExpr.from_terms(terms)


class TestArithmetic:
    def test_like_terms_merge(self):
        assert monomial(1, 1) + monomial(1, 1) == monomial(2, 1)

    def test_add_identity(self):
        x = monomial(3, "1/2", 1, -2, 1)
        assert x + FunExpr.zero() == x

    def test_cancellation(self):
        x = monomial(1, 1)
        assert (x + -x).is_zero

    def test_mul_exponent_addition(self):
        assert monomial(1, "1/2") * monomial(1, "1/2", 1) == monomial(1, 1, 1)

    def test_mul_identity(self):
        x = monomial(5, 2, "1/2", -3, "3/2")
        assert x * monomial(1) == x

    def test_distribution(self):
        a = monomial(1, 1) + monomial(1, 0, 1)          # cos + sin
        b = monomial(1, 1) + monomial(-1, 0, 1)         # cos - sin
        expected = monomial(1, 2) + monomial(-1, 0, 2)  # cos^2 - sin^2
        assert a * b == expected

    def test_exactness_randomized(self, rng):
        for _ in range(100):
            f = random_expr(rng)
            assert (f + -f).is_zero


class TestCanonicalForm:
    def test_pythagorean_trig(self):
        # sin^2 f + cos^2 f == f, structurally
        f = monomial(1, "1/2", "3/2", -4, 1)
        combo = f.shift_exponents(0, 2) + f.shift_exponents(2, 0)
        assert combo == f

    def test_pythagorean_hyperbolic(self):
        f = monomial(2, 1, 1, "-7/2", 2)
        combo = f.shift_exponents(0, 0, 2, 0) - f.shift_exponents(0, 0, 0, 2)
        assert combo == f

    def test_equal_functions_equal_structures(self, rng):
        # representation-independence of the normal form
        for _ in range(50):
            f = random_expr(rng)
            padded = f.shift_exponents(2, 0) + f.shift_exponents(0, 2)
            assert padded == f
            assert (padded - f).is_zero

    def test_closure_under_basis_multiplications(self, rng):
        shifts = [(-1, 1, 0, 0), (1, -1, 0, 0), (0, 0, -1, 1), (0, 0, 1, -1),
                  (0, 1, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (0, -1, 0, 0)]
        for _ in range(25):
            f = random_expr(rng)
            for sh in shifts:
                g = f.shift_exponents(*sh)
                assert isinstance(g, FunExpr)
                assert g == FunExpr.from_terms(g.terms)
            assert d_theta(f) == FunExpr.from_terms(d_theta(f).terms)
            assert d_xi(f) == FunExpr.from_terms(d_xi(f).terms)


class TestDerivatives:
    def test_d_theta_sin(self):
        assert d_theta(monomial(1, 0, 1)) == monomial(1, 1, 0)

    def test_d_xi_cosh(self):
        assert d_xi(monomial(1, 0, 0, 1, 0)) == monomial(1, 0, 0, 0, 1)

    def test_d_theta_half_powers(self):
        f = monomial(1, "1/2", "1/2")
        expected = monomial("-1/2", "-1/2", "3/2") + monomial("1/2", "3/2", "-1/2")
        assert d_theta(f) == expected
        # finite-difference check of the evaluated expression at theta = 0.7
        h = 1e-5
        fd = (eval_at(f, 0.7 + h, 1.0) - eval_at(f, 0.7 - h, 1.0)) / (2 * h)
        assert abs(fd - eval_at(d_theta(f), 0.7, 1.0)) < 1e-9

    def test_derivative_richardson(self, rng):
        # central differences converge at order >= 2 to the exact derivative
        for _ in range(10):
            f = random_expr(rng)
            th, xi = 0.8, 1.3
            exact = eval_at(d_theta(f), th, xi)
            errs = []
            for h in (1e-3, 5e-4):
                fd = (eval_at(f, th + h, xi) - eval_at(f, th - h, xi)) / (2 * h)
                errs.append(abs(fd - exact))
            if errs[0] < 1e-12:
                continue  # derivative error already at roundoff
            assert math.log2(errs[0] / errs[1]) > 1.9

    def test_product_rule(self, rng):
        for _ in range(20):
            f, g = random_expr(rng), random_expr(rng)
            assert d_theta(f * g) == d_theta(f) * g + f * d_theta(g)
            assert d_xi(f * g) == d_xi(f) * g + f * d_xi(g)


class TestEval:
    def test_cos_at_pi_third(self):
        assert eval_at(monomial(1, 1), math.pi / 3, 1.0) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert eval_at(FunExpr.zero(), 0.3, 0.7) == 0.0

    def test_symmetry_point(self):
        v = eval_at(monomial(1, "1/2", "1/2"), math.pi / 4, 1.0)
        assert v == pytest.approx(2 ** -0.5)

    def test_grid_matches_pointwise(self, rng):
        f = random_expr(rng)
        ths = np.linspace(0.2, 1.3, 7)
        xis = np.linspace(0.4, 2.0, 5)
        grid = eval_grid(f, ths, xis)
        for i, th in enumerate(ths):
            for j, xx in enumerate(xis):
                assert grid[i, j] == pytest.approx(eval_at(f, th, xx), rel=1e-12)


def random_admissible(rng, nterms=3):
    """Expressions integrable against the measure, with their squares too."""
    terms = []
    for _ in range(rng.randint(1, nterms)):
        coeff = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
        p = Fraction(rng.randint(0, 6), 2)
        q = Fraction(rng.randint(0, 6), 2)
        s = Fraction(rng.randint(0, 4), 2)
        r = -s + Fraction(rng.randint(-8, -4), 2)
        terms.append(Monomial(coeff, p, q, r, s))
    f = FunExpr.from_terms(terms)
    return f if not f.is_zero else monomial(1, 1, 1, -3, 1)


class TestInner:
    @pytest.mark.xfail(raises=DivergenceError, strict=True,
                       reason="_lower_growth recombines growing terms only "
                              "within one residue class")
    def test_growth_cancelling_across_residue_classes(self):
        # the leading e^(-xi/2) growth of the two terms cancels, but their
        # exponents lie in different classes mod 2; the value is a 60-digit
        # mpmath quadrature of the same integral
        h = monomial(1, 0, 0, "-3/4", "1/4") - monomial(1, 0, 0, -1, "1/2")
        assert is_normalizable(h)
        assert math.isclose(norm_squared(h), 0.012801043219352147, rel_tol=1e-12)

    def test_single_monomial_sixth(self):
        # cos sin cosh^-4 sinh against the measure: (1/2)*(1/3)
        v = monomial(1, 1, 1, -4, 1)
        assert inner(v, monomial(1)) == pytest.approx(1 / 6, abs=1e-14)
        assert abs(quadrature_oracle(v) - 1 / 6) < 1e-10

    def test_positivity(self, rng):
        for _ in range(10):
            f = random_admissible(rng)
            assert inner(f, f) > 0

    def test_divergence_boundary(self):
        # r + s = -1 sits exactly on the divergence edge
        bad = monomial(1, 1, 1, -2, 1)
        with pytest.raises(DivergenceError, match="growth"):
            integral(bad)

    def test_integrable_despite_growing_normal_form(self):
        # double poles split into terms with cancelling large-xi growth;
        # the integral must still come out right
        f = monomial(1, 1, 1, "-7/2", "-1/2")
        assert any(m.r + m.s >= -1 for m in f.terms)
        assert abs(integral(f) - quadrature_oracle(f)) < 1e-10

    def test_divergence_names_offender(self):
        with pytest.raises(DivergenceError, match="sin"):
            integral(monomial(1, 0, -1, -4, 1))

    def test_agrees_with_quadrature(self, rng):
        for _ in range(20):
            f = random_admissible(rng)
            assert abs(integral(f) - quadrature_oracle(f, tol=1e-10)) < 1e-8

    def test_is_normalizable(self):
        assert is_normalizable(monomial(1, "1/2", "1/2", "-9/2", 1))
        assert not is_normalizable(monomial(1, "1/2", "-1/2", "-9/2", 1))
        assert not is_normalizable(monomial(1, "1/2", "1/2", "-1/2", 0))

    def test_norm_squared(self):
        st = monomial(1, "1/2", "1/2", "-5/2", 1)
        assert norm_squared(st) == pytest.approx(0.125, rel=1e-12)


class TestRationalParsing:
    def test_strings(self):
        assert rational("1/2") == Fraction(1, 2)
        assert rational("-5") == Fraction(-5)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rational(0.5)
