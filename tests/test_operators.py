"""Generator actions, Hamiltonians, Casimir, reflections."""

import math
from fractions import Fraction

import pytest

from ladderspec import (FunExpr, LabeledState, OperatorName, ParamPoint,
                        VariableMismatchError, apply, apply_casimir,
                        apply_hamiltonian, apply_separated, apply_word,
                        commutator, cprime, diag_eigenvalue, eval_at,
                        ground_full, ground_theta, hamiltonian_from_casimir,
                        inner, monomial, reflect, separated_eigenvalue,
                        separated_ladder, verify_intertwining)
from ladderspec import operators
from ladderspec.operators import LOWERING_SO42, SHIFTS

O = OperatorName


def lstate(l0, l1, l2, expr) -> LabeledState:
    return LabeledState(ParamPoint.of(l0, l1, l2), expr)


class TestApply:
    def test_lowering_kills_theta_ground(self):
        # any xi-profile rides along; the theta factor is annihilated
        f = ground_theta(1, "3/2") * monomial(1, 0, 0, -4, 2)
        st = lstate(1, "3/2", -5, f)
        assert apply(O.A_MINUS, st).is_zero

    def test_diagonal_action(self):
        st = lstate(0, 0, -5, monomial(2, 1, 1, -4, 1))
        out = apply(O.L2, st)
        assert out.label == st.label
        assert out.expr == st.expr.scale(-5)

    def test_word_to_degenerate_label(self):
        st = ground_full(1, -4)
        out = apply_word((O.C_PLUS, O.A_PLUS), st)
        assert out.label == ParamPoint.of(0, 0, -5)
        assert not out.is_zero
        assert eval_at(out.expr, 0.8, 1.2) != pytest.approx(0.0, abs=1e-12)

    def test_label_shifts(self):
        st = lstate("1/2", "-1/3", -4, monomial(1, 1, 1, -4, 1))
        for op, d in SHIFTS.items():
            out = apply(op, st)
            assert out.label == st.label.shifted(d)

    def test_su2_string_length(self):
        # repeated raising inside the compact family gives l0+l1+1 states
        for l0, l1 in ((1, 0), (2, 1), (0, 3)):
            st = lstate(l0, l1, 0, ground_theta(l0, l1))
            count = 0
            while not st.is_zero:
                count += 1
                st = apply(O.A_PLUS, st)
                if count > 10:
                    break
            assert count == l0 + l1 + 1


class TestDiagEigenvalue:
    def test_a(self):
        assert diag_eigenvalue("A", ParamPoint.of(1, 1, -7)) == -1

    def test_c_zero(self):
        assert diag_eigenvalue("C", ParamPoint.of(3, 0, 0)) == 0

    def test_b(self):
        assert diag_eigenvalue("B", ParamPoint.of(0, 2, -5)) == Fraction(5, 2)

    def test_realization_identity(self, rng):
        for _ in range(20):
            lab = ParamPoint.of(Fraction(rng.randint(-9, 9), 3),
                                Fraction(rng.randint(-9, 9), 2),
                                Fraction(rng.randint(-9, 9), 3))
            assert diag_eigenvalue("A", lab) - diag_eigenvalue("B", lab) \
                + diag_eigenvalue("C", lab) == 0


class TestHamiltonian:
    def test_vertex_eigenvalue(self):
        st = ground_full(0, -5)
        assert apply_hamiltonian(st) == st.expr.scale(Fraction(-35, 4))

    def test_zero_maps_to_zero(self):
        st = lstate(1, 2, 3, FunExpr())
        assert apply_hamiltonian(st).is_zero

    def test_origin_vertex_profile(self):
        # at l = (0,0,0) the joint-vacuum profile has sinh exponent l0+1 = 1
        f = monomial(1, "1/2", "1/2", "1/2", 1)
        st = lstate(0, 0, 0, f)
        assert apply_hamiltonian(st) == f.scale(Fraction(-15, 4))
        # independent pointwise check with central differences
        th, xi, h = 0.9, 1.1, 1e-4
        d2x = (eval_at(f, th, xi + h) - 2 * eval_at(f, th, xi)
               + eval_at(f, th, xi - h)) / h ** 2
        d1x = (eval_at(f, th, xi + h) - eval_at(f, th, xi - h)) / (2 * h)
        d2t = (eval_at(f, th + h, xi) - 2 * eval_at(f, th, xi)
               + eval_at(f, th - h, xi)) / h ** 2
        v = eval_at(f, th, xi)
        hnum = (-d2x - d1x / math.tanh(xi) + 0.25 / math.cosh(xi) ** 2 * v
                + (-d2t - 0.25 / math.sin(th) ** 2 * v
                   - 0.25 / math.cos(th) ** 2 * v) / math.sinh(xi) ** 2)
        assert hnum == pytest.approx(-15 / 4 * v, rel=1e-6)

    def test_hermitian_on_admissible_states(self):
        u = lstate(1, 1, -6, monomial(1, "5/2", "3/2", -6, 2)
                   + monomial("1/3", "3/2", "5/2", -7, 3))
        v = lstate(1, 1, -6, monomial(1, "3/2", "5/2", "-13/2", 2))
        lhs = inner(apply_hamiltonian(u), v.expr)
        rhs = inner(u.expr, apply_hamiltonian(v))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestSeparated:
    def test_theta_ground_eigenvalue(self):
        f = ground_theta(1, "1/2")
        lam = separated_eigenvalue("A", (1, "1/2"))
        assert lam == Fraction(25, 4)
        assert apply_separated("theta", f, (1, "1/2")) == f.scale(lam)

    def test_chi_ground_eigenvalue(self):
        from ladderspec import ground_chi
        f = ground_chi(0, -3)
        lam = separated_eigenvalue("B", (0, -3))
        assert lam == -4
        assert apply_separated("chi", f, (0, -3)) == f.scale(lam)

    def test_beta_ground_eigenvalue(self):
        from ladderspec import ground_beta
        f = ground_beta(0, -4)
        lam = separated_eigenvalue("C", (0, -4))
        assert lam == -9
        assert apply_separated("beta", f, (0, -4)) == f.scale(lam)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            apply_separated("theta", monomial(1, 1, 0, 1, 0), (0, 0))
        with pytest.raises(VariableMismatchError):
            apply_separated("chi", monomial(1, 1, 0, 1, 0), (0, -3))

    def test_unknown_separated_hamiltonian(self):
        with pytest.raises(ValueError, match="unknown separated Hamiltonian 'gamma'"):
            apply_separated("gamma", monomial(1, 1, 0, 0, 0), (0, 0))

    def test_variable_mismatch_names_the_first_term_in_term_order(self):
        a, b = monomial(1, 0, 0, 1, 0), monomial(1, "1/2", 0, 0, "1/3")
        assert a + b == b + a
        messages = set()
        for f in (a + b, b + a):
            with pytest.raises(VariableMismatchError) as exc:
                apply_separated("theta", f, (0, 0))
            messages.add(str(exc.value))
        assert messages == {"theta operator expects a theta-only expression, got 1*cosh^1"}

    @pytest.mark.parametrize("family, f, message", [
        ("A", monomial(1, 1, 0, 0, 1), "theta operator expects a theta-only expression, "
                                       "got 1*cos^1*sinh^1"),
        ("B", monomial(1, 1, 0, 0, 1), "chi operator expects a hyperbolic-variable "
                                       "expression, got 1*cos^1*sinh^1"),
        ("C", monomial(1, 0, 1), "beta operator expects a hyperbolic-variable "
                                 "expression, got 1*sin^1"),
    ], ids=["A", "B", "C"])
    def test_ladder_rejects_the_wrong_variables(self, family, f, message):
        # as apply_separated does, under the name of the family's factor Hamiltonian
        for sign in (+1, -1):
            with pytest.raises(VariableMismatchError) as exc:
                separated_ladder(family, sign, (0, 0))(f)
            assert str(exc.value) == message


class TestCommutator:
    def test_su2_diagonal_bracket(self):
        st = lstate("3/2", "1/2", -4, monomial(1, 2, "1/2", -3, 1))
        out = commutator(O.A_MINUS, O.A_PLUS, st)
        assert out.expr == st.expr.scale(st.label.l0 + st.label.l1)

    def test_commuting_raisings(self, rng):
        for _ in range(5):
            st = lstate(Fraction(rng.randint(-6, 6), 2),
                        Fraction(rng.randint(-6, 6), 3),
                        Fraction(rng.randint(-6, 6), 2),
                        monomial(1, Fraction(rng.randint(-3, 3), 2),
                                 Fraction(rng.randint(-3, 3), 2),
                                 Fraction(rng.randint(-3, 3), 2),
                                 Fraction(rng.randint(-3, 3), 2)))
            assert commutator(O.A_PLUS, O.B_PLUS, st).is_zero

    def test_mixed_bracket_gives_raising(self):
        st = lstate(1, "1/2", -4, monomial(2, 1, 1, -4, 2))
        lhs = commutator(O.C_MINUS, O.B_PLUS, st)
        rhs = apply(O.A_PLUS, st)
        assert lhs.label == rhs.label
        assert lhs.expr == rhs.expr


class TestCasimir:
    def test_cprime(self):
        assert cprime(ParamPoint.of(0, 0, -5)) == -5

    def test_vacuum_casimir_eigenvalue(self):
        # from the Hamiltonian identity: C = (Cprime^2/3 - 15/4 - E)/4 = 10/3
        st = ground_full(0, -5)
        assert apply_casimir(st) == st.expr.scale(Fraction(10, 3))

    def test_hamiltonian_identity_on_ladder_states(self):
        st = ground_full(1, -4)
        for word in ((), (O.C_PLUS,), (O.C_PLUS, O.A_PLUS), (O.A_PLUS, O.C_PLUS)):
            out = apply_word(word, st)
            res = hamiltonian_from_casimir(out) - apply_hamiltonian(out)
            assert res.is_zero


class TestIntertwining:
    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_families_exact(self, family, rng):
        for _ in range(5):
            lab = ParamPoint.of(Fraction(rng.randint(-6, 6), 2),
                                Fraction(rng.randint(-6, 6), 3),
                                Fraction(rng.randint(-6, 6), 2))
            probe = monomial(Fraction(rng.randint(1, 4)),
                             Fraction(rng.randint(-3, 3), 2),
                             Fraction(rng.randint(-3, 3), 2),
                             Fraction(rng.randint(-3, 3), 2),
                             Fraction(rng.randint(-3, 3)))
            assert verify_intertwining(family, lab, probe).is_zero

    def test_specific_label(self):
        assert verify_intertwining("A", ParamPoint.of(1, 1, -4),
                                   monomial(1, "1/2", "3/2", -2, 1)).is_zero

    @pytest.mark.parametrize("broken", [O.A_PLUS, O.A_MINUS])
    def test_failing_relation_returns_its_residual(self, broken, monkeypatch):
        # X H - H' X is linear in X, so a scaled X still intertwines; X + 1
        # does not, and leaves the residual (H_src - H_dst) f of its relation
        real = operators.apply

        def perturbed(op, st):
            out = real(op, st)
            return LabeledState(out.label, out.expr + st.expr) if op is broken else out

        monkeypatch.setattr(operators, "apply", perturbed)
        label, probe = ParamPoint.of(1, 1, -4), monomial(1, "1/2", "3/2", -2, 1)
        upper = label.shifted(SHIFTS[O.A_MINUS])
        h_lo = apply_hamiltonian(LabeledState(label, probe))
        h_hi = apply_hamiltonian(LabeledState(upper, probe))
        # the lowering relation runs on label -> upper, the raising one back
        expected = h_hi - h_lo if broken is O.A_PLUS else h_lo - h_hi
        assert not expected.is_zero
        assert verify_intertwining("A", label, probe) == expected


class TestReflect:
    def test_axis0_on_a(self):
        assert reflect(0, O.A_PLUS) == (1, O.ATILDE_PLUS)

    def test_axis2_on_c(self):
        assert reflect(2, O.C_MINUS) == (-1, O.CTILDE_PLUS)

    def test_axis1_fixes_b(self):
        assert reflect(1, O.B_PLUS) == (1, O.B_PLUS)

    def test_axis2_on_b(self):
        assert reflect(2, O.B_PLUS) == (1, O.BTILDE_MINUS)

    def test_involution(self):
        for i in (0, 1, 2):
            for op in O:
                s1, op1 = reflect(i, op)
                s2, op2 = reflect(i, op1)
                assert (s1 * s2, op2) == (1, op)

    def test_diagonal_flip(self):
        assert reflect(0, O.L0) == (-1, O.L0)
        assert reflect(0, O.L1) == (1, O.L1)


class TestSo42Vacuum:
    def test_all_six_lowerings_annihilate(self):
        from ladderspec import so42_vacuum
        vac = so42_vacuum(-3)
        for op in LOWERING_SO42:
            assert apply(op, vac).is_zero
