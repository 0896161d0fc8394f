"""Finite-difference eigensolvers and the grid residual check."""

import gc
import math
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ladderspec import (EigenResult, GridSpec, ParameterError, ground_full,
                        residual_on_grid, solve_theta, solve_xi)
from ladderspec.numeric import _CORRECTED_ROWS, _assemble, _count_below, _solve


class TestGridSpec:
    def test_minimum_points(self):
        with pytest.raises(ParameterError):
            GridSpec("theta", 8)

    def test_bad_variable(self):
        with pytest.raises(ParameterError):
            GridSpec("phi", 100)

    def test_xi_needs_cutoff(self):
        with pytest.raises(ParameterError):
            GridSpec("xi", 100, cutoff=0.0)

    @pytest.mark.parametrize("variable", ["theta", "xi"])
    @pytest.mark.parametrize("cutoff", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_cutoff_must_be_finite_and_positive(self, variable, cutoff):
        with pytest.raises(ParameterError, match=f"cutoff .*{cutoff}"):
            GridSpec(variable, 100, cutoff=cutoff)

    def test_nodes_are_interior(self):
        g = GridSpec("theta", 32)
        x = g.nodes()
        assert 0 < x[0] and x[-1] < math.pi / 2


# Reference: the row-editing LIL assembly and its stencil, kept verbatim
# from before the banded build, as the oracle for numeric._assemble.
def reference_frobenius_stencil(x: float, h: float, nu: float) -> tuple[float, float, float]:
    xm, xp = x - h, x + h
    powers = (nu, nu + 2, nu + 4)
    if xm <= 1e-14:
        a = np.array([[x ** p, xp ** p] for p in powers[:2]])
        b = np.array([p * (p - 1) * x ** (p - 2) for p in powers[:2]])
        w0, wp = np.linalg.solve(a, b)
        return 0.0, float(w0), float(wp)
    a = np.array([[xm ** p, x ** p, xp ** p] for p in powers])
    b = np.array([p * (p - 1) * x ** (p - 2) for p in powers])
    wm, w0, wp = np.linalg.solve(a, b)
    return float(wm), float(w0), float(wp)


def reference_assemble(V: np.ndarray, h: float, nu_left: float,
                       nu_right: Optional[float]) -> tuple[sps.csc_matrix, sps.csc_matrix]:
    n = len(V)
    x = h * np.arange(1, n + 1)
    length = h * (n + 1)
    m_rows = min(_CORRECTED_ROWS, n // 3)
    K = sps.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                  [-1, 0, 1]) / h ** 2
    M = sps.diags([np.full(n - 1, 1 / 12), np.full(n, 10 / 12), np.full(n - 1, 1 / 12)],
                  [-1, 0, 1], format="lil")
    A = (K + M @ sps.diags(V)).tolil()

    def correct_row(i: int, dist: float, nu: float, mirrored: bool) -> None:
        wm, w0, wp = reference_frobenius_stencil(dist, h, nu)
        lo, hi = (i + 1, i - 1) if mirrored else (i - 1, i + 1)
        if 0 <= lo < n:
            A[i, lo] = -wm
        A[i, i] = -w0 + V[i]
        A[i, hi] = -wp
        M[i, :] = 0.0
        M[i, i] = 1.0

    for i in range(m_rows):
        correct_row(i, x[i], nu_left, mirrored=False)
    if nu_right is not None:
        for i in range(n - m_rows, n):
            correct_row(i, length - x[i], nu_right, mirrored=True)
    else:
        A[n - 1, n - 1] = 2.0 / h ** 2 + V[n - 1]
        A[n - 1, n - 2] = -1.0 / h ** 2
        M[n - 1, :] = 0.0
        M[n - 1, n - 1] = 1.0
    return A.tocsc(), M.tocsc()


class TestAssemble:
    # the same potentials as solve_theta (two walls) and solve_xi (Dirichlet)
    @pytest.mark.parametrize("n", [16, 17, 18, 50, 2000])
    @pytest.mark.parametrize("l0, l1", [(0, 0), (0.5, 1.5), (2, 0.5), (-0.5, 3)])
    def test_two_walls_match_reference(self, n, l0, l1):
        grid = GridSpec("theta", n)
        x = grid.nodes()
        V = (l1 ** 2 - 0.25) / np.sin(x) ** 2 + (l0 ** 2 - 0.25) / np.cos(x) ** 2
        self._check(V, grid.h, l1 + 0.5, l0 + 0.5)

    @pytest.mark.parametrize("n", [16, 17, 18, 50, 2000])
    @pytest.mark.parametrize("alpha, l2", [(1.0, -5), (9.0, -6), (2.25, -7.5), (49.0, -9)])
    def test_dirichlet_wall_matches_reference(self, n, alpha, l2):
        grid = GridSpec("xi", n, cutoff=25.0)
        x = grid.nodes()
        V = (alpha - 0.25) / np.sinh(x) ** 2 - (l2 ** 2 - 0.25) / np.cosh(x) ** 2 + 0.25
        self._check(V, grid.h, math.sqrt(alpha) + 0.5, None)

    @staticmethod
    def _check(V, h, nu_left, nu_right):
        A, M = _assemble(V, h, nu_left, nu_right)
        A_ref, M_ref = reference_assemble(V, h, nu_left, nu_right)
        assert A.shape == M.shape == (3, len(V))
        assert (expand_band(A) != A_ref).nnz == 0
        assert (expand_band(M) != M_ref).nnz == 0


def expand_band(B: np.ndarray) -> sps.csc_matrix:
    """The tridiagonal matrix of a 3 x n band whose column i is row i."""
    return sps.diags([B[0, 1:], B[1], B[2, :-1]], [-1, 0, 1], format="csc")


def theta_case(n: int, l0: float = 0.5, l1: float = 1.5):
    """Potential, grid, wall exponents and shift as solve_theta builds them."""
    grid = GridSpec("theta", n)
    x = grid.nodes()
    V = (l1 ** 2 - 0.25) / np.sin(x) ** 2 + (l0 ** 2 - 0.25) / np.cos(x) ** 2
    return V, grid, l1 + 0.5, l0 + 0.5, -1.0


def xi_case(n: int, l2: float = -5.0, alpha: float = 1.0):
    """Potential, grid, wall exponents and shift as solve_xi builds them."""
    grid = GridSpec("xi", n, cutoff=25.0)
    x = grid.nodes()
    V = (alpha - 0.25) / np.sinh(x) ** 2 - (l2 ** 2 - 0.25) / np.cosh(x) ** 2 + 0.25
    return V, grid, math.sqrt(alpha) + 0.5, None, float(V.min()) - 1.0


class TestSolveAgainstDense:
    @pytest.mark.parametrize("n", [64, 200])
    @pytest.mark.parametrize("case", [theta_case, xi_case])
    def test_levels_match_dense_pencil(self, n, case):
        # the real ones among the nev eigenvalues of the dense pencil nearest
        # the shift, from the reference assembly, are the levels _solve must
        # return; at xi, n = 64 the nearest two are a complex pair
        V, grid, nu_left, nu_right, sigma = case(n)
        nev = 4
        vals, vecs, res = _solve(*_assemble(V, grid.h, nu_left, nu_right), nev, sigma)
        A, M = reference_assemble(V, grid.h, nu_left, nu_right)
        dense = scipy.linalg.eigvals(A.toarray(), M.toarray())
        nearest = dense[np.argsort(np.abs(dense - sigma))[:nev]]
        want = np.sort(nearest[nearest.imag == 0.0].real)
        assert len(want) >= 2 and vecs.shape == (n, len(want))
        np.testing.assert_allclose(vals, want, rtol=1e-9)
        for e, v, r in zip(vals, vecs.T, res):
            want = np.linalg.norm(A @ v - e * (M @ v)) / np.linalg.norm(v)
            assert r == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_singular_shifted_pencil_raises(self):
        V, grid, nu_left, nu_right, _ = xi_case(64)
        _, M = _assemble(V, grid.h, nu_left, nu_right)
        # A = M makes A - 1 M exactly zero
        with pytest.raises(ParameterError, match="shift 1.0"):
            _solve(M, M, 4, 1.0)


quarters = st.integers(-40, 40).map(lambda k: k / 4)


class TestCountBelow:
    # main diagonal (1, 1, 2), off-diagonal 1 and E = 0 give the pivots
    # 1, then exactly 0, then 2 - 1/0: the zero pivot must not raise
    @settings(max_examples=300)
    @given(main=st.lists(quarters, min_size=1, max_size=12),
           off=st.lists(quarters, min_size=11, max_size=11), E=quarters)
    @example(main=[1.0, 1.0, 2.0], off=[1.0] * 11, E=0.0)
    def test_matches_dense_symmetric_pencil(self, main, off, E):
        n = len(main)
        e = np.array(off[:n - 1])
        A = np.array([np.r_[0.0, e], main, np.r_[e, 0.0]])
        M = np.array([np.full(n, 1 / 12), np.full(n, 10 / 12), np.full(n, 1 / 12)])
        w = scipy.linalg.eigh(expand_band(A).toarray(), expand_band(M).toarray(),
                              eigvals_only=True)
        assume(np.all(np.abs(w - E) > 1e-9 * (1 + np.abs(w).max())))
        assert _count_below(A, M, E) == int((w < E).sum())

    # b = -l2 - sqrt(alpha) - 1 - 2k; the closed form binds every b > 1/2
    @pytest.mark.parametrize("l2, root", [(-5, 1), (-5, 5), (-6, "3/2"), (-7, 3),
                                          (-9, 2), (-9, 7), ("-15/2", 2)])
    def test_counts_the_bound_xi_levels(self, l2, root):
        V, grid, nu_left, nu_right, sigma = xi_case(2000, float(Fraction(l2)),
                                                    float(Fraction(root)) ** 2)
        A, M = _assemble(V, grid.h, nu_left, nu_right)
        b = [-Fraction(l2) - Fraction(root) - 1 - 2 * k for k in range(20)]
        bound = sum(1 for x in b if x > Fraction(1, 2))
        # a level at the threshold E = 0 (b = 1/2) may fall on either side
        want = {bound, bound + 1} if Fraction(1, 2) in b else {bound}
        assert _count_below(A, M, 0.0) in want
        assert _count_below(A, M, sigma) == 0


class TestSolveTheta:
    def test_origin_parameters(self):
        # ladder prediction 1, 9, 25
        r = solve_theta(0, 0, GridSpec("theta", 2000))
        for got, want in zip(r.eigenvalues, (1.0, 9.0, 25.0)):
            assert got == pytest.approx(want, rel=1e-5)

    def test_shifted_parameters(self):
        r = solve_theta(1, 0, GridSpec("theta", 2000))
        assert r.eigenvalues[0] == pytest.approx(4.0, rel=1e-5)

    def test_ladder_formula_randomized(self, rng):
        pool = [0, "1/2", 1, "3/2", 2, "5/2", 3]
        grid = GridSpec("theta", 4000)
        for _ in range(5):
            l0, l1 = rng.choice(pool), rng.choice(pool)
            r = solve_theta(l0, l1, grid)
            base = 1 + Fraction(l0) + Fraction(l1)
            for n, got in enumerate(r.eigenvalues[:3]):
                want = float((base + 2 * n) ** 2)
                assert abs(got - want) / want < 1e-4

    # every pair with a zero coupling, where the potential's minimum is about
    # -4e5, plus the -1/2 edge of the admissible range
    @pytest.mark.parametrize("l0, l1", sorted(
        {(a, "0") for a in ("0", "1/2", "1", "3/2", "2")}
        | {("0", b) for b in ("1/2", "1", "3/2", "2")}
        | {("-1/2", "-1/2"), ("-1/2", "0"), ("-1/4", "1/3")}))
    def test_ladder_levels_at_singular_couplings(self, l0, l1):
        r = solve_theta(l0, l1, GridSpec("theta", 2000))
        base = 1 + Fraction(l0) + Fraction(l1)
        assert len(r.eigenvalues) == 3
        for n, got in enumerate(r.eigenvalues):
            want = float((base + 2 * n) ** 2)
            assert abs(got - want) <= 1e-5 * (want or 1.0)

    def test_complex_ritz_pair_is_not_a_level(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def eigs(A, k, **kw):
            # shift-invert Ritz values nu = 1/(lambda - sigma), sigma = -1
            vals = 1 / (np.array([9.0, 4.0 + 2.0j, 1.0, 4.0 - 2.0j]) + 1.0)
            return vals, np.ones((A.shape[0], len(vals)), dtype=complex)

        monkeypatch.setattr(spla, "eigs", eigs)
        r = solve_theta(0, 0, GridSpec("theta", 100), nev=4)
        assert r.eigenvalues == (1.0, 9.0)
        assert len(r.residual_norms) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            solve_theta(-1, 0, GridSpec("theta", 100))

    @pytest.mark.parametrize("l0", [math.nan, math.inf])
    def test_non_finite_label_is_a_parameter_error(self, l0):
        with pytest.raises(ParameterError, match="finite"):
            solve_theta(l0, 0, GridSpec("theta", 200))

    def test_label_beyond_the_float_range_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="labels must be finite .*got 10{400}$"):
            solve_theta(Fraction(10**400), 0, GridSpec("theta", 20))

    @pytest.mark.parametrize("l0", ["nan", "abc", "1/0"])
    def test_label_string_that_is_no_rational_is_a_parameter_error(self, l0):
        with pytest.raises(ParameterError, match=f"labels must be .*got '{l0}'$"):
            solve_theta(l0, 0, GridSpec("theta", 20))

    def test_rejects_a_xi_grid(self):
        with pytest.raises(ParameterError, match="needs a theta grid"):
            solve_theta(0, 0, GridSpec("xi", 20))

    def test_residual_invariant(self):
        r = solve_theta("1/2", "3/2", GridSpec("theta", 500))
        for ev, res in zip(r.eigenvalues, r.residual_norms):
            assert res <= 1e-6 * abs(ev) + 1e-8

    def test_repeated_solves_are_bit_identical(self):
        grid = GridSpec("theta", 400)
        a = solve_theta("1/2", 1, grid)
        b = solve_theta("1/2", 1, grid)
        assert [v.hex() for v in a.eigenvalues] == [v.hex() for v in b.eigenvalues]
        assert [v.hex() for v in a.residual_norms] == [v.hex() for v in b.residual_norms]

    def test_convergence_order(self):
        # measured on grids where truncation still dominates the error floor
        errs = []
        for n in (300, 601):
            r = solve_theta("1/2", "3/2", GridSpec("theta", n))
            errs.append(abs(r.eigenvalues[2] - 49.0))
        assert math.log2(errs[0] / errs[1]) >= 1.9


class TestSolveXi:
    def test_three_channels_l2_minus5(self):
        grid = GridSpec("xi", 2000, cutoff=25.0)
        r1 = solve_xi(-5, 1.0, grid)
        assert [round(v, 3) for v in r1.eigenvalues] == [-8.75, -0.75]
        r9 = solve_xi(-5, 9.0, grid)
        assert [round(v, 3) for v in r9.eigenvalues] == [-0.75]
        r25 = solve_xi(-5, 25.0, grid)
        assert r25.eigenvalues == ()

    def test_channel_accuracy(self):
        grid = GridSpec("xi", 2000, cutoff=25.0)
        assert abs(solve_xi(-5, 1.0, grid).eigenvalues[0] + 35 / 4) < 1e-3
        assert abs(solve_xi(-5, 9.0, grid).eigenvalues[0] + 3 / 4) < 1e-3

    def test_deep_channel_reports_every_bound_level(self):
        # (-21, alpha = 1) binds 10 levels, all of which the count must ask
        # ARPACK for; the two shallowest are the ladder's -35/4 and -3/4
        r = solve_xi(-21, 1.0, GridSpec("xi", 6000, cutoff=25.0))
        assert len(r.eigenvalues) == 10
        assert abs(r.eigenvalues[-2] + 35 / 4) < 1e-3
        assert abs(r.eigenvalues[-1] + 3 / 4) < 1e-3

    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterError):
            solve_xi(-5, 0.0, GridSpec("xi", 100))

    @pytest.mark.parametrize("l2, alpha", [(-5, math.inf), (math.nan, 9.0)])
    def test_non_finite_input_is_a_parameter_error(self, l2, alpha):
        with pytest.raises(ParameterError, match="finite"):
            solve_xi(l2, alpha, GridSpec("xi", 200))

    def test_alpha_beyond_the_float_range_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="alpha must be finite .*got 10{400}$"):
            solve_xi(-5, 10**400, GridSpec("xi", 40))

    def test_rejects_a_theta_grid(self):
        with pytest.raises(ParameterError, match="needs a xi grid"):
            solve_xi(-5, 9.0, GridSpec("theta", 20))

    def test_empty_channel_makes_no_arpack_call(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def eigs(*args, **kw):
            raise AssertionError("ARPACK called on a channel that binds nothing")

        monkeypatch.setattr(spla, "eigs", eigs)
        r = solve_xi(-5, 25.0, GridSpec("xi", 2000, cutoff=25.0))
        assert r.eigenvalues == () and r.residual_norms == ()

    def test_convergence_order(self):
        errs = []
        for n in (250, 501):
            r = solve_xi(-6, 4.0, GridSpec("xi", n, cutoff=25.0))
            errs.append(abs(r.eigenvalues[0] - (0.25 - 9.0)))
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_residual_invariant(self):
        r = solve_xi(-5, 1.0, GridSpec("xi", 800, cutoff=25.0))
        for ev, res in zip(r.eigenvalues, r.residual_norms):
            assert res <= 1e-6 * abs(ev) + 1e-8

    def test_repeated_solves_are_bit_identical(self):
        grid = GridSpec("xi", 400, cutoff=25.0)
        a = solve_xi(-5, 1.0, grid).eigenvalues
        b = solve_xi(-5, 1.0, grid).eigenvalues
        assert [v.hex() for v in a] == [v.hex() for v in b]

    def test_solve_frees_the_arpack_state(self):
        # with automatic collection off, no reference cycle may keep ARPACK's
        # state, or a factor it holds, alive after the solve
        gc.collect()
        gc.disable()
        try:
            solve_xi(-5, 1.0, GridSpec("xi", 400, cutoff=25.0))
            alive = [o for o in gc.get_objects()
                     if type(o).__name__ == "_UnsymmetricArpackParams"]
        finally:
            gc.enable()
        assert alive == []

    def test_truncation_warning_on_tight_box(self):
        from ladderspec import TruncationWarning
        with pytest.warns(TruncationWarning):
            solve_xi(-5, 1.0, GridSpec("xi", 400, cutoff=2.0))


class TestResidualOnGrid:
    def test_vertex_state_richardson(self):
        st = ground_full(0, -5)
        errs = []
        for n in (515, 1031):
            errs.append(residual_on_grid(st, "-35/4", GridSpec("theta", n),
                                         GridSpec("xi", n, cutoff=12.0)))
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_zero_state(self):
        from ladderspec import FunExpr, LabeledState, ParamPoint
        st = LabeledState(ParamPoint.of(0, 0, -5), FunExpr.zero())
        assert residual_on_grid(st, 0, GridSpec("theta", 64),
                                GridSpec("xi", 64, cutoff=12.0)) == 0.0

    def test_wrong_energy_detected(self):
        st = ground_full(0, -5)
        vals = [residual_on_grid(st, "-31/4", GridSpec("theta", n),
                                 GridSpec("xi", n, cutoff=12.0))
                for n in (128, 257)]
        assert min(vals) > 0.1  # stays bounded away from zero as h shrinks
