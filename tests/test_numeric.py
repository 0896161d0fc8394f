"""Finite-difference eigensolvers and the grid residual check."""

import gc
import math
from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sps

from ladderspec import (EigenResult, GridSpec, ParameterError, ground_full,
                        residual_on_grid, solve_theta, solve_xi)
from ladderspec.numeric import _CORRECTED_ROWS, _assemble


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
        assert A.format == M.format == "csc"
        assert (A != A_ref).nnz == 0
        assert (M != M_ref).nnz == 0


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
            from fractions import Fraction
            base = 1 + Fraction(l0) + Fraction(l1)
            for n, got in enumerate(r.eigenvalues[:3]):
                want = float((base + 2 * n) ** 2)
                assert abs(got - want) / want < 1e-4

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            solve_theta(-1, 0, GridSpec("theta", 100))

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

    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterError):
            solve_xi(-5, 0.0, GridSpec("xi", 100))

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
        # eigs keeps its state in a reference cycle; with automatic collection
        # off, only the solver's own collection can free it
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
