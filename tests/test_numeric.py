"""Finite-difference eigensolvers and the grid residual check."""

import math

import numpy as np
import pytest

from ladderspec import (EigenResult, GridSpec, ParameterError, ground_full,
                        residual_on_grid, solve_theta, solve_xi)


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

    def test_nodes_are_interior(self):
        g = GridSpec("theta", 32)
        x = g.nodes()
        assert 0 < x[0] and x[-1] < math.pi / 2


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
