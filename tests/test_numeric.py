"""Finite-volume eigensolvers and the grid residual check."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderspec import numeric
from ladderspec import (GridSpec, ParameterError, ground_full, residual_on_grid,
                        solve_theta, solve_xi)


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
    @pytest.mark.parametrize("cutoff", [-1.0, 0.0, math.nan, math.inf, -math.inf,
                                        1e-155, 1e-160])
    def test_cutoff_must_be_finite_and_positive(self, variable, cutoff):
        # 1/h^2 of the finest cell h = cutoff/200 overflows at 1e-155 and
        # divides by zero at 1e-160
        with pytest.raises(ParameterError, match=f"cutoff .*{cutoff}"):
            GridSpec(variable, 100, cutoff=cutoff)

    @pytest.mark.parametrize("n", [20.5, 20.0, "20"])
    def test_n_must_be_an_int(self, n):
        # 20.5 cells of width L/20.5 would run the coarse grid past the cutoff
        with pytest.raises(ParameterError, match=f"int n >= 16, got {n!r}"):
            GridSpec("xi", n)

    def test_nodes_are_interior(self):
        g = GridSpec("theta", 32)
        x = g.nodes()
        assert 0 < x[0] and x[-1] < math.pi / 2


# Reference: the finite-volume matrix of numeric._levels written from its
# definition, entry by entry with w itself rather than its log.
def reference_matrix(m: int, length: float, w, W) -> np.ndarray:
    h = length / m
    cells, faces = h * (np.arange(m) + 0.5), h * np.arange(m + 1)
    S = np.diag([W(x) for x in cells])
    for i in range(m):
        for j in (i - 1, i + 1):
            if 0 <= j < m:
                flux = w(faces[max(i, j)]) ** 2 / h ** 2
                S[i, i] += flux / w(cells[i]) ** 2
                S[i, j] = -flux / (w(cells[i]) * w(cells[j]))
    return S


def theta_case(l0: float = 0.5, l1: float = 1.5):
    a, b = l1 + 0.5, l0 + 0.5
    return (lambda x: math.sin(x) ** a * math.cos(x) ** b, lambda x: (a + b) ** 2,
            lambda grid: solve_theta(l0, l1, grid, nev=4), "theta")


def xi_case(l2: float = -5.0, alpha: float = 1.0):
    p = math.sqrt(alpha) + 0.5
    return (lambda x: math.tanh(x) ** p,
            lambda x: (p * p + p - l2 ** 2 + 0.25) / math.cosh(x) ** 2 + 0.25,
            lambda grid: solve_xi(l2, alpha, grid), "xi")


def grid_solves(monkeypatch, solve, grid):
    """The solver's result and each (d, e, levels) that numeric._grid
    builds and solves, one per grid."""
    calls = []
    build = numeric._grid

    def spy(*args, **kw):
        out = build(*args, **kw)
        calls.append(out[:3])
        return out

    monkeypatch.setattr(numeric, "_grid", spy)
    return solve(grid), calls


def dense_levels(m: int, case, length: float) -> np.ndarray:
    """numpy's dense eigenvalues of the reference matrix on m cells: the 4
    lowest on theta, every one in (min W - 1, 0] on xi."""
    w, W, _, variable = case
    dense = np.linalg.eigvalsh(reference_matrix(m, length, w, W))
    if variable == "theta":
        return dense[:4]
    cells = length / m * (np.arange(m) + 0.5)
    return dense[(dense > min(map(W, cells)) - 1.0) & (dense <= 0.0)]


class TestAssemble:
    # the matrix on n and 2n cells against the reference, entry by entry
    @pytest.mark.parametrize("n", [16, 17, 18, 50, 2000])
    @pytest.mark.parametrize("l0, l1", [(0, 0), (0.5, 1.5), (2, 0.5), (-0.5, 3)])
    def test_two_walls_match_reference(self, n, l0, l1, monkeypatch):
        self._check(theta_case(l0, l1), n, monkeypatch)

    @pytest.mark.parametrize("n", [16, 17, 18, 50, 2000])
    @pytest.mark.parametrize("alpha, l2", [(1.0, -5), (9.0, -6), (2.25, -7.5), (49.0, -9)])
    def test_dirichlet_wall_matches_reference(self, n, alpha, l2, monkeypatch):
        self._check(xi_case(l2, alpha), n, monkeypatch)

    @staticmethod
    def _check(case, n, monkeypatch):
        w, W, solve, variable = case
        grid = GridSpec(variable, n)
        _, calls = grid_solves(monkeypatch, solve, grid)
        assert [len(d) for d, *_ in calls] == [n, 2 * n]
        for d, e, _ in calls:
            S = reference_matrix(len(d), grid.length, w, W)
            assert len(e) == len(d) - 1
            np.testing.assert_allclose(d, np.diag(S), rtol=1e-12)
            np.testing.assert_allclose(e, np.diag(S, 1), rtol=1e-12)


class TestSolveAgainstDense:
    @pytest.mark.parametrize("n", [64, 200])
    @pytest.mark.parametrize("case", [theta_case, xi_case])
    def test_levels_match_dense_pencil(self, n, case, monkeypatch):
        # every grid's levels, on n and 2n cells, against numpy's dense
        # eigenvalues of the reference matrix: the nev lowest on theta, every
        # one in (min W - 1, 0] on xi
        _, _, solve, variable = case()
        grid = GridSpec(variable, n)
        r, calls = grid_solves(monkeypatch, solve, grid)
        assert [len(d) for d, *_ in calls] == [n, 2 * n]
        for d, _, got in calls:
            want = dense_levels(len(d), case(), grid.length)
            assert len(want) >= 2
            np.testing.assert_allclose(got, want, rtol=1e-10)
        coarse, fine = calls[0][2], calls[1][2]
        np.testing.assert_allclose(r.eigenvalues, (4 * fine - coarse) / 3, rtol=1e-15)

    def test_failed_certificate_falls_back_to_bisection(self, monkeypatch, capfd):
        # at n = 64 the coarse levels of (-15, alpha = 81) are too far from
        # the fine ones (-2.22 against -0.65) for two rounds of inverse
        # iteration, so the 128-cell grid is bisected; its levels still
        # match the dense ones
        _, _, solve, variable = xi_case(-15, 81.0)
        bisected = []
        eigh = scipy.linalg.eigh_tridiagonal
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            lambda d, e, **kw: bisected.append(len(d)) or eigh(d, e, **kw))
        grid = GridSpec(variable, 64)
        r, calls = grid_solves(monkeypatch, solve, grid)
        assert bisected == [128] and capfd.readouterr() == ("", "")
        for d, _, got in calls:
            want = dense_levels(len(d), xi_case(-15, 81.0), grid.length)
            assert len(want) == 3
            np.testing.assert_allclose(got, want, rtol=1e-10)
        assert len(r.eigenvalues) == 3

    @pytest.mark.parametrize("guesses", [[-9.0, -24.0, -1.0], [-24.0, -9.0, -9.0],
                                         [-24.0, np.nan, -1.0]])
    def test_guesses_in_any_order_print_nothing(self, guesses, capfd):
        # LAPACK's dstein rejects unsorted guesses with a message on stdout;
        # _grid sorts them, and bisects when two repeat or one is not finite
        grid, p = GridSpec("xi", 200), math.sqrt(81.0) + 0.5
        _, _, got, vecs, res, _ = numeric._grid(
            grid, 400, lambda x: p * np.log(np.tanh(x)),
            lambda x: (p * p + p - 225 + 0.25) / np.cosh(x) ** 2 + 0.25, None, np.array(guesses))
        assert capfd.readouterr() == ("", "")
        np.testing.assert_allclose(got, dense_levels(400, xi_case(-15, 81.0), grid.length),
                                   rtol=1e-10)
        assert vecs.shape == (400, 3) and (res < 1e-6).all()


def theta_problem(l0: float = 0.0, l1: float = 0.0):
    """(log w, W) of solve_theta at (l0, l1)."""
    a, b = l1 + 0.5, l0 + 0.5
    return (lambda x: a * np.log(np.sin(x)) + b * np.log(np.sin(np.pi / 2 - x)),
            lambda x: np.full_like(x, (a + b) ** 2))


def lapack_calls(monkeypatch):
    """Lists that record, per call, the matrix size of each Sturm count
    (dstebz with an infinite tolerance), loose bisection (dstebz),
    inverse iteration (dstein) and tight bisection (eigh_tridiagonal)."""
    calls = {"count": [], "loose": [], "dstein": [], "tight": []}
    lapack, eigh = scipy.linalg.lapack, scipy.linalg.eigh_tridiagonal
    stebz, stein = lapack.dstebz, lapack.dstein

    def spy_stebz(d, e, *args):
        calls["count" if args[5] == np.inf else "loose"].append(len(d))
        return stebz(d, e, *args)

    monkeypatch.setattr(lapack, "dstebz", spy_stebz)
    monkeypatch.setattr(lapack, "dstein",
                        lambda d, *a: calls["dstein"].append(len(d)) or stein(d, *a))
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e, **kw: calls["tight"].append(len(d)) or eigh(d, e, **kw))
    return calls


class TestCertificate:
    def test_quotients_at_the_wrong_index_are_rejected(self, monkeypatch):
        # guesses near the levels 1 and 25 of theta(0, 0), the first and the
        # third: inverse iteration converges to them, and their quotients
        # pass the Kato-Temple test, but the count between them is 2, not 1
        calls = lapack_calls(monkeypatch)
        grid = GridSpec("theta", 200)
        log_w, W = theta_problem()
        _, _, got, vecs, _, _ = numeric._grid(grid, 200, log_w, W, 2, np.array([1.0, 25.0]))
        assert calls["dstein"] == [200, 200] and calls["tight"] == [200]
        want = dense_levels(200, theta_case(0, 0), grid.length)[:2]
        np.testing.assert_allclose(got, want, rtol=1e-10)
        assert vecs.shape == (200, 2)

    def test_failed_seeds_restart_from_a_loose_bisection(self, monkeypatch):
        # seeds at the wrong index fail twice, as their quotients are the
        # same levels; the grid then certifies the levels of its own loose
        # bisection in one round, with no tight bisection
        calls = lapack_calls(monkeypatch)
        grid = GridSpec("theta", 200)
        log_w, W = theta_problem()
        _, _, got, _, _, _ = numeric._grid(grid, 200, log_w, W, 2, np.array([1.0, 25.0]),
                                           seeded=True)
        assert calls["dstein"] == [200, 200, 200] and calls["loose"] == [200]
        assert calls["tight"] == []
        want = dense_levels(200, theta_case(0, 0), grid.length)[:2]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("case", [theta_case, xi_case])
    def test_certified_grids_take_k_counts(self, case, monkeypatch):
        # one round of inverse iteration per grid and k Sturm counts, the
        # count at 0 that fixes k on xi included; the n-cell grid's seeds
        # come from the one loose bisection, of the grid of n/4 cells
        _, _, solve, variable = case()
        calls = lapack_calls(monkeypatch)
        r, solves = grid_solves(monkeypatch, solve, GridSpec(variable, 1000))
        assert [len(d) for d, *_ in solves] == [1000, 2000]
        assert calls["loose"] == [250] and calls["tight"] == []
        assert calls["dstein"] == [1000, 2000]
        k = [len(levels) for *_, levels in solves]
        assert k == ([4, 4] if variable == "theta" else [2, 2])
        assert calls["count"] == [1000] * k[0] + [2000] * k[1]
        assert len(r.eigenvalues) == k[1]

    def test_no_coarse_level_seeks_no_fine_level(self, monkeypatch):
        # at l2 = -6, sqrt(alpha) = 5 binds nothing: the 2n-cell matrix is
        # built, for its overflow check, but neither counted nor solved
        calls = lapack_calls(monkeypatch)
        r, solves = grid_solves(monkeypatch, lambda grid: solve_xi(-6, 25.0, grid),
                                GridSpec("xi", 1000))
        assert [len(d) for d, *_ in solves] == [1000, 2000]
        assert r.eigenvalues == ()
        assert all(2000 not in sizes for sizes in calls.values()), calls


# Reference: the same finite volumes built and bisected in long double
# (64-bit mantissa on x86), with a vectorized Sturm count over many shifts.
LD = np.longdouble


def longdouble_matrix(m: int, length: float, log_w, W) -> tuple[np.ndarray, np.ndarray]:
    h = LD(length) / m
    faces, cells = h * np.arange(1, m, dtype=LD), h * (np.arange(m, dtype=LD) + LD(0.5))
    lf, lc = log_w(faces), log_w(cells)
    d = W(cells) + (np.r_[np.exp(2 * (lf - lc[:-1])), LD(0)]
                    + np.r_[LD(0), np.exp(2 * (lf - lc[1:]))]) / h ** 2
    return d, -np.exp(2 * lf - lc[:-1] - lc[1:]) / h ** 2


def longdouble_count(d, e, x) -> np.ndarray:
    """The number of levels below each shift x, from the LDL^T pivots."""
    q, below = d[0] - x, (d[0] - x < 0).astype(int)
    for di, ei in zip(d[1:], e * e):
        q = di - x - ei / np.where(q == 0, -np.finfo(LD).tiny, q)
        below += q < 0
    return below


def longdouble_levels(d, e, k: int, ways: int = 64) -> np.ndarray:
    """The k lowest levels, each bracket cut into `ways` parts per round."""
    lo = np.full(k, d.min() - 2 * np.abs(e).max())
    hi = np.full(k, d.max() + 2 * np.abs(e).max())
    rows, t = np.arange(k), np.arange(1, ways, dtype=LD) / ways
    while ((hi - lo) > 1e-17 * np.maximum(1, abs(hi))).any():
        x = lo[:, None] + (hi - lo)[:, None] * t
        j = (longdouble_count(d, e, x) <= rows[:, None]).sum(axis=1)
        lo = np.where(j > 0, x[rows, np.maximum(j - 1, 0)], lo)
        hi = np.where(j < ways - 1, x[rows, np.minimum(j, ways - 2)], hi)
    return (lo + hi) / 2


@pytest.mark.parametrize("variable", ["theta", "xi"])
def test_levels_match_longdouble_bisection(variable):
    # theta(0, 0) and xi(-7, alpha = 1) at n = 500: the Richardson values of
    # the long-double levels of both grids, against the solver's, within the
    # bisection tolerance 1e-12 (1 + |min W|); tight float bisection of the
    # float (d, e) was 4.1e-11 off on theta, past the 2e-12 bound
    grid = GridSpec(variable, 500)
    if variable == "theta":
        a = b = LD(0.5)
        log_w = lambda x: a * np.log(np.sin(x)) + b * np.log(np.sin(LD(math.pi / 2) - x))
        W = lambda x: np.full_like(x, (a + b) ** 2)
        got = solve_theta(0, 0, grid).eigenvalues
    else:
        p = np.sqrt(LD(1)) + LD(0.5)
        log_w = lambda x: p * np.log(np.tanh(x))
        W = lambda x: (p * p + p - LD(49) + LD(0.25)) / np.cosh(x) ** 2 + LD(0.25)
        got = solve_xi(-7, 1.0, grid).eigenvalues
    levels, tol = [], 0.0
    for m in (500, 1000):
        d, e = longdouble_matrix(m, grid.length, log_w, W)
        cells = LD(grid.length) / m * (np.arange(m, dtype=LD) + LD(0.5))
        floor = W(cells).min() - 1
        window = longdouble_count(d, e, np.array([floor, LD(0)]))
        k = 3 if variable == "theta" else int(window[1] - window[0])
        levels.append(longdouble_levels(d, e, k))
        tol = max(tol, 1e-12 * (1 + abs(float(floor + 1))))
    want = (4 * levels[1] - levels[0]) / 3
    assert len(got) == len(want) == 3
    np.testing.assert_allclose(got, want.astype(float), rtol=0, atol=tol)


def check_bound_xi_levels(l2: Fraction, root: Fraction) -> None:
    """solve_xi at n = 2000 reports the closed form's bound levels, each
    within 1e-3; b = -l2 - sqrt(alpha) - 1 - 2k binds every b > 1/2."""
    r = solve_xi(l2, float(root) ** 2, GridSpec("xi", 2000))
    b = [x for x in (-l2 - root - 1 - 2 * k for k in range(20)) if x >= Fraction(1, 2)]
    # a level at the threshold E = 0 (b = 1/2) may fall on either side
    bound = sum(1 for x in b if x > Fraction(1, 2))
    assert len(r.eigenvalues) in ({bound, bound + 1} if len(b) > bound else {bound})
    for got, x in zip(r.eigenvalues, b):
        assert abs(got - float(Fraction(1, 4) - x * x)) < 1e-3


class TestCountBelow:
    @pytest.mark.parametrize("l2, root", [(-5, 1), (-5, 5), (-6, "3/2"), (-7, 3),
                                          (-9, 2), (-9, 7), ("-15/2", 2)])
    def test_counts_the_bound_xi_levels(self, l2, root):
        check_bound_xi_levels(Fraction(l2), Fraction(root))

    @settings(max_examples=100)
    @given(l2=st.integers(8, 40).map(lambda k: -Fraction(k, 2)),
           root=st.integers(1, 40).map(lambda k: Fraction(k, 2)))
    def test_counts_and_places_the_bound_xi_levels(self, l2, root):
        check_bound_xi_levels(l2, root)


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

    @pytest.mark.parametrize("nev", [0, -1, 2.5, None])
    def test_nev_must_be_a_positive_int(self, nev, capfd):
        with pytest.raises(ParameterError, match=f"nev must be an int >= 1, got {nev!r}$"):
            solve_theta(0, 0, GridSpec("theta", 32), nev=nev)
        assert capfd.readouterr() == ("", "")  # and no LAPACK message

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
        # (-21, alpha = 1) binds 10 levels; the two shallowest are the
        # ladder's -35/4 and -3/4
        r = solve_xi(-21, 1.0, GridSpec("xi", 2000, cutoff=25.0))
        assert len(r.eigenvalues) == 10
        assert abs(r.eigenvalues[-2] + 35 / 4) < 1e-3
        assert abs(r.eigenvalues[-1] + 3 / 4) < 1e-3

    def test_potential_above_one_reports_no_level(self):
        # on a box of length 1 the channel's W exceeds 1 everywhere, so the
        # window (min W - 1, 0] is empty; bisecting it was a bare ValueError
        assert solve_xi(-5, 1e4, GridSpec("xi", 16, cutoff=1.0)).eigenvalues == ()

    def test_threshold_channel_reports_no_level(self):
        # b = 20 - 37/2 - 1 = 1/2: the channel's only level is E = 0
        assert solve_xi(-20, 18.5 ** 2, GridSpec("xi", 2000)).eigenvalues == ()

    @pytest.mark.parametrize("root", [3, 5, 7, 9, 11, 13, 15])
    def test_coarse_grid_reports_only_bound_levels(self, root):
        # at l2 = -6 only sqrt(alpha) = 3 binds a level, -15/4
        r = solve_xi(-6, float(root) ** 2, GridSpec("xi", 24))
        assert len(r.eigenvalues) == (1 if root == 3 else 0)

    def test_results_are_python_floats(self):
        r = solve_xi(-5, 1.0, GridSpec("xi", 200))
        t = solve_theta(0, 0, GridSpec("theta", 200))
        assert len(r.eigenvalues) == 2 and len(t.eigenvalues) == 3
        for v in r.eigenvalues + r.residual_norms + t.eigenvalues + t.residual_norms:
            assert type(v) is float

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


# the numeric-oracle label box: l0 and l1 from L01, l2 from L2
ORACLE_L01 = tuple(Fraction(k, 2) for k in range(5))
ORACLE_L2 = tuple(map(Fraction, ("-5", "-6", "-7", "-15/2", "-9")))


class TestErrorBars:
    def test_theta_bars_cover_the_exact_error(self):
        grid = GridSpec("theta", 2000)
        for l0 in ORACLE_L01:
            for l1 in ORACLE_L01:
                r = solve_theta(l0, l1, grid)
                assert len(r.errors) == len(r.eigenvalues) == 3
                for n, (got, err) in enumerate(zip(r.eigenvalues, r.errors)):
                    assert type(err) is float and err > 0
                    assert abs(got - float((1 + l0 + l1 + 2 * n) ** 2)) <= err

    def test_xi_bars_cover_the_exact_error(self):
        # every channel sqrt(alpha) = 1 + l0 + l1 + 2n of the box that binds;
        # its levels are 1/4 - b^2, b = -l2 - sqrt(alpha) - 1 - 2k > 1/2, and
        # a level at the threshold b = 1/2 is left out
        grid, checked = GridSpec("xi", 2000), 0
        for l2 in ORACLE_L2:
            for root in sorted({1 + l0 + l1 for l0 in ORACLE_L01 for l1 in ORACLE_L01}):
                while (r := solve_xi(l2, float(root) ** 2, grid)).eigenvalues:
                    assert len(r.errors) == len(r.eigenvalues)
                    b = [-l2 - root - 1 - 2 * k for k in range(len(r.eigenvalues))]
                    for got, err, x in zip(r.eigenvalues, r.errors, b):
                        if x > Fraction(1, 2):
                            assert abs(got - float(Fraction(1, 4) - x * x)) <= err
                            checked += 1
                    root += 2
        assert checked > 100


@pytest.mark.parametrize("solve, args, message", [
    (solve_theta, (1e200, 0), r"labels .*got 1e\+200$"),
    (solve_theta, (1e154, 1e154), r"labels .*got 1e\+154$"),  # (1 + l0 + l1)^2 overflows
    (solve_theta, (0, 600), "inputs too large: the theta matrix overflows at l1 = 600$"),
    (solve_xi, (-1e200, 1.0), r"labels .*got -1e\+200$"),
    (solve_xi, (-5, 1e300), r"alpha .*got 1e\+300$"),
    (solve_xi, (-5, 1e6), r"inputs too large: the xi matrix overflows at alpha = 1000000\.0$"),
])
def test_overflowing_input_is_a_parameter_error(solve, args, message):
    """An input whose square or whose matrix leaves the float range raises
    a ParameterError that names it, with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=message):
            solve(*args, GridSpec(solve.__name__.removeprefix("solve_"), 16))


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
        st = LabeledState(ParamPoint.of(0, 0, -5), FunExpr())
        assert residual_on_grid(st, 0, GridSpec("theta", 64),
                                GridSpec("xi", 64, cutoff=12.0)) == 0.0

    def test_wrong_energy_detected(self):
        st = ground_full(0, -5)
        vals = [residual_on_grid(st, "-31/4", GridSpec("theta", n),
                                 GridSpec("xi", n, cutoff=12.0))
                for n in (128, 257)]
        assert min(vals) > 0.1  # stays bounded away from zero as h shrinks
