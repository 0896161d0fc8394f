"""Independent finite-volume eigensolver for the separated 1D equations.

Each 1D equation -u'' + V u = E u has walls where V ~ (nu^2 - 1/4)/x^2, and
its eigenfunctions behave like x^(nu+1/2) there.  A weight w built from those
indicial exponents alone turns it into -(w^2 g')' + W w^2 g = E w^2 g for
u = w g, with a bounded W.  Both solvers discretize that form on uniform
cells with no flux through either end, which after a diagonal scaling by w
is one symmetric tridiagonal matrix.  Inverse iteration (LAPACK dstein)
gives each level's vector, and the level is its Rayleigh quotient in flux
form.  One Sturm count (dstebz) per level certifies the k levels of a grid:
a count at each midpoint between neighbouring quotients and one above the
top put exactly one level between consecutive midpoints, at its index, by
Sylvester's law of inertia (Parlett, The Symmetric Eigenvalue Problem, 3.3),
and the Kato-Temple bound on that interval puts it within the bisection
tolerance of its quotient (_grid).  A grid whose certificate fails is
bisected instead.  The quotient is the more exact: a Sturm count on the
matrix entries is good only to about eps max|d|, because the low levels
cancel d against 2|e| (Kahan, Accurate eigenvalues of a symmetric
tri-diagonal matrix, 1966): at n = 2000 the Richardson values of
theta(0, 0) from tight bisection were up to 7.4e-10 off those of a
long-double bisection of the same discretization, and from the quotients
they are 7e-13 off.  Inverse iteration on the n-cell grid starts from a
loose bisection of the same problem on n/4 cells, and on the 2n-cell grid
from the n-cell levels.  The scheme is second order; each solve reports the
Richardson values of the n- and 2n-cell levels and, per level, the error
bar |E_2n - E_n|/3 plus the tolerance.  Only the indicial exponents of the
differential equation enter; no spectral data from the operator algebra is
used, which keeps this module an independent oracle.

The radial equation in xi carries a first-derivative term; the similarity
transform u = sinh(xi)^(1/2) g removes it and shifts the eigenvalue by
exactly +1/4, leaving V = (alpha - 1/4)/sinh^2 - (l2^2 - 1/4)/cosh^2 + 1/4.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .algebra import RationalLike, eval_grid
from .operators import LabeledState


class ParameterError(ValueError):
    """Solver parameters outside the admissible range."""


def _to_float(x, what: str = "labels") -> float:
    """x as a float; a string that is no exact rational, a non-finite x, or
    one whose square, or that of a sum of two such, is beyond the float
    range, is a ParameterError that names it.  The solvers square such sums."""
    try:
        v = float(x) if isinstance(x, float) else float(Fraction(x))
    except OverflowError:
        v = math.inf
    except (ValueError, ZeroDivisionError):  # "nan", "abc", "1/0"
        raise ParameterError(f"{what} must be exact rationals or floats, got {x!r}") from None
    if not math.isfinite(4 * v * v):
        raise ParameterError(f"{what} must be finite and square in the float range, got {x}")
    return v


class TruncationWarning(UserWarning):
    """The box cutoff visibly clips the lowest eigenfunction."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid; theta spans (0, pi/2), xi spans (0, cutoff).

    The solvers use n cells of width length/n (and 2n for Richardson);
    nodes() and h, the n interior points of n + 1 equal steps, serve
    residual_on_grid.
    """

    variable: str
    n: int
    cutoff: float = 25.0

    def __post_init__(self):
        if self.variable not in ("theta", "xi"):
            raise ParameterError(f"variable must be 'theta' or 'xi', got {self.variable!r}")
        if not isinstance(self.n, numbers.Integral) or self.n < 16:
            raise ParameterError(f"need an int n >= 16, got {self.n!r}")
        w = self.cutoff / self.n  # no user of the grid squares a wider cell
        if not (math.isfinite(w * w) and self.cutoff > 0):
            raise ParameterError(f"cutoff must be > 0 with (cutoff/n)^2 finite, got {self.cutoff}")

    @property
    def length(self) -> float:
        return math.pi / 2 if self.variable == "theta" else self.cutoff

    @property
    def h(self) -> float:
        return self.length / (self.n + 1)

    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class EigenResult:
    """The Richardson values of the levels, the fine grid's residuals
    |S u - E u| and each level's error bar |E_2n - E_n|/3 + tol (_levels)."""
    eigenvalues: tuple[float, ...]
    residual_norms: tuple[float, ...]
    errors: tuple[float, ...]


def _tolerance(Wc: np.ndarray) -> float:
    """The bisection tolerance 1e-12 (1 + |min W|) of a grid, W at its cells."""
    return 1e-12 * (1.0 + abs(Wc.min()))


def _matrix(grid: GridSpec, m: int, log_w: Callable[[np.ndarray], np.ndarray],
            W: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, ...]:
    """(d, e) of the finite volumes on m cells, and the logs of w at the
    interior faces and the cell centres and W at the centres, which build
    it; an entry beyond the float range is inf or nan."""
    h = grid.length / m
    faces, cells = h * np.arange(1, m), h * (np.arange(m) + 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        lf, lc, Wc = log_w(faces), log_w(cells), W(cells)
        d = Wc + (np.r_[np.exp(2 * (lf - lc[:-1])), 0.0]
                  + np.r_[0.0, np.exp(2 * (lf - lc[1:]))]) / h ** 2
        e = -np.exp(2 * lf - lc[:-1] - lc[1:]) / h ** 2
    return d, e, lf, lc, Wc


def _loose(d: np.ndarray, e: np.ndarray, Wc: np.ndarray, nev: Optional[int]) -> np.ndarray:
    """One bisection (dstebz) of (d, e) to the loose tolerance
    1e-4 (1 + |min W|): the nev lowest levels, or with nev None every level
    in (min W - 1, 0]."""
    from scipy.linalg.lapack import dstebz

    floor = Wc.min() - 1
    if nev is None and floor >= 0:
        return np.empty(0)
    select = (1, floor, 0.0, 1, 1) if nev is None else (2, 0.0, 0.0, 1, min(nev, len(d)))
    found, w = dstebz(d, e, *select, 1e-4 * (1.0 + abs(Wc.min())), b"E")[:2]
    return w[:found]


def _grid(grid: GridSpec, m: int, log_w: Callable[[np.ndarray], np.ndarray],
          W: Callable[[np.ndarray], np.ndarray], nev: Optional[int],
          guesses: np.ndarray, seeded: bool = False) -> tuple[np.ndarray, ...]:
    """The matrix (d, e) on m cells (_matrix), its k levels, their unit
    vectors and residuals |S v - E v|: the nev lowest, or with nev None every
    level in (min W - 1, 0]; the flux part is positive semidefinite, so no
    level lies below min W.

    Inverse iteration (dstein) from the guesses gives each unit vector v.
    Its level rho is the Rayleigh quotient in flux form,
    (sum over faces of (v_i w_f/w_i - v_(i+1) w_f/w_(i+1))^2/h^2
    + sum W_i v_i^2) / sum v_i^2, a sum of squares in which d does not cancel
    against 2|e|.  The levels are certified with k Sturm counts (dstebz),
    where r_i = |S v_i - rho_i v_i|, delta = 8 eps (max|d| + 2 max|e|) is
    the error of a count and tol = 1e-12 (1 + |min W|) the bisection
    tolerance.  Put mu_i = (rho_i + rho_(i+1))/2 between neighbours,
    mu_(-1) = -inf, and above the top mu_(k-1) = 2 rho_(k-1) - rho_(k-2) on
    theta (rho_(-1) = min W - 1; +inf when k = m) and 0 on xi.  The grid is
    accepted when
      1. each [rho_i - r_i, rho_i + r_i] lies in (mu_(i-1) + delta, mu_i - delta),
      2. count(mu_i) = i + 1 for every i, and
      3. r_i^2 <= tol min(rho_i - mu_(i-1) + delta, mu_i - delta - rho_i).
    A float count at x lies between the exact counts at x - delta and
    x + delta, and a level lies within r_i of rho_i.  So 1 and 2 leave
    exactly one level in (mu_(i-1) - delta, mu_i - delta), and its index is
    i; 3 is the Kato-Temple bound on that interval, which puts the level
    within tol of rho_i (Parlett, The Symmetric Eigenvalue Problem).  On xi
    the count at mu_(k-1) = 0 is the one that fixes k.

    Each start gets two rounds of inverse iteration: from its values, then
    from the quotients of the first round.  The start is the guesses;
    seeded guesses, the levels of a coarser grid, are followed by one loose
    bisection of this grid (_loose) when both their rounds fail.  A grid
    that fails every round is bisected to tol instead (eigh_tridiagonal,
    dstebz and stein).
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dstebz, dstein

    d, e, lf, lc, Wc = _matrix(grid, m, log_w, W)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ParameterError(f"inputs too large: the {grid.variable} matrix overflows")
    h, floor, tol = grid.length / m, Wc.min() - 1, _tolerance(Wc)

    def count(x: float) -> int:  # levels in (floor, x]; an infinite tolerance bisects nothing
        return dstebz(d, e, 1, floor, x, 0, 0, np.inf, b"E")[0] if x > floor else 0

    def residuals(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        Sv = d[:, None] * vecs
        Sv[:-1] += e[:, None] * vecs[1:]
        Sv[1:] += e[:, None] * vecs[:-1]
        return np.linalg.norm(Sv - vals * vecs, axis=0)

    k = min(nev, m) if nev is not None else count(0.0)  # on xi the count at 0
    if not k:
        return d, e, np.empty(0), np.empty((m, 0)), np.empty(0)
    delta = 8 * np.finfo(float).eps * (np.abs(d).max() + 2 * np.abs(e).max())
    ratios = np.exp(lf - lc[:-1])[:, None], np.exp(lf - lc[1:])[:, None]

    def certify(g: np.ndarray):
        """(levels, vectors, residuals) by inverse iteration from g, sorted,
        and whether the certificate holds; (None, False) for unusable g."""
        g = np.sort(g)
        if len(g) != k or not (np.isfinite(g).all() and (np.diff(g) > 0).all()):
            return None, False
        z, info = dstein(d, e, g, np.ones(m, np.int32), np.full(m, m, np.int32))
        z2 = z * z
        flux = (z[:-1] * ratios[0] - z[1:] * ratios[1]) ** 2
        rho = (flux.sum(axis=0) / h ** 2 + (Wc[:, None] * z2).sum(axis=0)) / z2.sum(axis=0)
        r = residuals(rho, z)
        top = 0.0 if nev is None else np.inf if k == m else 2 * rho[-1] - np.r_[floor, rho][-2]
        mu = np.r_[(rho[:-1] + rho[1:]) / 2, top]
        below = np.r_[-np.inf, mu[:-1]]
        counted = mu if nev is not None and top < np.inf else mu[:-1]
        ok = (info == 0 and (below + delta < rho - r).all() and (rho + r < mu - delta).all()
              and (r * r <= tol * np.minimum(rho - below + delta, mu - delta - rho)).all()
              and all(count(x) == i for i, x in enumerate(counted, 1)))
        return (rho, z, r), ok

    for start in (guesses, None) if seeded else (guesses,):
        found, ok = certify(_loose(d, e, Wc, nev) if start is None else start)
        if found is not None and not ok:
            found, ok = certify(found[0])
        if ok:
            break
    if not ok:
        kind, bounds = ("v", (floor, 0.0)) if nev is None else ("i", (0, k - 1))
        vals, vecs = eigh_tridiagonal(d, e, select=kind, select_range=bounds,
                                      lapack_driver="stebz", tol=tol)
        found = vals, vecs, residuals(vals, vecs)
    return (d, e) + found


def _levels(grid: GridSpec, log_w: Callable[[np.ndarray], np.ndarray],
            W: Callable[[np.ndarray], np.ndarray],
            nev: Optional[int] = None) -> tuple[np.ndarray, ...]:
    """Levels of -u'' + V u = E u, V = W + w''/w, on grid.n and 2 grid.n cells.

    With u = w g the equation reads -(w^2 g')' + W w^2 g = E w^2 g.  Cell-
    centred finite volumes with no flux through either end, scaled by w at
    the cell centres, give a symmetric tridiagonal S whose entries take w
    only in logs and only at interior faces and centres (_matrix).  The
    seeds of the n-cell grid are a loose bisection of the same problem on
    n/4 cells, built here so that _grid solves only the n- and 2n-cell
    grids; the n-cell grid's levels are the 2n-cell grid's guesses.  Returns
    the Richardson values (4 E_2n - E_n)/3 of the levels both grids report,
    the residuals |S u - E u| of the fine unit eigenpairs, the error bars
    |E_2n - E_n|/3 + tol, with tol the fine grid's bisection tolerance, and
    the fine vectors, which sample u = w g at the fine cell centres.  The
    bar is the Richardson correction, the error of E_2n to leading order,
    which bounds the error of the Richardson value while its O(h^4)
    remainder is smaller, plus what the certificates allow; it is an
    estimate, not a bound, on a grid too coarse for that.
    """
    d, e, _, _, Wc = _matrix(grid, grid.n // 4, log_w, W)
    finite = np.isfinite(d).all() and np.isfinite(e).all()
    seeds = _loose(d, e, Wc, nev) if finite else np.empty(0)
    coarse = _grid(grid, grid.n, log_w, W, nev, seeds, seeded=True)[2]
    _, _, fine, vecs, res = _grid(grid, 2 * grid.n, log_w, W, nev, coarse)
    k = min(len(coarse), len(fine))
    tol = _tolerance(W(grid.length / (2 * grid.n) * (np.arange(2 * grid.n) + 0.5)))
    return ((4 * fine[:k] - coarse[:k]) / 3, res[:k],
            np.abs(fine[:k] - coarse[:k]) / 3 + tol, vecs[:, :k])


def solve_theta(l0: RationalLike | float, l1: RationalLike | float,
                grid: GridSpec, nev: int = 3) -> EigenResult:
    """Lowest eigenvalues of -f'' + (l1^2-1/4)/sin^2 + (l0^2-1/4)/cos^2.

    Regular on the quadrant for l0, l1 >= -1/2.  The weight is
    w = sin^(l1+1/2) cos^(l0+1/2), which leaves W the constant (1+l0+l1)^2.
    The exact values follow the ladder rule (1 + l0 + l1 + 2n)^2, which this
    solver knows nothing about.
    """
    if not isinstance(nev, numbers.Integral) or nev < 1:
        raise ParameterError(f"nev must be an int >= 1, got {nev!r}")
    L0, L1 = _to_float(l0), _to_float(l1)
    if L0 < -0.5 or L1 < -0.5:
        raise ParameterError(f"need l0, l1 >= -1/2, got ({L0}, {L1})")
    if grid.variable != "theta":
        raise ParameterError("solve_theta needs a theta grid")
    a, b = L1 + 0.5, L0 + 0.5
    try:  # cos x as sin(pi/2 - x), exact next to the right wall
        *found, _ = _levels(grid, lambda x: a * np.log(np.sin(x))
                            + b * np.log(np.sin(np.pi / 2 - x)),
                            lambda x: np.full_like(x, (a + b) ** 2), nev)
    except ParameterError as exc:  # the larger wall exponent overflows
        raise ParameterError(f"{exc} at " + (f"l1 = {l1}" if L1 >= L0 else f"l0 = {l0}")) from None
    return EigenResult(*(tuple(x.tolist()) for x in found))


def solve_xi(l2: RationalLike | float, alpha: float, grid: GridSpec) -> EigenResult:
    """Discrete negative eigenvalues of the radial equation at given alpha.

    Solves -g'' - coth g' - (l2^2-1/4)/cosh^2 g + alpha/sinh^2 g = E g via the
    sinh^(1/2) similarity transform.  The weight is w = tanh^p with
    p = sqrt(alpha) + 1/2, which leaves W = (p^2+p-l2^2+1/4)/cosh^2 + 1/4.
    Only E < 0 entries are reported; the list is empty when the channel binds
    nothing.
    """
    L2 = _to_float(l2)
    a = _to_float(alpha, "separation constant alpha")
    if a <= 0:
        raise ParameterError(f"separation constant alpha must be positive, got {a}")
    if grid.variable != "xi":
        raise ParameterError("solve_xi needs a xi grid")
    p = math.sqrt(a) + 0.5
    try:
        *found, vecs = _levels(grid, lambda x: p * np.log(np.tanh(x)),
                               lambda x: (p * p + p - L2 ** 2 + 0.25) / np.cosh(x) ** 2 + 0.25)
    except ParameterError as exc:  # the wall exponent p overflows
        raise ParameterError(f"{exc} at alpha = {alpha}") from None
    bound = int((found[0] < 0.0).sum())  # ascending, so the bound levels come first
    if bound:
        v = vecs[:, 0] ** 2
        tail = float(v[int(0.95 * len(v)):].sum() / v.sum())
        if tail > 1e-8:
            warnings.warn(f"cutoff {grid.cutoff} clips the ground eigenfunction "
                          f"(tail mass {tail:.2e})", TruncationWarning)
    return EigenResult(*(tuple(x[:bound].tolist()) for x in found))


# Fixed window for sup-norm residuals: fractional wall exponents make high
# derivatives blow up at the walls, so the O(h^2) contract holds on a fixed
# interior region, not up to the boundary.
_THETA_WINDOW = (0.1, math.pi / 2 - 0.1)
_XI_WINDOW_FRACTION = (0.05, 0.8)


def _window(x: np.ndarray, lo: float, hi: float) -> tuple[int, int]:
    """Bounds i, j of the nodes x[i:j] in [lo, hi] with a node on either
    side; x ascends, so they are one contiguous range."""
    return max(np.searchsorted(x, lo), 1), min(np.searchsorted(x, hi, "right"), len(x) - 1)


def residual_on_grid(st: LabeledState, energy: RationalLike,
                     grid_theta: GridSpec, grid_xi: GridSpec) -> float:
    """Max |H_num f - E f| over the interior window, H_num by central FD.

    The Hamiltonian is applied with second-order finite differences to exact
    point evaluations of the state, so this check is independent of the
    symbolic derivative engine.
    """
    E = float(Fraction(energy))
    l0, l1, l2 = (float(v) for v in st.label.astuple())
    thetas, xis = grid_theta.nodes(), grid_xi.nodes()
    t0, t1 = _window(thetas, *_THETA_WINDOW)
    x0, x1 = _window(xis, *(r * grid_xi.cutoff for r in _XI_WINDOW_FRACTION))
    f = eval_grid(st.expr, thetas, xis)
    f0, right, left = f[t0:t1, x0:x1], f[t0:t1, x0 + 1:x1 + 1], f[t0:t1, x0 - 1:x1 - 1]
    d2t = (f[t0 + 1:t1 + 1, x0:x1] - 2 * f0 + f[t0 - 1:t1 - 1, x0:x1]) / grid_theta.h ** 2
    d2x = (right - 2 * f0 + left) / grid_xi.h ** 2
    d1x = (right - left) / (2 * grid_xi.h)
    th, xx = thetas[t0:t1, None], xis[None, x0:x1]
    hnum = (-d2x - d1x / np.tanh(xx)
            - (l2 ** 2 - 0.25) / np.cosh(xx) ** 2 * f0
            + (-d2t + ((l1 ** 2 - 0.25) / np.sin(th) ** 2
                       + (l0 ** 2 - 0.25) / np.cos(th) ** 2) * f0)
            / np.sinh(xx) ** 2)
    return float(np.max(np.abs(hnum - E * f0)))
