"""Independent finite-difference eigensolver for the separated 1D equations.

Both solvers discretize on a uniform grid with Dirichlet walls.  Interior
rows use the Numerov three-point scheme (fourth order for smooth solutions).
The singular endpoint terms of the form (nu^2 - 1/4)/x^2 make eigenfunctions
behave like x^(nu+1/2) at a wall, so the first few rows next to each singular
wall are replaced by stencils that are exact on the leading Frobenius powers
{x^nu, x^(nu+2), x^(nu+4)} of the local solution.  Only the indicial exponent
of the differential equation enters; no spectral data from the operator
algebra is used, which keeps this module an independent oracle.

The radial equation in xi carries a first-derivative term; it is symmetrized
with the similarity transform u = sinh(xi)^(1/2) g, which shifts the
eigenvalue by exactly +1/4 and adds (alpha - 1/4)/sinh^2 - 1/4 to the
potential (in the form coded below).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import RationalLike, eval_grid
from .operators import LabeledState


_CORRECTED_ROWS = 16


class ParameterError(ValueError):
    """Solver parameters outside the admissible range."""


def _to_float(x, what: str = "labels") -> float:
    """x as a float; a string that is no exact rational, a non-finite x, or
    one beyond the float range, is a ParameterError that names it."""
    try:
        v = float(x) if isinstance(x, float) else float(Fraction(x))
    except OverflowError:
        v = math.inf
    except (ValueError, ZeroDivisionError):  # "nan", "abc", "1/0"
        raise ParameterError(f"{what} must be exact rationals or floats, got {x!r}") from None
    if not math.isfinite(v):
        raise ParameterError(f"{what} must be finite and in the float range, got {x}")
    return v


class TruncationWarning(UserWarning):
    """The box cutoff visibly clips the lowest eigenfunction."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid; theta spans (0, pi/2), xi spans (0, cutoff)."""

    variable: str
    n: int
    cutoff: float = 25.0

    def __post_init__(self):
        if self.variable not in ("theta", "xi"):
            raise ParameterError(f"variable must be 'theta' or 'xi', got {self.variable!r}")
        if self.n < 16:
            raise ParameterError(f"need n >= 16 interior points, got {self.n}")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ParameterError(f"cutoff must be finite and positive, got {self.cutoff}")

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
    eigenvalues: tuple[float, ...]
    residual_norms: tuple[float, ...]
    grid: GridSpec


def _frobenius_stencils(xs: np.ndarray, h: float, nu: float) -> np.ndarray:
    """Three-point weights (w-, w0, w+) for u''(x) at each x of xs, exact on
    x^(nu+2k), k = 0, 1, 2, as the rows of one stacked solve.

    Wall sits at x = 0.  At the node adjacent to it the Dirichlet value
    closes the third condition: the first equation sets the wall weight w-
    to 0, the other two make (w0, w+) exact on k = 0, 1.
    """
    powers = (nu, nu + 2, nu + 4)
    a, b = [], []
    for x in xs:
        rhs = [p * (p - 1) * x ** (p - 2) for p in powers]
        if x - h <= 1e-14:
            a.append([(1.0, 0.0, 0.0)] + [(0.0, x ** p, (x + h) ** p) for p in powers[:2]])
            b.append([0.0] + rhs[:2])
        else:
            a.append([[t ** p for t in (x - h, x, x + h)] for p in powers])
            b.append(rhs)
    return np.linalg.solve(np.array(a), np.array(b)[..., None])[..., 0]


def _assemble(V: np.ndarray, h: float, nu_left: float,
              nu_right: Optional[float]) -> tuple[np.ndarray, np.ndarray]:
    """Pencil (A, M) for -u'' + V u = E u with corrected wall rows.

    A and M are tridiagonal, each filled as a 3 x n band whose column i holds
    row i's (sub, main, super).  Numerov rows: A = (-1, 2, -1)/h^2 + M diag(V),
    M = (1, 10, 1)/12.  The first min(16, n//3) rows take the left wall's
    Frobenius stencil, the last as many the right wall's mirrored (weights
    reversed); with nu_right None only the last row is replaced, by the plain
    Dirichlet row at the xi cutoff.  A corrected row has the M row e_i.
    """
    n = len(V)
    x = h * np.arange(1, n + 1)
    m = min(_CORRECTED_ROWS, n // 3)
    c = 1 / h ** 2
    off = -c + (1 / 12) * V  # entry (i, j), |i - j| = 1, reads V[j]
    A = np.array([np.r_[0.0, off[:-1]], 2 * c + (10 / 12) * V, np.r_[off[1:], 0.0]])
    M = np.array([np.full(n, 1 / 12), np.full(n, 10 / 12), np.full(n, 1 / 12)])
    # right-wall weights reversed, as the wall is mirrored; the Dirichlet row
    # (-c, 2c + V, 0) is the reversed weights (c, -2c, 0)
    right = np.array([[c, -2 * c, 0.0]]) if nu_right is None \
        else _frobenius_stencils(h * (n + 1) - x[n - m:], h, nu_right)[:, ::-1]
    for cols, w in ((slice(0, m), _frobenius_stencils(x[:m], h, nu_left)),
                    (slice(n - len(right), n), right)):
        A[:, cols] = -w[:, 0], -w[:, 1] + V[cols], -w[:, 2]
        M[:, cols] = [[0.0], [1.0], [0.0]]
    return A, M


def _band_mul(B: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The product B v for a 3 x n band B as _assemble returns it."""
    out = B[1] * v
    out[1:] += B[0, 1:] * v[:-1]
    out[:-1] += B[2, :-1] * v[1:]
    return out


def _count_below(A: np.ndarray, M: np.ndarray, E: float) -> int:
    """Negative pivots of the tridiagonal A - E M, factored as LDU without
    pivoting (the Sturm count).

    A pivot with |d| <= pivmin is set to -pivmin, as LAPACK dstebz does, so a
    zero pivot cannot raise.  On Numerov rows A - E M = M (H - E) with
    H = M^-1 T + diag(V) symmetric, since M and T = (-1, 2, -1)/h^2 commute.
    When the off-diagonal products are positive, a diagonal similarity makes
    A - E M symmetric without changing its pivots, and M is positive
    definite, so by Sylvester's law of inertia the count is the number of
    levels of H below E (Parlett, The Symmetric Eigenvalue Problem, 3.3).
    The Frobenius wall rows break that proof.  With them the count has been
    checked only empirically, on 6634 xi channels at n = 2000 (l0 <= l1 in
    {0, 1/2, ..., 4}, l2 in {-4, -9/2, ..., -20}, each label's channels up
    to its first empty one): the count below 0 equals the closed-form
    number of bound levels (a level at the threshold E = 0 may fall on
    either side), and the count below V.min() - 1 is 0.
    """
    S = A - E * M
    prods = np.r_[0.0, S[0, 1:] * S[2, :-1]]
    pivmin = np.finfo(float).tiny * max(1.0, float(np.abs(prods).max()))
    count, d = 0, 1.0
    for a, p in zip(S[1].tolist(), prods.tolist()):
        d = a - p / d
        if d <= pivmin:
            count += 1
            if d > -pivmin:
                d = -pivmin
    return count


def _solve(A: np.ndarray, M: np.ndarray, nev: int,
           sigma: float) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Ascending real eigenvalues, eigenvector columns and |Av - EMv|/|v| of
    the pencil (A, M), as _assemble returns it.

    Shift-invert Arnoldi at sigma, which must lie below the wanted levels:
    A - sigma M is factored once (LAPACK gttrf; singular raises), ARPACK's
    standard mode finds the largest nu of (A - sigma M)^-1 M from a fixed
    start vector, and each gives the level sigma + 1/nu.  The Frobenius rows
    make the pencil non-symmetric, so a Ritz value with a nonzero imaginary
    part is dropped rather than reported as a level.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs
    from scipy.sparse.linalg import LinearOperator, eigs

    n = A.shape[1]
    S = A - sigma * M
    *lu, info = dgttrf(S[0, 1:], S[1], S[2, :-1])
    if info:
        raise ParameterError(f"shift {sigma} is an eigenvalue of the pencil")
    op = LinearOperator((n, n), lambda v: dgttrs(*lu, _band_mul(M, v))[0], dtype=float)
    nu, vecs = eigs(op, k=min(nev, n - 2), which="LM", v0=np.ones(n))
    vals = sigma + 1 / nu
    real = np.flatnonzero(vals.imag == 0.0)
    order = real[np.argsort(vals.real[real])]
    vals, vecs = vals.real[order], vecs.real[:, order]
    res = [float(np.linalg.norm(_band_mul(A, v) - e * _band_mul(M, v)) / np.linalg.norm(v))
           for e, v in zip(vals, vecs.T)]
    return vals, vecs, res


def solve_theta(l0: RationalLike | float, l1: RationalLike | float,
                grid: GridSpec, nev: int = 3) -> EigenResult:
    """Lowest eigenvalues of -f'' + (l1^2-1/4)/sin^2 + (l0^2-1/4)/cos^2.

    Regular on the quadrant for l0, l1 >= -1/2.  The exact values follow the
    ladder rule (1 + l0 + l1 + 2n)^2, which this solver knows nothing about.
    """
    L0, L1 = _to_float(l0), _to_float(l1)
    if L0 < -0.5 or L1 < -0.5:
        raise ParameterError(f"need l0, l1 >= -1/2, got ({L0}, {L1})")
    if grid.variable != "theta":
        raise ParameterError("solve_theta needs a theta grid")
    x = grid.nodes()
    V = (L1 ** 2 - 0.25) / np.sin(x) ** 2 + (L0 ** 2 - 0.25) / np.cos(x) ** 2
    # Hardy: the operator is >= 0 for l0, l1 >= -1/2, so -1 lies below every level
    vals, _, res = _solve(*_assemble(V, grid.h, L1 + 0.5, L0 + 0.5), nev, sigma=-1.0)
    return EigenResult(tuple(vals), tuple(res), grid)


def solve_xi(l2: RationalLike | float, alpha: float, grid: GridSpec) -> EigenResult:
    """Discrete negative eigenvalues of the radial equation at given alpha.

    Solves -g'' - coth g' - (l2^2-1/4)/cosh^2 g + alpha/sinh^2 g = E g via the
    sinh^(1/2) similarity transform.  Only E < 0 entries are reported; the
    list is empty when the channel binds nothing.  The pencil's levels in
    [V.min() - 1, 0) are counted first (_count_below); ARPACK is asked for
    that many, once, and not called at all on a channel that binds none.
    """
    L2 = _to_float(l2)
    a = _to_float(alpha, "separation constant alpha")
    if a <= 0:
        raise ParameterError(f"separation constant alpha must be positive, got {a}")
    if grid.variable != "xi":
        raise ParameterError("solve_xi needs a xi grid")
    x = grid.nodes()
    V = (a - 0.25) / np.sinh(x) ** 2 - (L2 ** 2 - 0.25) / np.cosh(x) ** 2 + 0.25
    # The data-free bound -l2^2 - 1/2 (Hardy on 1/sinh^2, cosh^-2 <= 1) lies
    # further from the levels than V.min() - 1: on the numeric benchmark
    # labels (n = 2000) it made these solves 2.5x slower and moved levels by
    # up to 5e-4 relative.
    sigma = float(V.min()) - 1.0
    A, M = _assemble(V, grid.h, math.sqrt(a) + 0.5, None)
    nev = _count_below(A, M, 0.0) - _count_below(A, M, sigma)
    if nev <= 0:
        return EigenResult((), (), grid)
    vals, vecs, res = _solve(A, M, nev, sigma)
    bound = int((vals < 0.0).sum())  # ascending, so the bound levels come first
    if bound:
        v = np.abs(vecs[:, 0]) ** 2
        tail = float(v[int(0.95 * len(v)):].sum() / v.sum())
        if tail > 1e-8:
            warnings.warn(f"cutoff {grid.cutoff} clips the ground eigenfunction "
                          f"(tail mass {tail:.2e})", TruncationWarning)
    return EigenResult(tuple(vals[:bound]), tuple(res[:bound]), grid)


# Fixed window for sup-norm residuals: fractional wall exponents make high
# derivatives blow up at the walls, so the O(h^2) contract holds on a fixed
# interior region, not up to the boundary.
_THETA_WINDOW = (0.1, math.pi / 2 - 0.1)
_XI_WINDOW_FRACTION = (0.05, 0.8)


def residual_on_grid(st: LabeledState, energy: RationalLike,
                     grid_theta: GridSpec, grid_xi: GridSpec) -> float:
    """Max |H_num f - E f| over the interior window, H_num by central FD.

    The Hamiltonian is applied with second-order finite differences to exact
    point evaluations of the state, so this check is independent of the
    symbolic derivative engine.
    """
    E = float(Fraction(energy))
    l0, l1, l2 = (float(v) for v in st.label.astuple())
    ht, hx = grid_theta.h, grid_xi.h
    thetas = grid_theta.nodes()
    xis = grid_xi.nodes()
    ti = np.where((thetas >= _THETA_WINDOW[0]) & (thetas <= _THETA_WINDOW[1]))[0]
    lo, hi = (_XI_WINDOW_FRACTION[0] * grid_xi.cutoff,
              _XI_WINDOW_FRACTION[1] * grid_xi.cutoff)
    xj = np.where((xis >= lo) & (xis <= hi))[0]
    ti = ti[(ti >= 1) & (ti < len(thetas) - 1)]
    xj = xj[(xj >= 1) & (xj < len(xis) - 1)]
    f = eval_grid(st.expr, thetas, xis)
    c, m = np.ix_(ti, xj)
    f0 = f[c, m]
    d2t = (f[np.ix_(ti + 1, xj)] - 2 * f0 + f[np.ix_(ti - 1, xj)]) / ht ** 2
    d2x = (f[np.ix_(ti, xj + 1)] - 2 * f0 + f[np.ix_(ti, xj - 1)]) / hx ** 2
    d1x = (f[np.ix_(ti, xj + 1)] - f[np.ix_(ti, xj - 1)]) / (2 * hx)
    th = thetas[ti][:, None]
    xx = xis[xj][None, :]
    hnum = (-d2x - d1x / np.tanh(xx)
            - (l2 ** 2 - 0.25) / np.cosh(xx) ** 2 * f0
            + (-d2t + ((l1 ** 2 - 0.25) / np.sin(th) ** 2
                       + (l0 ** 2 - 0.25) / np.cos(th) ** 2) * f0)
            / np.sinh(xx) ** 2)
    return float(np.max(np.abs(hnum - E * f0)))
