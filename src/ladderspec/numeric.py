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

import gc
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .algebra import RationalLike, eval_grid
from .operators import LabeledState


def _to_float(x) -> float:
    return float(x) if isinstance(x, float) else float(Fraction(x))

_CORRECTED_ROWS = 16


class ParameterError(ValueError):
    """Solver parameters outside the admissible range."""


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


def _frobenius_stencil(x: float, h: float, nu: float) -> tuple[float, float, float]:
    """Three-point weights for u''(x), exact on x^(nu+2k), k = 0, 1, 2.

    Wall sits at x = 0; the node adjacent to it uses the two-term basis since
    the Dirichlet value closes the third condition.
    """
    nodes = (x, x + h) if x - h <= 1e-14 else (x - h, x, x + h)
    powers = (nu, nu + 2, nu + 4)[:len(nodes)]
    a = np.array([[t ** p for t in nodes] for p in powers])
    b = np.array([p * (p - 1) * x ** (p - 2) for p in powers])
    w = [float(v) for v in np.linalg.solve(a, b)]
    return tuple([0.0] * (3 - len(w)) + w)


def _put_row(A: np.ndarray, M: np.ndarray, i: int, row: tuple) -> None:
    """Set row i of the banded pencil: A to row = (sub, main, super), M to e_i."""
    A[:, i] = row
    M[:, i] = 0.0, 1.0, 0.0


def _assemble(V: np.ndarray, h: float, nu_left: float,
              nu_right: Optional[float]) -> tuple[sps.csc_matrix, sps.csc_matrix]:
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
    m_rows = min(_CORRECTED_ROWS, n // 3)
    c = 1 / h ** 2
    off = -c + (1 / 12) * V  # entry (i, j), |i - j| = 1, reads V[j]
    A = np.array([np.r_[0.0, off[:-1]], 2 * c + (10 / 12) * V, np.r_[off[1:], 0.0]])
    M = np.array([np.full(n, 1 / 12), np.full(n, 10 / 12), np.full(n, 1 / 12)])
    for i in range(m_rows):
        wm, w0, wp = _frobenius_stencil(x[i], h, nu_left)
        _put_row(A, M, i, (-wm, -w0 + V[i], -wp))
    if nu_right is None:
        _put_row(A, M, n - 1, (-c, 2 * c + V[n - 1], 0.0))
    else:
        for i in range(n - m_rows, n):
            wm, w0, wp = _frobenius_stencil(h * (n + 1) - x[i], h, nu_right)
            _put_row(A, M, i, (-wp, -w0 + V[i], -wm))
    return tuple(sps.diags([b[0, 1:], b[1], b[2, :-1]], [-1, 0, 1], format="csc")
                 for b in (A, M))


def _solve(V: np.ndarray, grid: GridSpec, nu_left: float, nu_right: Optional[float],
           nev: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Ascending eigenvalues, eigenvector columns and residuals |Av - EMv|/|v|.

    Shift-invert Arnoldi at V.min() - 1 from a fixed start vector, which makes
    repeated solves bit-identical, though not on grids under about 64 points.
    eigs keeps its state, LU factor included, in a reference cycle, freed here.
    """
    A, M = _assemble(V, grid.h, nu_left, nu_right)
    vals, vecs = spla.eigs(A, k=min(nev, len(V) - 2), M=M, sigma=float(V.min()) - 1.0,
                           which="LM", v0=np.ones(len(V)))
    gc.collect(1)
    order = np.argsort(vals.real)
    vals, vecs = vals.real[order], vecs.real[:, order]
    res = [float(np.linalg.norm(A @ v - e * (M @ v)) / np.linalg.norm(v))
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
    vals, _, res = _solve(V, grid, L1 + 0.5, L0 + 0.5, nev)
    return EigenResult(tuple(vals), tuple(res), grid)


def solve_xi(l2: RationalLike | float, alpha: float, grid: GridSpec,
             nev: int = 8) -> EigenResult:
    """Discrete negative eigenvalues of the radial equation at given alpha.

    Solves -g'' - coth g' - (l2^2-1/4)/cosh^2 g + alpha/sinh^2 g = E g via the
    sinh^(1/2) similarity transform.  Only E < 0 entries are reported; the
    list is empty when the channel binds nothing.
    """
    L2 = _to_float(l2)
    a = float(alpha)
    if not a > 0:
        raise ParameterError(f"separation constant alpha must be positive, got {a}")
    if grid.variable != "xi":
        raise ParameterError("solve_xi needs a xi grid")
    x = grid.nodes()
    V = (a - 0.25) / np.sinh(x) ** 2 - (L2 ** 2 - 0.25) / np.cosh(x) ** 2 + 0.25
    vals, vecs, res = _solve(V, grid, math.sqrt(a) + 0.5, None, nev)
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
