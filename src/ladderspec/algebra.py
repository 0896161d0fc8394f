"""Exact calculus over the trigonometric/hyperbolic monomial family.

Every wavefunction handled by this package is a finite sum of monomials

    c * cos(theta)^p * sin(theta)^q * cosh(xi)^r * sinh(xi)^s

with an exact rational coefficient c and exact rational exponents p, q, r, s.
The family is closed under the derivatives d/dtheta, d/dxi and under
multiplication by tan, cot, tanh, coth, sec, csc, so every ladder operator
maps the family into itself and all algebraic identities can be checked as
exact cancellations instead of floating-point comparisons.

Exponent tuples do not label functions uniquely: cos^2+sin^2 = 1 and
cosh^2-sinh^2 = 1 relate monomials whose exponents differ by even integers.
Expressions are therefore kept in a partial-fraction normal form in each
variable pair.  Every rewrite changes exponents by even integers, so each
exponent splits once into a residue in [0, 2) and an integer offset
(`_split`); the four residues fix a term's class and only the offsets are
rewritten.  With X = cos^2, Y = sin^2 the canonical trig factors of a class
are X^P (P in Z) or Y^-k (k >= 1); with T = sinh^2, R = cosh^2 the
canonical hyperbolic factors are T^S (S in Z) or R^-k (k >= 1).  The
reduction tables `_trig_table` and `_hyp_table` expand any offset pair into
canonical factors in closed form, with integer coefficients.  This makes
structural equality of normalized expressions coincide with equality of
functions.  That is what allows operator identities to be verified as
literally empty residuals.

Coordinates live on the quadrant 0 < theta < pi/2, 0 < xi < infinity, with
the invariant measure sinh(xi) dtheta dxi used by :func:`inner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

import numpy as np

RationalLike = Union[Fraction, int, str]


class DivergenceError(ValueError):
    """An integral does not converge; names the offending monomial."""


class DomainError(ValueError):
    """Evaluation requested outside the valid chart region."""


def rational(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and exact strings like '-5' or '1/2'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


class Monomial(NamedTuple):
    """One term c * cos^p sin^q cosh^r sinh^s with exact rational data."""

    coeff: Fraction
    p: Fraction
    q: Fraction
    r: Fraction
    s: Fraction

    @property
    def key(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p, self.q, self.r, self.s)

    def __str__(self) -> str:
        parts = [str(self.coeff)]
        for name, e in (("cos", self.p), ("sin", self.q),
                        ("cosh", self.r), ("sinh", self.s)):
            if e != 0:
                parts.append(f"{name}^({e})" if e.denominator != 1 or e < 0
                             else f"{name}^{e}")
        return "*".join(parts)


def monomial(coeff: RationalLike, p: RationalLike = 0, q: RationalLike = 0,
             r: RationalLike = 0, s: RationalLike = 0) -> "FunExpr":
    """Single-term expression; the main constructor used in tests."""
    return FunExpr.from_terms(
        [Monomial(rational(coeff), rational(p), rational(q),
                  rational(r), rational(s))])


def _split(e: Fraction) -> tuple[int, int, int]:
    """(n, d, k) with e = n/d + 2k, 0 <= n/d < 2 and n/d in lowest terms.

    n/d is the residue of e mod 2 and k its integer offset.  Int residues
    keep keys cheap to hash, unlike a Fraction residue.
    """
    n, d = e.numerator, e.denominator
    k = n // (2 * d)
    return n - 2 * d * k, d, k


@lru_cache(maxsize=None)
def _trig_table(P: int, Q: int) -> tuple[tuple[int, int, int], ...]:
    """X^P Y^Q with X = cos^2, Y = sin^2, X + Y = 1, as canonical terms.

    Returns (c, P', Q') with integer c such that X^P Y^Q = sum c X^P' Y^Q'
    and every X^P' Y^Q' canonical: Q' = 0, or P' = 0 and Q' <= -1.
    """
    if Q >= 0:  # Y^Q = (1 - X)^Q
        return tuple(((-1) ** j * math.comb(Q, j), P + j, 0)
                     for j in range(Q + 1))
    b = -Q
    if P == 0:
        return ((1, 0, Q),)
    if P < 0:  # mixed poles: partial fractions of 1/(X^a Y^b)
        a = -P
        return tuple((math.comb(a + b - i - 1, b - 1), -i, 0)
                     for i in range(1, a + 1)) \
            + tuple((math.comb(a + b - j - 1, a - 1), 0, -j)
                    for j in range(1, b + 1))
    # X^P / Y^b with X^P = (1 - Y)^P; powers Y^(j-b) >= 0 go back to X
    acc: dict[tuple[int, int], int] = {}
    for j in range(P + 1):
        c = (-1) ** j * math.comb(P, j)
        for c2, P2, Q2 in _trig_table(0, j - b):
            acc[P2, Q2] = acc.get((P2, Q2), 0) + c * c2
    return tuple((c, P2, Q2) for (P2, Q2), c in acc.items() if c)


@lru_cache(maxsize=None)
def _hyp_table(R: int, S: int) -> tuple[tuple[int, int, int], ...]:
    """cosh^2R sinh^2S, by cosh^2 - sinh^2 = 1, as canonical terms.

    Returns (c, R', S') with integer c such that
    cosh^2R sinh^2S = sum c cosh^2R' sinh^2S' and every term canonical:
    R' = 0, or S' = 0 and R' <= -1.  With U = -sinh^2 the relation reads
    U + cosh^2 = 1, which is the trig case with X = U and Y = cosh^2.
    """
    return tuple((-c if (S + U) % 2 else c, Rp, U)
                 for c, U, Rp in _trig_table(S, R))


@dataclass(frozen=True)
class FunExpr:
    """Canonical finite sum of monomials.

    Construction reduces every term to the partial-fraction normal form,
    merges equal exponent tuples, drops zero coefficients and sorts
    lexicographically on (p, q, r, s).  Within each residue class of
    (p, q, r, s) mod 2 the canonical terms are X^P or Y^-k (k >= 1) times
    T^S or R^-k (k >= 1), with X = cos^2, Y = sin^2, T = sinh^2,
    R = cosh^2 and integer offsets P, S.  Structural equality of the result
    coincides with equality of the represented functions.
    """

    terms: tuple[Monomial, ...] = ()

    @staticmethod
    def from_terms(terms: Iterable[Monomial]) -> "FunExpr":
        # keyed by the (n, d, offset) splits of p, q, r, s, see _split
        acc: dict[tuple[int, ...], Fraction] = {}
        for t in terms:
            coeff = t.coeff
            if not coeff:
                continue
            pn, pd, P = _split(t.p)
            qn, qd, Q = _split(t.q)
            rn, rd, R = _split(t.r)
            sn, sd, S = _split(t.s)
            hyp = _hyp_table(R, S)
            for ct, P2, Q2 in _trig_table(P, Q):
                for ch, R2, S2 in hyp:
                    k = (pn, pd, P2, qn, qd, Q2, rn, rd, R2, sn, sd, S2)
                    w = ct * ch
                    c = coeff if w == 1 else coeff * w
                    old = acc.get(k)
                    acc[k] = c if old is None else old + c
        merged = [Monomial(c, Fraction(pn + 2 * pd * P, pd),
                           Fraction(qn + 2 * qd * Q, qd),
                           Fraction(rn + 2 * rd * R, rd),
                           Fraction(sn + 2 * sd * S, sd))
                  for (pn, pd, P, qn, qd, Q, rn, rd, R, sn, sd, S), c
                  in acc.items() if c]
        merged.sort(key=lambda m: m.key)
        return FunExpr(tuple(merged))

    @staticmethod
    def zero() -> "FunExpr":
        return FunExpr()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FunExpr") -> "FunExpr":
        return FunExpr.from_terms(self.terms + other.terms)

    def __neg__(self) -> "FunExpr":
        return FunExpr(tuple(Monomial(-m.coeff, *m.key) for m in self.terms))

    def __sub__(self, other: "FunExpr") -> "FunExpr":
        return self + (-other)

    def __mul__(self, other: "FunExpr") -> "FunExpr":
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(Monomial(a.coeff * b.coeff, a.p + b.p, a.q + b.q,
                                    a.r + b.r, a.s + b.s))
        return FunExpr.from_terms(out)

    def scale(self, c: RationalLike) -> "FunExpr":
        c = rational(c)
        if c == 0:
            return FunExpr()
        return FunExpr(tuple(Monomial(m.coeff * c, *m.key) for m in self.terms))

    def shift_exponents(self, dp: RationalLike = 0, dq: RationalLike = 0,
                        dr: RationalLike = 0, ds: RationalLike = 0) -> "FunExpr":
        """Multiply by cos^dp sin^dq cosh^dr sinh^ds."""
        dp, dq = rational(dp), rational(dq)
        dr, ds = rational(dr), rational(ds)
        return FunExpr.from_terms(
            Monomial(m.coeff, m.p + dp, m.q + dq, m.r + dr, m.s + ds)
            for m in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.terms)


def d_theta(f: FunExpr) -> FunExpr:
    """Exact d/dtheta: each monomial maps to at most two."""
    out = []
    for m in f.terms:
        if m.p != 0:
            out.append(Monomial(-m.p * m.coeff, m.p - 1, m.q + 1, m.r, m.s))
        if m.q != 0:
            out.append(Monomial(m.q * m.coeff, m.p + 1, m.q - 1, m.r, m.s))
    return FunExpr.from_terms(out)


def d_xi(f: FunExpr) -> FunExpr:
    """Exact d/dxi: each monomial maps to at most two."""
    out = []
    for m in f.terms:
        if m.r != 0:
            out.append(Monomial(m.r * m.coeff, m.p, m.q, m.r - 1, m.s + 1))
        if m.s != 0:
            out.append(Monomial(m.s * m.coeff, m.p, m.q, m.r + 1, m.s - 1))
    return FunExpr.from_terms(out)


def _pow(base: float, e: Fraction) -> float:
    if e == 0:
        return 1.0
    if base == 0.0:
        if e < 0:
            raise DomainError(f"zero base with negative exponent {e}")
        return 0.0
    return math.pow(base, float(e))


def eval_at(f: FunExpr, theta: float, xi: float) -> float:
    """Floating evaluation; boundary points only if no negative exponent hits."""
    ct, st = math.cos(theta), math.sin(theta)
    ch, sh = math.cosh(xi), math.sinh(xi)
    total = 0.0
    for m in f.terms:
        total += float(m.coeff) * _pow(ct, m.p) * _pow(st, m.q) \
            * _pow(ch, m.r) * _pow(sh, m.s)
    return total


def eval_grid(f: FunExpr, thetas: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on the tensor grid thetas x xis."""
    ct, st = np.cos(thetas), np.sin(thetas)
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


def _log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def _check_walls(m: Monomial) -> None:
    # wall exponents are intrinsic data of the normal form, so a per-term
    # check decides true convergence at theta = 0, pi/2 and xi = 0
    if not m.q > -1:
        raise DivergenceError(f"sin exponent q={m.q} <= -1 in term {m}")
    if not m.p > -1:
        raise DivergenceError(f"cos exponent p={m.p} <= -1 in term {m}")
    if not m.s > -2:
        raise DivergenceError(f"sinh exponent s={m.s} <= -2 in term {m}")


def _gen_binomial(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= (x - j)
        out /= (j + 1)
    return out


def _slot_coefficient(f: FunExpr, gamma: Fraction) -> FunExpr:
    """Theta-profile of the e^(gamma*xi) term in the large-xi expansion.

    cosh^r sinh^s = 2^-(r+s) e^((r+s) xi) (1+u)^r (1-u)^s with u = e^(-2 xi),
    so the term contributes at gamma = r+s-2k with weight 2^-(r+s) times a
    rational binomial convolution.  Terms meeting one slot share r+s mod 2,
    so the common irrational factor 2^-gamma is dropped and the profile
    stays exact.  The normal form can place growing monomials into
    expressions that decay as functions; growth is real only if some slot
    profile is nonzero.
    """
    out: list[Monomial] = []
    for m in f.terms:
        g = m.r + m.s
        step = (g - gamma) / 2
        if step.denominator != 1 or step < 0:
            continue
        k = int(step)
        w = sum(_gen_binomial(m.r, j) * _gen_binomial(m.s, k - j) * (-1) ** (k - j)
                for j in range(k + 1))
        if w:
            out.append(Monomial(m.coeff * w * Fraction(1, 4) ** k, m.p, m.q,
                                Fraction(0), Fraction(0)))
    return FunExpr.from_terms(out)


def _growth_slots(f: FunExpr, floor: Fraction) -> list[Fraction]:
    """All candidate growth exponents gamma >= floor, descending."""
    slots: set[Fraction] = set()
    for m in f.terms:
        g = m.r + m.s
        while g >= floor:
            slots.add(g)
            g -= 2
    return sorted(slots, reverse=True)


def xi_growth_bounded_by(f: FunExpr, bound: Fraction) -> bool:
    """True when the large-xi growth exponent of f is strictly below bound."""
    return all(_slot_coefficient(f, g).is_zero
               for g in _growth_slots(f, bound))


def _lower_growth(terms: list[Monomial]) -> list[Monomial]:
    """Rewrite so every term satisfies r+s < -1, exactly.

    The normal form may carry monomials of matching growth whose theta
    profiles cancel; such a pack is recombined through the telescoping
    identity cosh^2k - sinh^2k = sum_m cosh^2m sinh^(2k-2-2m), which lowers
    r+s by two per pass.  Only packs inside one exponent class mod 2 can be
    recombined; anything else that still grows is a genuine obstruction.
    """
    work = list(terms)
    while True:
        gmax = max((m.r + m.s for m in work), default=Fraction(-2))
        if gmax < -1:
            return work
        top = [m for m in work if m.r + m.s == gmax]
        rest = [m for m in work if m.r + m.s != gmax]
        packs: dict[tuple, list[Monomial]] = {}
        for m in top:
            packs.setdefault((_split(m.r)[:2], _split(m.s)[:2]), []).append(m)
        new_terms: list[Monomial] = []
        for pack in packs.values():
            profile = FunExpr.from_terms(
                Monomial(m.coeff, m.p, m.q, Fraction(0), Fraction(0)) for m in pack)
            if not profile.is_zero:
                raise DivergenceError(
                    f"large-xi growth exponent {gmax} with profile {profile}")
            anchor = max(pack, key=lambda m: m.r)
            for m in pack:
                k = (anchor.r - m.r) / 2
                assert k.denominator == 1 and k >= 0
                # k = 0 terms (anchor included) are fully absorbed by the
                # cancelling profile
                for j in range(int(k)):
                    new_terms.append(Monomial(-m.coeff, m.p, m.q,
                                              m.r + 2 * j, anchor.s + 2 * (int(k) - 1 - j)))
        work = rest + new_terms


def integral(f: FunExpr) -> float:
    """Integral of f over the quadrant against the measure sinh(xi) dtheta dxi.

    Term by term,

        int cos^p sin^q dtheta       = B((q+1)/2, (p+1)/2) / 2
        int cosh^r sinh^(s+1) dxi    = B((s+2)/2, -(r+s+1)/2) / 2

    via log-Gamma, so each term is accurate to ~1e-15 relative.  Terms whose
    individual growth would diverge are first recombined exactly; a genuine
    divergence raises with the offending term or growth profile.
    """
    terms = list(f.terms)
    for m in terms:
        _check_walls(m)
    if any(m.r + m.s >= -1 for m in terms):
        for g in _growth_slots(f, Fraction(-1)):
            prof = _slot_coefficient(f, g)
            if not prof.is_zero:
                raise DivergenceError(
                    f"large-xi growth exponent {g} with profile {prof}")
        terms = _lower_growth(terms)
    total = 0.0
    for m in terms:
        lb = _log_beta(float(m.q + 1) / 2, float(m.p + 1) / 2) \
            + _log_beta(float(m.s + 2) / 2, -float(m.r + m.s + 1) / 2)
        total += float(m.coeff) * 0.25 * math.exp(lb)
    return total


def inner(a: FunExpr, b: FunExpr) -> float:
    """Inner product int a*b sinh(xi) dxi dtheta over the quadrant."""
    return integral(a * b)


def norm_squared(f: FunExpr) -> float:
    return inner(f, f)


def is_normalizable(f: FunExpr) -> bool:
    """True when inner(f, f) converges.

    Wall behavior is read off the terms (intrinsic in the normal form); the
    large-xi growth is decided from the exact asymptotic slots, which is
    immune to cancelling growth between terms of the normal form.
    """
    for m in f.terms:
        if not (m.q > Fraction(-1, 2) and m.p > Fraction(-1, 2) and m.s > -1):
            return False
    return xi_growth_bounded_by(f, Fraction(-1, 2))
