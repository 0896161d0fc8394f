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
(`_split`).  A `FunExpr` stores exactly that split: residue class (the four
residues as eight ints) -> {int offsets (P, Q, R, S): coefficient}, and its
operations work on the ints.  A product adds the residues once per pair of
classes (`_class_sum`, which carries into the offsets) and the offsets per
pair of terms, on integer numerators over each operand's lcm denominator,
and a square visits each unordered pair of terms once.  Every sum,
difference and multiple of expressions is one merge, `_combine`: first plus
a sum of c g, in one accumulator pruned once.  Every other linear map is
one pass of the kernel `_linear` over rules (exponent slot or None, factor,
class and offsets of a multiplier cos^dp sin^dq cosh^dr sinh^ds): a term
goes to factor times the slot's exponent, if any, times the term times the
multiplier, into one accumulator pruned once.  d/dtheta and d/dxi are two
slot rules each (`D_THETA`, `D_XI`), `from_terms` the identity rule on the
raw sum of its input, and operators.py compiles the ladder generators, the
Hamiltonian and the 1D factor operators into such rules.  So coefficient
arithmetic happens in three kernels, `_linear` with `_expand`, `_combine`
and `__mul__`, each of which builds its result through `_pruned`, the one
constructor that drops zero coefficients.  With
X = cos^2, Y = sin^2 the canonical trig factors of a class are X^P (P in Z)
or Y^-k (k >= 1); with T = sinh^2, R = cosh^2 the canonical hyperbolic
factors are T^S (S in Z) or R^-k (k >= 1).  The reduction tables
`_trig_table` and `_hyp_table` expand any offset pair into canonical factors
in closed form, with integer coefficients, and `_canonical` caches their
product per offsets tuple for `_expand`.  This makes structural equality
of normalized expressions coincide with equality of functions.  That is what
allows operator identities to be verified as literally empty residuals.
The term order is stated once, in `_class_terms`: (class, offsets,
coefficient) triples, lexicographic on (p, q, r, s).  The Fraction view
`FunExpr.terms` is built from it and serves printing and input; the engine
reads only `classes`.  Every error about a term names the first offending
term in that order, found by the one search `_first_term`, which sorts only
after an unsorted pass has found a hit: the convergence checks
(`_divergence`), evaluation (`_term_factors`) and the variable check of
operators.py's 1D operators.  Evaluation raises `DomainError` for a
negative offset on a zero base (sin at theta = 0, cos at pi/2, sinh at
xi = 0) and writes cosh^r sinh^s as cosh^(r+s) tanh^s, so a decaying term
underflows to 0 where cosh overflows.  `integral` has one row path: the
class terms in that order, each valued by its Beta functions, continued
analytically where the term grows (`_continued_beta`), summed as floats.
Only `eval_grid` works on float arrays, so it alone imports numpy, in its
body: the exact algebra loads without it.

Coordinates live on the quadrant 0 < theta < pi/2, 0 < xi < infinity, with
the invariant measure sinh(xi) dtheta dxi used by :func:`inner`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Union

if TYPE_CHECKING:
    import numpy as np

RationalLike = Union[Fraction, int, str]
# residues (pn, pd, qn, qd, rn, rd, sn, sd) of (p, q, r, s) mod 2, see _split
ResidueClass = tuple[int, int, int, int, int, int, int, int]
Offsets = tuple[int, int, int, int]
Classes = dict[ResidueClass, dict[Offsets, Fraction]]
Term = tuple[ResidueClass, Offsets, Fraction]


class DivergenceError(ValueError):
    """An integral does not converge; names the offending monomial."""


class DomainError(ValueError):
    """Evaluation requested outside the valid chart region."""


def rational(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and exact strings like '-5' or '1/2'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"invalid rational {x!r}: zero denominator") from None
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


def _split_key(key: Iterable[Fraction]) -> tuple[ResidueClass, Offsets]:
    """The residue class and offsets of the exponents (p, q, r, s)."""
    (pn, pd, P), (qn, qd, Q), (rn, rd, R), (sn, sd, S) = map(_split, key)
    return (pn, pd, qn, qd, rn, rd, sn, sd), (P, Q, R, S)


@lru_cache(maxsize=None)
def _exponent(n: int, d: int, k: int, num: int = 1, den: int = 1) -> Fraction:
    """num/den times the exponent n/d + 2k, inverse to `_split`."""
    return Fraction(num * (n + 2 * d * k), den * d)


def _monomial(cls: ResidueClass, offs: Offsets, c: Fraction) -> Monomial:
    """The term c * X^P Y^Q R^R T^S of class `cls` as a Monomial."""
    pn, pd, qn, qd, rn, rd, sn, sd = cls
    P, Q, R, S = offs
    return Monomial(c, _exponent(pn, pd, P), _exponent(qn, qd, Q),
                    _exponent(rn, rd, R), _exponent(sn, sd, S))


def _class_terms(classes: Classes) -> list[Term]:
    """The terms (class, offsets, coefficient) of `classes` in the one term
    order, lexicographic on the exponents (p, q, r, s).

    p = 2P + n/d with 0 <= n/d < 2, so (P, n/d) per slot orders the
    exponents as (p, q, r, s) does, exactly.  The keys are distinct, so the
    sort compares no offsets tuple and no coefficient.
    """
    keyed = []
    for cls, row in classes.items():
        pn, pd, qn, qd, rn, rd, sn, sd = cls
        fp, fq, fr, fs = (_exponent(pn, pd, 0), _exponent(qn, qd, 0),
                          _exponent(rn, rd, 0), _exponent(sn, sd, 0))
        for offs, c in row.items():
            P, Q, R, S = offs
            keyed.append(((P, fp, Q, fq, R, fr, S, fs), cls, offs, c))
    keyed.sort()
    return [t[1:] for t in keyed]


def _first_term(f: FunExpr, bad: Callable[[ResidueClass, Offsets], bool]) -> Monomial | None:
    """The first term of f in the order of `_class_terms` for which
    bad(class, offsets) holds, or None.  The classes are sorted only after
    an unsorted scan finds a hit, so a clean f costs one pass."""
    if any(bad(cls, offs) for cls, row in f.classes.items() for offs in row):
        return next(_monomial(*t) for t in _class_terms(f.classes) if bad(t[0], t[1]))
    return None


@lru_cache(maxsize=None)
def _class_sum(a: ResidueClass, b: ResidueClass) -> tuple[ResidueClass, Offsets]:
    """The residue class of a + b and the offsets it carries (0 or 1 each)."""
    cls: list[int] = []
    carry: list[int] = []
    for i in (0, 2, 4, 6):
        n, d, k = _split(Fraction(a[i], a[i + 1]) + Fraction(b[i], b[i + 1]))
        cls += (n, d)
        carry.append(k)
    return tuple(cls), tuple(carry)


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


@lru_cache(maxsize=None)
def _canonical(P: int, Q: int, R: int, S: int) -> tuple[tuple[int, Offsets], ...]:
    """X^P Y^Q R^R T^S as (weight, canonical offsets) pairs: the product of
    `_trig_table` and `_hyp_table`, trig terms outer."""
    hyp = _hyp_table(R, S)
    return tuple((ct * ch, (P2, Q2, R2, S2))
                 for ct, P2, Q2 in _trig_table(P, Q) for ch, R2, S2 in hyp)


def _expand(acc: dict[Offsets, Fraction | int], P: int, Q: int, R: int, S: int,
            c: Fraction | int) -> None:
    """Add c X^P Y^Q R^R T^S of one class to `acc` in canonical offsets."""
    for w, k in _canonical(P, Q, R, S):
        c2 = c if w == 1 else c * w
        old = acc.get(k)
        acc[k] = c2 if old is None else old + c2


class FunExpr:
    """Canonical finite sum of monomials.

    `classes` maps each residue class of (p, q, r, s) mod 2 to its terms,
    {(P, Q, R, S): coefficient}; all but raw `FunExpr(terms)` keep nonzero
    coefficients only.  Within a class the canonical terms are X^P or Y^-k
    (k >= 1) times T^S or R^-k (k >= 1), with X = cos^2, Y = sin^2,
    T = sinh^2, R = cosh^2 and integer offsets P, S.  Equal functions have
    equal `classes`.  `terms` is the same sum as Monomials in the one term
    order of `_class_terms`, lexicographic on (p, q, r, s), built on first
    use; only printing reads it.  Instances are immutable by convention.
    """

    __slots__ = ("classes", "_terms")

    def __init__(self, terms: Iterable[Monomial] = ()) -> None:
        """Wrap `terms` as written, without reducing them (`from_terms`
        reduces).  `terms` reads them back unchanged and `classes` holds
        their sum; arithmetic, `==`, `hash` and `integral` read `classes`,
        so they are exact only for terms already in normal form."""
        self._terms: tuple[Monomial, ...] | None = tuple(terms)
        self.classes: Classes = {}
        for m in self._terms:
            cls, offs = _split_key(m.key)
            row = self.classes.setdefault(cls, {})
            row[offs] = row.get(offs, 0) + m.coeff

    @staticmethod
    def _pruned(acc: Classes, den: int = 0) -> "FunExpr":
        """The expression of `acc`, a map with canonical offsets whose sums
        may have cancelled: zero coefficients and empty classes drop.  With
        `den`, acc holds integer numerators over den, and only the nonzero
        ones become Fractions.  The one constructor of `_linear`, `_combine`
        and `__mul__` results."""
        rows = ((cls, {k: Fraction(c, den) if den else c for k, c in row.items() if c})
                for cls, row in acc.items())
        f = object.__new__(FunExpr)
        f.classes, f._terms = {cls: row for cls, row in rows if row}, None
        return f

    @staticmethod
    def from_terms(terms: Iterable[Monomial]) -> "FunExpr":
        """The normal form of the sum of `terms`: the raw sum, reduced by
        the identity rule of `_linear`."""
        return _linear((FunExpr(terms), _IDENTITY))

    @property
    def terms(self) -> tuple[Monomial, ...]:
        if self._terms is None:
            self._terms = tuple(_monomial(*t) for t in _class_terms(self.classes))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.classes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunExpr):
            return NotImplemented
        return self.classes == other.classes

    def __hash__(self) -> int:
        return hash(frozenset((cls, frozenset(row.items()))
                              for cls, row in self.classes.items()))

    def __repr__(self) -> str:
        return f"FunExpr(terms={self.terms!r})"

    def __add__(self, other: "FunExpr") -> "FunExpr":
        return _combine(self, (other, 1))

    def __neg__(self) -> "FunExpr":
        return self.scale(-1)

    def __sub__(self, other: "FunExpr") -> "FunExpr":
        return _combine(self, (other, -1))

    def _numerators(self) -> tuple[list[tuple[ResidueClass, list[tuple[Offsets, int]]]], int]:
        """The classes as integer numerators over their lcm denominator."""
        den = math.lcm(*{c.denominator for row in self.classes.values() for c in row.values()})
        return [(cls, [(k, c.numerator * (den // c.denominator)) for k, c in row.items()])
                for cls, row in self.classes.items()], den

    def __mul__(self, other: "FunExpr") -> "FunExpr":
        """The product on integer numerators, one Fraction per output term.

        A square (`other is self`) visits each unordered pair of terms once:
        the pair of a term with itself as is, every other pair doubled.
        """
        square = other is self
        rows_a, den_a = self._numerators()
        rows_b, den_b = (rows_a, den_a) if square else other._numerators()
        twice = [[(k, 2 * n) for k, n in row] for _, row in rows_b] if square else []
        out: dict[ResidueClass, dict[Offsets, int]] = {}
        for i, (ca, row_a) in enumerate(rows_a):
            for j in range(i if square else 0, len(rows_b)):
                cb, row_b = rows_b[j]
                cls, (kP, kQ, kR, kS) = _class_sum(ca, cb)
                acc = out.setdefault(cls, {})
                for t, ((Pa, Qa, Ra, Sa), x) in enumerate(row_a):
                    Pa, Qa, Ra, Sa = Pa + kP, Qa + kQ, Ra + kR, Sa + kS
                    pairs = row_b if not square else twice[j] if j > i \
                        else row_b[t:t + 1] + twice[j][t + 1:]
                    for (Pb, Qb, Rb, Sb), y in pairs:
                        _expand(acc, Pa + Pb, Qa + Qb, Ra + Rb, Sa + Sb, x * y)
        return FunExpr._pruned(out, den_a * den_b)

    def scale(self, c: RationalLike) -> "FunExpr":
        return _combine(FunExpr(), (self, rational(c)))

    def __str__(self) -> str:
        if not self.classes:
            return "0"
        return " + ".join(str(m) for m in self.terms)


@lru_cache(maxsize=None)
def _multiplier(shift: tuple[RationalLike, ...]) -> tuple[ResidueClass, Offsets]:
    """Class and offsets of cos^dp sin^dq cosh^dr sinh^ds, shift = (dp, dq, dr, ds)."""
    return _split_key(map(rational, shift))


def _rules(raw: Iterable[tuple], factor: RationalLike = 1,
           shift: tuple[int, ...] = (0, 0, 0, 0)) -> tuple[tuple, ...]:
    """Compile (slot or None, factor, shift) triples into `_linear` rules
    (slot or None, factor, class, offsets) of the multiplier cos^dp sin^dq
    cosh^dr sinh^ds, shift = (dp, dq, dr, ds), all times `factor` and the
    multiplier of `shift`; zero factors drop."""
    return tuple((i, rational(a) * factor) + _multiplier(tuple(x + y for x, y in zip(sh, shift)))
                 for i, a, sh in raw if a)


@lru_cache(maxsize=None)
def _target(cls: ResidueClass, dcls: ResidueClass, doffs: Offsets) -> tuple:
    """(class, P, Q, R, S) of a term of class `cls` times the multiplier of
    class `dcls` and offsets `doffs`: the class sum and the offsets to add,
    its carry plus `doffs`."""
    new, carry = _class_sum(cls, dcls)
    return (new,) + tuple(x + y for x, y in zip(carry, doffs))


def _linear(*parts: tuple[FunExpr, tuple[tuple, ...]]) -> FunExpr:
    """The sum over parts (f, rules) of each rule applied to f.

    A rule (i, a, cls, offs) maps a term c m of f to c a m times the
    multiplier of class `cls` and offsets `offs`, and also times the
    exponent of m at slot i when i is not None; with m's exponent at i zero
    the term drops.  So a derivative, a multiplication by a monomial and any
    first-order operator with monomial coefficients are one pass: every
    image goes through `_expand` into one accumulator, pruned once.  The
    target of a (class, rule) pair is one cached lookup (`_target`), and a
    rule factor of 1 multiplies nothing.
    """
    out: Classes = {}
    for f, rules in parts:
        for cls, row in f.classes.items():
            for i, a, dcls, doffs in rules:
                new, tP, tQ, tR, tS = _target(cls, dcls, doffs)
                acc = out.setdefault(new, {})
                if i is None:
                    unit = a == 1
                    for (P, Q, R, S), c in row.items():
                        _expand(acc, P + tP, Q + tQ, R + tR, S + tS, c if unit else c * a)
                    continue
                n, d, an, ad = cls[2 * i], cls[2 * i + 1], a.numerator, a.denominator
                for k, c in row.items():
                    if n or k[i]:
                        _expand(acc, k[0] + tP, k[1] + tQ, k[2] + tR, k[3] + tS,
                                c * _exponent(n, d, k[i], an, ad))
    return FunExpr._pruned(out)


def _combine(first: FunExpr, *parts: tuple[FunExpr, RationalLike]) -> FunExpr:
    """first + the sum over parts (g, c) of c g, for canonical expressions.

    One accumulator, pruned once: the keys of `first` keep their order and
    new keys follow in order of appearance, as `eval_at` sums in that order.
    """
    out = {cls: dict(row) for cls, row in first.classes.items()}
    for g, c in parts:
        unit, neg = c == 1, c == -1
        for cls, row in g.classes.items():
            acc = out.setdefault(cls, {})
            for k, v in row.items():
                old = acc.get(k)
                if neg:
                    acc[k] = -v if old is None else old - v
                    continue
                v = v if unit else v * c
                acc[k] = v if old is None else old + v
    return FunExpr._pruned(out)


_IDENTITY = _rules([(None, 1, (0, 0, 0, 0))])


# d/dtheta cos^p sin^q = -p cos^(p-1) sin^(q+1) + q cos^(p+1) sin^(q-1) and
# d/dxi cosh^r sinh^s = r cosh^(r-1) sinh^(s+1) + s cosh^(r+1) sinh^(s-1),
# as (slot, factor, shift); operators.py composes them with multipliers
D_THETA = ((0, -1, (-1, 1, 0, 0)), (1, 1, (1, -1, 0, 0)))
D_XI = ((2, 1, (0, 0, -1, 1)), (3, 1, (0, 0, 1, -1)))
_D_THETA, _D_XI = _rules(D_THETA), _rules(D_XI)


def d_theta(f: FunExpr) -> FunExpr:
    """Exact d/dtheta: each monomial maps to at most two."""
    return _linear((f, _D_THETA))


def d_xi(f: FunExpr) -> FunExpr:
    """Exact d/dxi: each monomial maps to at most two."""
    return _linear((f, _D_XI))


# sin at theta = 0, cos at pi/2, sinh at xi = 0: slot, names, integral bound
_WALLS = ((1, "sin", "q", -1), (0, "cos", "p", -1), (3, "sinh", "s", -2))


def _term_factors(f: FunExpr, ct, st, th, lc, zero: tuple, exp: Callable):
    """(c, theta factor, xi factor) per term from ct, st, th = cos, sin, tanh
    and lc = log cosh, all floats or all arrays; a negative offset on a wall
    whose base is 0 somewhere (`zero`) raises, naming the first such term of
    the first such wall in `_WALLS` order.  cosh^(r+s) = exp((r+s) lc)."""
    for hit, (i, name, sym, _) in zip(zero, _WALLS):
        m = _first_term(f, lambda cls, offs: offs[i] < 0) if hit else None
        if m:
            raise DomainError(f"negative exponent {sym}={m.key[i]} where {name} is 0, in term {m}")
    for cls, row in f.classes.items():
        pn, pd, qn, qd, rn, rd, sn, sd = cls
        trig, hyp, rs = ct ** (pn / pd) * st ** (qn / qd), th ** (sn / sd), rn / rd + sn / sd
        for (P, Q, R, S), c in row.items():  # residue powers per class, integer ones per term
            a = trig * ct ** (2 * P) * st ** (2 * Q) if P or Q else trig
            b = hyp * th ** (2 * S) if S else hyp
            yield c.numerator / c.denominator, a, b * exp((rs + 2 * (R + S)) * lc)


def eval_at(f: FunExpr, theta: float, xi: float) -> float:
    """Floating evaluation on the closed quadrant; a wall point only if no
    negative exponent hits it.  cos is exactly 0 at theta = pi/2, not 6e-17."""
    if not (0.0 <= theta <= math.pi / 2 and xi >= 0.0):
        raise DomainError(f"point (theta={theta}, xi={xi}) is off the chart "
                          "0 <= theta <= pi/2, xi >= 0")
    ct, st, th = math.cos(theta) * (theta != math.pi / 2), math.sin(theta), math.tanh(xi)
    lc = xi + math.log1p(math.exp(-2.0 * xi)) - math.log(2.0)
    try:
        total = sum((c * a * b for c, a, b in _term_factors(
            f, ct, st, th, lc, (st == 0.0, ct == 0.0, th == 0.0), math.exp)), 0.0)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"f is not finite at (theta={theta}, xi={xi})")
    return total


def eval_grid(f: FunExpr, thetas: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """`eval_at` on the grid thetas x xis, as a sum of per-term outer products."""
    import numpy as np

    thetas, xis = np.asarray(thetas, dtype=float), np.asarray(xis, dtype=float)
    lo, hi, xlo = thetas.min(initial=1.0), thetas.max(initial=1.0), xis.min(initial=1.0)
    if not (0.0 <= lo and hi <= math.pi / 2 and xlo >= 0.0):  # NaN too; empty grids pass
        on_t, on_x = (thetas >= 0.0) & (thetas <= math.pi / 2), xis >= 0.0
        eval_at(f, thetas[np.argmin(on_t)], xis[np.argmin(on_x)])  # raises at the first
    ct, st, th = np.cos(thetas) * (thetas != math.pi / 2), np.sin(thetas), np.tanh(xis)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = list(_term_factors(f, ct, st, th, np.logaddexp(xis, -xis) - math.log(2.0),
                                   (lo == 0.0, hi == math.pi / 2, xlo == 0.0), np.exp))
        a = np.array([c * a for c, a, _ in terms]).reshape(len(terms), len(thetas))
        b = np.array([b for _, _, b in terms]).reshape(len(terms), len(xis))
        out = np.dot(a.T, b)  # matmul takes a slow path at one term
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise DomainError(f"f is not finite at (theta={thetas[i]}, xi={xis[j]})")
    return out


def _log_beta(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def _growth_profiles(f: FunExpr, k: int) -> dict[Fraction, Classes]:
    """Theta-profiles of the slots e^(gamma*xi), k*gamma >= -1, of large xi.

    cosh^r sinh^s = 2^-(r+s) e^((r+s) xi) (1+u)^r (1-u)^s with u = e^(-2 xi),
    so a term contributes c*w_j/4^j at gamma = r+s-2j, with w_j the u^j
    coefficient of (1+u)^r (1-u)^s.  Terms meeting one slot share r+s mod 2,
    so the common irrational factor 2^-gamma is dropped and the profile
    stays exact.  A profile term keeps its class's trig residues and its
    (P, Q), which are canonical already.  The normal form can place growing
    monomials into expressions that decay as functions; growth is real only
    if some slot profile is nonzero.
    """
    slots: dict[Fraction, Classes] = {}
    for cls, row in f.classes.items():
        rn, rd, sn, sd = cls[4:]
        trig = cls[:4] + (0, 1, 0, 1)
        for (P, Q, R, S), c in row.items():
            if k * (rn * sd + sn * rd + 2 * (R + S) * rd * sd) < -rd * sd:
                continue  # k*(r+s) < -1: no slot at or above -1/k
            r, s = _exponent(rn, rd, R), _exponent(sn, sd, S)
            top = math.floor((k * (r + s) + 1) / (2 * k))
            a, b = [Fraction(1)], [Fraction(1)]  # (1+u)^r and (1-u)^s
            for j in range(top):
                a.append(a[j] * (r - j) / (j + 1))
                b.append(-b[j] * (s - j) / (j + 1))
            for j in range(top + 1):
                w = sum(a[i] * b[j - i] for i in range(j + 1))
                if w:
                    acc = slots.setdefault(r + s - 2 * j, {}).setdefault(trig, {})
                    acc[P, Q, 0, 0] = acc.get((P, Q, 0, 0), 0) + c * w / 4 ** j
    return slots


def _divergence(f: FunExpr, k: int) -> str | None:
    """Why int f^k sinh(xi) dtheta dxi over the quadrant diverges, or None.

    Wall exponents are intrinsic data of the normal form, so a per-term
    test decides convergence at theta = 0, pi/2 and xi = 0: each exponent
    n/d + 2K must exceed bound/k.  The large-xi growth is decided on the
    exact slot profiles, which is immune to cancelling growth between terms
    of the normal form.  A wall message names the first offending term in
    the term order (`_first_term`, one unsorted pass on a clean f, since
    `is_normalizable` checks every walk image) and its first wall in
    `_WALLS` order, so equal functions give equal messages.
    """
    def on_wall(cls: ResidueClass, offs: Offsets) -> bool:
        for i, _, _, bound in _WALLS:
            if k * (cls[2 * i] + 2 * cls[2 * i + 1] * offs[i]) <= bound * cls[2 * i + 1]:
                return True
        return False

    m = _first_term(f, on_wall)
    if m:
        i, name, sym, bound = next(w for w in _WALLS if k * m.key[w[0]] <= w[3])
        return f"{name} exponent {sym}={m.key[i]} <= {Fraction(bound, k)} in term {m}"
    slots = _growth_profiles(f, k)
    for gamma in sorted(slots, reverse=True):
        profile = FunExpr._pruned(slots[gamma])
        if not profile.is_zero:
            return f"large-xi growth exponent {gamma} with profile {profile}"
    return None


def _gamma_sign(x: Fraction) -> int:
    """Sign of Gamma(x) off its poles: +1 above 0, (-1)^ceil(-x) below."""
    return 1 if x > 0 or math.floor(x) % 2 == 0 else -1


def _continued_beta(a: float, b: Fraction, c: Fraction) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(c), c = a + b, continued from b > 0
    to b <= 0 with a > 0 fixed (DLMF 5.12.1), through log|Gamma| and signs.

    At a pole b = -n it is the finite part at b + delta, c + delta, from
    Gamma(-n + delta) = (-1)^n / n! (1/delta + psi(n+1)) + O(delta) (DLMF
    5.7.1).  If c = -m too, the two 1/delta cancel and a = n - m is an
    integer, which leaves (-1)^(n+m) m! (n-m-1)! / n!; at a pole c alone
    1/Gamma(c) is 0.
    """
    if c <= 0 and c.denominator == 1:
        if b.denominator != 1:
            return 0.0
        n, m = -int(b), -int(c)
        return (-1) ** (n + m) * math.factorial(m) * math.factorial(n - m - 1) / math.factorial(n)
    ratio = _gamma_sign(c) * math.exp(math.lgamma(a) - math.lgamma(c))  # Gamma(a) / Gamma(c)
    if b.denominator != 1:
        return _gamma_sign(b) * ratio * math.exp(math.lgamma(b))
    from scipy.special import digamma

    n = -int(b)
    return (-1) ** n * ratio * float(digamma(n + 1) - digamma(float(c))) / math.factorial(n)


def integral(f: FunExpr) -> float:
    """Integral of f over the quadrant against the measure sinh(xi) dtheta dxi.

    Term by term,

        int cos^p sin^q dtheta       = B((q+1)/2, (p+1)/2) / 2
        int cosh^r sinh^(s+1) dxi    = B((s+2)/2, -(r+s+1)/2) / 2

    via log-Gamma, so each term is accurate to ~1e-15 relative.  The terms
    are those of `f.classes` (a raw `FunExpr(terms)` integrates its summed
    classes), in the one term order of `_class_terms`, lexicographic on
    (p, q, r, s): the terms cancel, so the last bits depend on that order.
    A term with r+s >= -1, so b = -(r+s+1)/2 <= 0, diverges alone; once
    `_divergence` has passed the exact growth profiles, f is integrable and
    the sum of its terms' Beta values continued in b (`_continued_beta`) is
    its integral.  The regulator cosh^-eps, under which every term
    converges, moves b and c = (1-r)/2 by eps/2 and keeps a = (s+2)/2, and
    the 1/eps parts of the poles cancel across the terms at eps = 0.  A
    divergence raises with the first offending term or the growth profile.
    Each Beta argument is an int true division of unreduced numerator and
    denominator, which is correctly rounded, so it equals float() of the
    exact Fraction.
    """
    reason = _divergence(f, 1)
    if reason:
        raise DivergenceError(reason)
    total = 0.0
    for (pn, pd, qn, qd, rn, rd, sn, sd), (P, Q, R, S), c in _class_terms(f.classes):
        d = rd * sd
        n = rn * sd + sn * rd + (2 * (R + S) + 1) * d  # b = -n / 2d
        theta = _log_beta((qn + (2 * Q + 1) * qd) / qd / 2, (pn + (2 * P + 1) * pd) / pd / 2)
        a = (sn + (2 * S + 2) * sd) / sd / 2
        if n < 0:
            total += c.numerator / c.denominator * 0.25 * math.exp(
                theta + _log_beta(a, -(n / d) / 2))
        else:
            total += c.numerator / c.denominator * 0.25 * math.exp(theta) * _continued_beta(
                a, Fraction(-n, 2 * d), (1 - _exponent(rn, rd, R)) / 2)
    return total


def inner(a: FunExpr, b: FunExpr) -> float:
    """Inner product int a*b sinh(xi) dxi dtheta over the quadrant."""
    return integral(a * b)


def is_normalizable(f: FunExpr) -> bool:
    """True when inner(f, f) converges: `_divergence` at k = 2."""
    return _divergence(f, 2) is None
