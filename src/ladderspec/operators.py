"""The fifteen ladder/diagonal generators and derived operators.

Operators act on labeled states: the label l = (l0, l1, l2) selects the
concrete first-order differential operator, and the result carries the
shifted label.  Index convention: a lowering operator of a family uses the
label of the state it acts on, a raising operator uses the label of the
state it produces, so that every application travels along an intertwining
edge of the parameter lattice.  With the uniform factor 1/2 this closes the
su(2,1) bracket table exactly.  The tilde operators that complete an so(4,2)
set are defined as reflected su(2,1) generators: Atilde+- and Btilde+- are
A+- and B+- read at the label with l0 -> -l0, Ctilde+- is C+- read with
l1 -> -l1.  Each family A/B/C is written once, in `_FAMILIES`, with two
signs eps (A +1, B -1, C -1) and sigma (A +1, B +1, C -1) as
X+- = +-D - eps (sigma x + 1/2) m_x + (y + 1/2) m_y at its label slots
(x, y).  The signs give the rest: the 1D factorization constant
eps (1 + sigma x + y)^2 with partner indices (x - sigma, y - 1), the
diagonal eigenvalue -(sigma x + y)/2 with [X-, X+] = -2 eps X, the Casimir
term eps X+ X-, and the raising shift (-sigma, -1) on (x, y), negated for
lowering and on the reflected axis for a tilde generator.

Realizations in the (theta, xi) chart use

    J0 = sin(theta) d_xi + cos(theta) coth(xi) d_theta
    J1 = cos(theta) d_xi - sin(theta) coth(xi) d_theta
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algebra import (FunExpr, Monomial, RationalLike, d_theta, d_xi,
                      monomial, rational)

HALF = Fraction(1, 2)


class VariableMismatchError(ValueError):
    """A separated 1D operator was fed an expression in the wrong variables."""


@dataclass(frozen=True)
class ParamPoint:
    """A parameter point l = (l0, l1, l2) with exact rational entries."""

    l0: Fraction
    l1: Fraction
    l2: Fraction

    @staticmethod
    def of(l0: RationalLike, l1: RationalLike, l2: RationalLike) -> "ParamPoint":
        return ParamPoint(rational(l0), rational(l1), rational(l2))

    def shifted(self, d: tuple[int, int, int]) -> "ParamPoint":
        return ParamPoint(self.l0 + d[0], self.l1 + d[1], self.l2 + d[2])

    def astuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.l0, self.l1, self.l2)

    def __str__(self) -> str:
        return f"({self.l0}, {self.l1}, {self.l2})"


@dataclass(frozen=True)
class LabeledState:
    """A wavefunction tagged with the parameter point it belongs to."""

    label: ParamPoint
    expr: FunExpr

    @property
    def is_zero(self) -> bool:
        return self.expr.is_zero


class OperatorName(str, enum.Enum):
    A_PLUS = "A+"
    A_MINUS = "A-"
    ATILDE_PLUS = "Atilde+"
    ATILDE_MINUS = "Atilde-"
    B_PLUS = "B+"
    B_MINUS = "B-"
    BTILDE_PLUS = "Btilde+"
    BTILDE_MINUS = "Btilde-"
    C_PLUS = "C+"
    C_MINUS = "C-"
    CTILDE_PLUS = "Ctilde+"
    CTILDE_MINUS = "Ctilde-"
    L0 = "L0"
    L1 = "L1"
    L2 = "L2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


OperatorWord = Sequence[OperatorName]

O = OperatorName

_DIAGONAL = {O.L0: 0, O.L1: 1, O.L2: 2}  # generator -> label entry

# basis multipliers (cos, sin, cosh, sinh exponents) of the coefficients
_TAN, _COT = (-1, 1, 0, 0), (1, -1, 0, 0)
_TANH, _COTH = (0, 0, -1, 1), (0, 0, 1, -1)
_TANH_COS, _COTH_SEC = (1, 0, -1, 1), (-1, 0, 1, -1)
_TANH_SIN, _COTH_CSC = (0, 1, -1, 1), (0, -1, 1, -1)


def _combo(coeffs: tuple[Fraction, ...], mults: tuple[tuple[int, ...], ...]) -> FunExpr:
    return FunExpr.from_terms(
        Monomial(c, Fraction(dp), Fraction(dq), Fraction(dr), Fraction(ds))
        for c, (dp, dq, dr, ds) in zip(coeffs, mults) if c != 0)


def apply_j0(f: FunExpr) -> FunExpr:
    return monomial(1, 0, 1, 0, 0) * d_xi(f) \
        + monomial(1, 1, 0, 1, -1) * d_theta(f)


def apply_j1(f: FunExpr) -> FunExpr:
    return monomial(1, 1, 0, 0, 0) * d_xi(f) \
        - monomial(1, 0, 1, 1, -1) * d_theta(f)


class _Family(NamedTuple):
    """One su(2,1) family X+- = +-D - eps (sigma x + 1/2) m_x + (y + 1/2) m_y.

    (x, y) are the label entries in `slots`; eps is the sign of the
    factorization constant and of the Casimir term, sigma the sign of x.  D
    and (m_x, m_y) are given in the (theta, xi) chart and for the 1D factor
    Hamiltonian `separated`.  The generators are odd under `odd_axes`.
    """

    deriv: Callable[[FunExpr], FunExpr]
    deriv_1d: Callable[[FunExpr], FunExpr]
    separated: str
    slots: tuple[int, int]
    mults: tuple[tuple[int, int, int, int], ...]
    mults_1d: tuple[tuple[int, int, int, int], ...]
    eps: int
    sigma: int
    odd_axes: tuple[int, ...] = ()

    def coeffs(self, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return -self.eps * (self.sigma * x + HALF), y + HALF


_FAMILIES: dict[str, _Family] = {
    "A": _Family(d_theta, d_theta, "theta", (0, 1), (_TAN, _COT), (_TAN, _COT),
                 +1, +1),
    "B": _Family(apply_j1, d_xi, "chi", (0, 2), (_COTH_SEC, _TANH_COS),
                 (_COTH, _TANH), -1, +1),
    "C": _Family(apply_j0, d_xi, "beta", (1, 2), (_COTH_CSC, _TANH_SIN),
                 (_COTH, _TANH), -1, -1, (2,)),
}

# ladder generator -> (family, sign of D, reflected label axis or None)
_GENERATORS: dict[OperatorName, tuple[str, int, int | None]] = {
    O.A_PLUS: ("A", +1, None), O.A_MINUS: ("A", -1, None),
    O.ATILDE_PLUS: ("A", +1, 0), O.ATILDE_MINUS: ("A", -1, 0),
    O.B_PLUS: ("B", +1, None), O.B_MINUS: ("B", -1, None),
    O.BTILDE_PLUS: ("B", +1, 0), O.BTILDE_MINUS: ("B", -1, 0),
    O.C_PLUS: ("C", +1, None), O.C_MINUS: ("C", -1, None),
    O.CTILDE_PLUS: ("C", +1, 1), O.CTILDE_MINUS: ("C", -1, 1),
}
_BY_KEY = {key: op for op, key in _GENERATORS.items()}


def _shift(name: str, sign: int, axis: int | None) -> tuple[int, int, int]:
    """The label shift of the ladder generator keyed as in `_GENERATORS`."""
    fam = _FAMILIES[name]
    d = [0, 0, 0]
    d[fam.slots[0]], d[fam.slots[1]] = -sign * fam.sigma, -sign
    if axis is not None:
        d[axis] = -d[axis]
    return tuple(d)


SHIFTS: dict[OperatorName, tuple[int, int, int]] = {
    op: _shift(*_GENERATORS[op]) if op in _GENERATORS else (0, 0, 0)
    for op in OperatorName}

LADDER_OPERATORS = tuple(op for op in OperatorName if op in _GENERATORS)
LOWERING_SU21 = (O.A_MINUS, O.B_MINUS, O.C_MINUS)
LOWERING_SO42 = LOWERING_SU21 + (O.ATILDE_MINUS, O.BTILDE_MINUS, O.CTILDE_MINUS)
_BY_SHIFT = {SHIFTS[op]: op for op in LADDER_OPERATORS}
_SEPARATED = {fam.separated: fam for fam in _FAMILIES.values()}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown ladder family {name!r}") from None


def apply(op: OperatorName, st: LabeledState) -> LabeledState:
    """Apply one generator with the uniform factor 1/2; the result carries
    the shifted label."""
    if op in _DIAGONAL:
        return LabeledState(st.label, st.expr.scale(st.label.astuple()[_DIAGONAL[op]]))
    name, sign, axis = _GENERATORS[op]
    fam = _FAMILIES[name]
    label = st.label.shifted(SHIFTS[op])
    v = list((label if sign > 0 else st.label).astuple())
    if axis is not None:
        v[axis] = -v[axis]
    out = fam.deriv(st.expr).scale(sign) \
        + _combo(fam.coeffs(v[fam.slots[0]], v[fam.slots[1]]), fam.mults) * st.expr
    return LabeledState(label, out.scale(HALF))


def apply_word(word: OperatorWord, st: LabeledState) -> LabeledState:
    """Apply a composition written right-to-left (rightmost acts first)."""
    for op in reversed(tuple(word)):
        st = apply(op, st)
    return st


def diag_eigenvalue(which: str, label: ParamPoint) -> Fraction:
    """Eigenvalue -(sigma x + y)/2 of the diagonal generator of a family."""
    fam = _family(which)
    v = label.astuple()
    return -HALF * (fam.sigma * v[fam.slots[0]] + v[fam.slots[1]])


def cprime(label: ParamPoint) -> Fraction:
    """The central invariant l1 + l2 - l0, conserved by the su(2,1) ladder."""
    return label.l1 + label.l2 - label.l0


def _theta_factor(f: FunExpr, x: Fraction, y: Fraction) -> FunExpr:
    """-d_theta^2 + (y^2-1/4)/sin^2 + (x^2-1/4)/cos^2 applied to f."""
    return -d_theta(d_theta(f)) \
        + monomial(y * y - Fraction(1, 4), 0, -2, 0, 0) * f \
        + monomial(x * x - Fraction(1, 4), -2, 0, 0, 0) * f


def apply_hamiltonian(st: LabeledState) -> FunExpr:
    """Exact image of the full Hamiltonian at the state's parameters."""
    l0, l1, l2 = st.label.astuple()
    f = st.expr
    return -d_xi(d_xi(f)) - monomial(1, 0, 0, 1, -1) * d_xi(f) \
        - monomial(l2 * l2 - Fraction(1, 4), 0, 0, -2, 0) * f \
        + monomial(1, 0, 0, 0, -2) * _theta_factor(f, l0, l1)


def _require_pair(f: FunExpr, hyperbolic: bool, which: str) -> None:
    kind = "a hyperbolic-variable" if hyperbolic else "a theta-only"
    for m in f.terms:
        if (m.p or m.q) if hyperbolic else (m.r or m.s):
            raise VariableMismatchError(f"{which} operator expects {kind} expression, got {m}")


def apply_separated(which: str, f: FunExpr,
                    params: tuple[RationalLike, RationalLike]) -> FunExpr:
    """One-dimensional factor Hamiltonians.

    which='theta': -d^2 + (y^2-1/4)/sin^2 + (x^2-1/4)/cos^2 with (x, y) = (l0, l1)
    which='chi':   -d^2 + (x^2-1/4)/sinh^2 - (y^2-1/4)/cosh^2 with (x, y) = (l0, l2)
    which='beta':  -d^2 + (x^2-1/4)/sinh^2 - (y^2-1/4)/cosh^2 with (x, y) = (l1, l2)

    For 'chi'/'beta' (families B and C; theta is A) the hyperbolic exponent
    slots of FunExpr are read as cosh/sinh of the single variable.
    """
    if which not in _SEPARATED:
        raise ValueError(f"unknown separated Hamiltonian {which!r}")
    x, y = rational(params[0]), rational(params[1])
    hyperbolic = _SEPARATED[which].deriv_1d is d_xi
    _require_pair(f, hyperbolic, which)
    if not hyperbolic:
        return _theta_factor(f, x, y)
    quarter = Fraction(1, 4)
    return -d_xi(d_xi(f)) \
        + monomial(x * x - quarter, 0, 0, 0, -2) * f \
        - monomial(y * y - quarter, 0, 0, -2, 0) * f


def separated_ladder(family: str, sign: int,
                     params: tuple[RationalLike, RationalLike]) -> Callable[[FunExpr], FunExpr]:
    """Concrete 1D intertwiners for the factor Hamiltonians.

    family 'A', indices (a, b): +-d_theta - (a+1/2) tan + (b+1/2) cot
    family 'B', indices (a, c): +-d_chi  + (c+1/2) tanh + (a+1/2) coth
    family 'C', indices (b, c): +-d_beta + (c+1/2) tanh + (-b+1/2) coth
    """
    fam = _family(family)
    w = _combo(fam.coeffs(rational(params[0]), rational(params[1])), fam.mults_1d)
    return lambda f: fam.deriv_1d(f).scale(sign) + w * f


def separated_eigenvalue(family: str,
                         params: tuple[RationalLike, RationalLike]) -> Fraction:
    """Factorization constants eps (1 + sigma x + y)^2: (1+a+b)^2,
    -(1+a+c)^2, -(1-b+c)^2."""
    fam = _family(family)
    x, y = rational(params[0]), rational(params[1])
    return fam.eps * (1 + fam.sigma * x + y) ** 2


def commutator(x: OperatorName, y: OperatorName, st: LabeledState) -> LabeledState:
    """[x, y] applied to st; both orderings land on the same label."""
    xy = apply(x, apply(y, st))
    yx = apply(y, apply(x, st))
    assert xy.label == yx.label
    return LabeledState(xy.label, xy.expr - yx.expr)


def apply_casimir(st: LabeledState) -> FunExpr:
    """Quadratic Casimir: the sum over the families of eps X+X- + 2/3 X^2 - X,
    that is A+A- - B+B- - C+C- + 2/3(A^2+B^2+C^2) - (A+B+C)."""
    terms: tuple[Monomial, ...] = ()
    scalar = Fraction(0)
    for name, fam in _FAMILIES.items():
        up, dn = _BY_KEY[(name, +1, None)], _BY_KEY[(name, -1, None)]
        terms += apply(up, apply(dn, st)).expr.scale(fam.eps).terms
        x = diag_eigenvalue(name, st.label)
        scalar += Fraction(2, 3) * x * x - x
    return FunExpr.from_terms(terms + st.expr.scale(scalar).terms)


def hamiltonian_from_casimir(st: LabeledState) -> FunExpr:
    """-4*Casimir + (l1+l2-l0)^2/3 - 15/4 applied to st."""
    cp = cprime(st.label)
    scalar = Fraction(1, 3) * cp * cp - Fraction(15, 4)
    return apply_casimir(st).scale(-4) + st.expr.scale(scalar)


def verify_intertwining(family: str, label: ParamPoint, probe: FunExpr) -> FunExpr:
    """Residual of the intertwining relations of one ladder family.

    With X the lowering operator at `label` and l' = label + shift(X), checks
    X H_l - H_l' X and the reverse relation for the raising operator on the
    same edge; returns the first nonzero residual (empty expression when both
    hold, which is the contract).
    """
    dn, up = _BY_KEY[(family, -1, None)], _BY_KEY[(family, +1, None)]
    upper = label.shifted(SHIFTS[dn])
    lo_st = LabeledState(label, probe)
    res1 = apply(dn, LabeledState(label, apply_hamiltonian(lo_st))).expr \
        - apply_hamiltonian(LabeledState(upper, apply(dn, lo_st).expr))
    if not res1.is_zero:
        return res1
    hi_st = LabeledState(upper, probe)
    res2 = apply(up, LabeledState(upper, apply_hamiltonian(hi_st))).expr \
        - apply_hamiltonian(LabeledState(label, apply(up, hi_st).expr))
    return res2


def reflect(i: int, op: OperatorName) -> tuple[int, OperatorName]:
    """Conjugate `op` by the reflection l_i -> -l_i; returns (sign, name).

    A ladder generator goes to the one whose shift has entry i negated; a
    diagonal generator L_j stays, with sign -1 when j = i.
    """
    if i not in (0, 1, 2) or op not in SHIFTS:
        raise ValueError(f"no reflection entry for axis {i}, operator {op}")
    op = OperatorName(op)
    if op in _DIAGONAL:
        return (-1 if _DIAGONAL[op] == i else 1), op
    d = list(SHIFTS[op])
    d[i] = -d[i]
    odd = i in _FAMILIES[_GENERATORS[op][0]].odd_axes
    return (-1 if odd else 1), _BY_SHIFT[tuple(d)]
