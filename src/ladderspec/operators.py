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
lowering and on the reflected axis for a tilde generator.  A tilde
generator reflects its family's x slot, so the twelve ladder generators,
`_GENERATORS`, are derived from `_FAMILIES` by family, sign and tilde.

Realizations in the (theta, xi) chart use

    J0 = sin(theta) d_xi + cos(theta) coth(xi) d_theta
    J1 = cos(theta) d_xi - sin(theta) coth(xi) d_theta

Every operator here is applied in one pass of the rule kernel
`algebra._linear`, with no intermediate expressions.  Each family's D is
compiled once per sign into rules: the derivative tables `D_THETA`, `D_XI`
composed with the chart multipliers, the sign and the factor 1/2 folded
into the factors.  An application adds the two label coefficients as
multiplier rules.  The Hamiltonian takes d_xi f and d_theta f once each and
makes one pass over (d_xi f, d_theta f, f); a 1D factor Hamiltonian one pass
over (D f, f).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algebra import (D_THETA, D_XI, FunExpr, RationalLike, _combine, _first_term,
                      _linear, _rules, d_theta, d_xi, rational)

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
_ONE, _COS, _SIN = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)
_SIN_COTH, _COS_COTH = (0, 1, 1, -1), (1, 0, 1, -1)


class _Family(NamedTuple):
    """One su(2,1) family X+- = +-D - eps (sigma x + 1/2) m_x + (y + 1/2) m_y.

    (x, y) are the label entries in `slots`; eps is the sign of the
    factorization constant and of the Casimir term, sigma the sign of x.  D
    is given in the (theta, xi) chart as (factor, multiplier, derivative)
    terms, so J1 = cos d_xi - sin coth d_theta and J0 = sin d_xi +
    cos coth d_theta; `deriv_1d` and `mults_1d` are D and (m_x, m_y) for the
    1D factor Hamiltonian `separated`.  The generators are odd under
    `odd_axes`.
    """

    deriv: tuple[tuple[int, tuple[int, ...], tuple], ...]
    deriv_1d: tuple
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
    "A": _Family(((1, _ONE, D_THETA),), D_THETA, "theta", (0, 1), (_TAN, _COT),
                 (_TAN, _COT), +1, +1),
    "B": _Family(((1, _COS, D_XI), (-1, _SIN_COTH, D_THETA)), D_XI, "chi", (0, 2),
                 (_COTH_SEC, _TANH_COS), (_COTH, _TANH), -1, +1),
    "C": _Family(((1, _SIN, D_XI), (1, _COS_COTH, D_THETA)), D_XI, "beta", (1, 2),
                 (_COTH_CSC, _TANH_SIN), (_COTH, _TANH), -1, -1, (2,)),
}


# family, sign -> compiled rules of sign*D/2 in the chart
_DERIV_RULES = {(name, sign): sum((_rules(deriv, sign * a * HALF, shift)
                                   for a, shift, deriv in fam.deriv), ())
                for name, fam in _FAMILIES.items() for sign in (+1, -1)}


def _times(coeffs: tuple[Fraction, ...], mults: tuple, factor: Fraction = 1) -> tuple:
    """Rules of the multiplication by sum_j coeffs[j] mults[j], times `factor`."""
    return _rules(((None, c, m) for c, m in zip(coeffs, mults)), factor)


# ladder generator -> (family, sign of D, reflected label axis or None); a
# tilde generator reflects its family's sigma-signed slot x
_GENERATORS: dict[OperatorName, tuple[str, int, int | None]] = {
    O(f"{name}{tilde}{pm}"): (name, sign, fam.slots[0] if tilde else None)
    for name, fam in _FAMILIES.items() for tilde in ("", "tilde")
    for sign, pm in ((+1, "+"), (-1, "-"))}
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
    rules = _DERIV_RULES[name, sign] \
        + _times(fam.coeffs(v[fam.slots[0]], v[fam.slots[1]]), fam.mults, HALF)
    return LabeledState(label, _linear((st.expr, rules)))


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


QUARTER = Fraction(1, 4)
# -d_xi - coth on d_xi f and -d_theta / sinh^2 on d_theta f
_H_XI = _rules(D_XI, -1) + _rules([(None, -1, _COTH)])
_H_THETA = _rules(D_THETA, -1, (0, 0, 0, -2))
# 1/cosh^2, 1/(sin sinh)^2, 1/(cos sinh)^2 on f; in 1D 1/sin^2, 1/cos^2
# (theta) and 1/sinh^2, 1/cosh^2 (hyperbolic)
_H_WALLS = ((0, 0, -2, 0), (0, -2, 0, -2), (-2, 0, 0, -2))
_WALLS_1D = (((0, -2, 0, 0), (-2, 0, 0, 0)), ((0, 0, 0, -2), (0, 0, -2, 0)))


def apply_hamiltonian(st: LabeledState) -> FunExpr:
    """Exact image of the full Hamiltonian at the state's parameters,

        -d_xi^2 - coth d_xi - (l2^2-1/4)/cosh^2
        + [-d_theta^2 + (l1^2-1/4)/sin^2 + (l0^2-1/4)/cos^2] / sinh^2,

    as one pass over (d_xi f, d_theta f, f)."""
    l0, l1, l2 = st.label.astuple()
    f = st.expr
    walls = _times((QUARTER - l2 * l2, l1 * l1 - QUARTER, l0 * l0 - QUARTER), _H_WALLS)
    return _linear((d_xi(f), _H_XI), (d_theta(f), _H_THETA), (f, walls))


def _require_pair(f: FunExpr, hyperbolic: bool, which: str) -> None:
    """Raise unless f lives in the variables of the 1D operator `which`,
    naming its first offending term (`algebra._first_term`)."""
    kind = "a hyperbolic-variable" if hyperbolic else "a theta-only"
    a, b = (0, 1) if hyperbolic else (2, 3)  # exponent slots that must be 0
    bad = _first_term(f, lambda cls, offs: cls[2 * a] or offs[a] or cls[2 * b] or offs[b])
    if bad:
        raise VariableMismatchError(f"{which} operator expects {kind} expression, got {bad}")


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
    cx, cy = rational(params[0]) ** 2 - QUARTER, rational(params[1]) ** 2 - QUARTER
    deriv = _SEPARATED[which].deriv_1d
    hyperbolic = deriv is D_XI
    _require_pair(f, hyperbolic, which)
    walls = _times((cx, -cy) if hyperbolic else (cy, cx), _WALLS_1D[hyperbolic])
    # -D^2 f = -D (D f): D f once, then one pass of -D and the walls
    return _linear(((d_xi if hyperbolic else d_theta)(f), _rules(deriv, -1)), (f, walls))


def separated_ladder(family: str, sign: int,
                     params: tuple[RationalLike, RationalLike]) -> Callable[[FunExpr], FunExpr]:
    """Concrete 1D intertwiners for the factor Hamiltonians.

    family 'A', indices (a, b): +-d_theta - (a+1/2) tan + (b+1/2) cot
    family 'B', indices (a, c): +-d_chi  + (c+1/2) tanh + (a+1/2) coth
    family 'C', indices (b, c): +-d_beta + (c+1/2) tanh + (-b+1/2) coth

    The returned map takes an expression in the family's variable only, as
    `apply_separated` does, and raises `VariableMismatchError` otherwise.
    """
    fam = _family(family)
    rules = _rules(fam.deriv_1d, sign) \
        + _times(fam.coeffs(rational(params[0]), rational(params[1])), fam.mults_1d)

    def ladder(f: FunExpr) -> FunExpr:
        _require_pair(f, fam.deriv_1d is D_XI, fam.separated)
        return _linear((f, rules))
    return ladder


def separated_eigenvalue(family: str,
                         params: tuple[RationalLike, RationalLike]) -> Fraction:
    """Factorization constants eps (1 + sigma x + y)^2: (1+a+b)^2,
    -(1+a+c)^2, -(1-b+c)^2."""
    fam = _family(family)
    x, y = rational(params[0]), rational(params[1])
    return fam.eps * (1 + fam.sigma * x + y) ** 2


def apply_casimir(st: LabeledState) -> FunExpr:
    """Quadratic Casimir: the sum over the families of eps X+X- + 2/3 X^2 - X,
    that is A+A- - B+B- - C+C- + 2/3(A^2+B^2+C^2) - (A+B+C)."""
    parts, scalar = [], Fraction(0)
    for name, fam in _FAMILIES.items():
        up, dn = _BY_KEY[(name, +1, None)], _BY_KEY[(name, -1, None)]
        parts.append((apply(up, apply(dn, st)).expr, fam.eps))
        x = diag_eigenvalue(name, st.label)
        scalar += Fraction(2, 3) * x * x - x
    return _combine(FunExpr(), *parts, (st.expr, scalar))


def hamiltonian_from_casimir(st: LabeledState) -> FunExpr:
    """-4*Casimir + (l1+l2-l0)^2/3 - 15/4 applied to st."""
    cp = cprime(st.label)
    return _combine(FunExpr(), (apply_casimir(st), -4),
                    (st.expr, Fraction(1, 3) * cp * cp - Fraction(15, 4)))


def verify_intertwining(family: str, label: ParamPoint, probe: FunExpr) -> FunExpr:
    """Residual of the intertwining relations of one ladder family.

    With X the lowering operator at `label` and l' = label + shift(X), checks
    X H_l - H_l' X and the reverse relation for the raising operator on the
    same edge; returns the first nonzero residual (empty expression when both
    hold, which is the contract).
    """
    dn, up = _BY_KEY[(family, -1, None)], _BY_KEY[(family, +1, None)]
    upper = label.shifted(SHIFTS[dn])
    for op, src, dst in ((dn, label, upper), (up, upper, label)):
        st = LabeledState(src, probe)
        res = apply(op, LabeledState(src, apply_hamiltonian(st))).expr \
            - apply_hamiltonian(LabeledState(dst, apply(op, st).expr))
        if not res.is_zero:
            break
    return res


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
