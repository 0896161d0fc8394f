"""Fundamental states, representation lattices and bound spectra.

A representation is seeded by a vertex state at l = (l0, 0, l2) annihilated
by the three lowering operators, with energy

    E0 = -(l0 + l2 + 3/2)(l0 + l2 + 5/2).

Raising words generate the rest of the representation; every generated state
is an exact eigenstate of the Hamiltonian at its own label with the vertex
energy.  The bound spectrum of one Hamiltonian collects the vertices whose
lattice reaches its label.  Degeneracy is the exact rank over Q of the
generated states at a label, never assumed from a counting rule: the normal
form is canonical, so the rank of the states' coefficient vectors is the
dimension of their span.  A witness is a raising word whose state entered
that basis.  The float Gram rank stays as a numerical cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (FunExpr, RationalLike, inner, is_normalizable, monomial,
                      norm_squared, rational)
# apply stays importable from here for tools that rebind the operator layer
from .operators import (SHIFTS, LabeledState, OperatorName as O, ParamPoint,
                        apply, apply_word)

HALF = Fraction(1, 2)
GRAM_REL_TOL = 1e-9  # gram_rank counts singular values above this times the largest


class AdmissibilityError(ValueError):
    """Parameters violate a normalizability constraint."""


def ground_theta(l0: RationalLike, l1: RationalLike) -> FunExpr:
    """cos^(l0+1/2) sin^(l1+1/2); needs l0, l1 >= -1/2."""
    l0, l1 = rational(l0), rational(l1)
    if l0 < -HALF or l1 < -HALF:
        raise AdmissibilityError(
            f"theta ground state needs l0, l1 >= -1/2, got ({l0}, {l1})")
    return monomial(1, l0 + HALF, l1 + HALF, 0, 0)


def ground_chi(l0: RationalLike, l2: RationalLike) -> FunExpr:
    """cosh^(l2+1/2) sinh^(l0+1/2); needs l0 >= -1/2 and l0+l2 < -1."""
    l0, l2 = rational(l0), rational(l2)
    if l0 < -HALF:
        raise AdmissibilityError(f"chi ground state needs l0 >= -1/2, got {l0}")
    if not l0 + l2 < -1:
        raise AdmissibilityError(
            f"chi ground state needs l0+l2 < -1, got {l0 + l2}")
    return monomial(1, 0, 0, l2 + HALF, l0 + HALF)


def ground_beta(l1: RationalLike, l2: RationalLike) -> FunExpr:
    """cosh^(l2+1/2) sinh^(-l1+1/2); needs l2-l1 < -1 and l1 <= 1/2."""
    l1, l2 = rational(l1), rational(l2)
    if not l2 - l1 < -1:
        raise AdmissibilityError(
            f"beta ground state needs l2-l1 < -1, got {l2 - l1}")
    if l1 > HALF:
        raise AdmissibilityError(f"beta ground state needs l1 <= 1/2, got {l1}")
    return monomial(1, 0, 0, l2 + HALF, -l1 + HALF)


def ground_full(l0: RationalLike, l2: RationalLike) -> LabeledState:
    """Joint vacuum cos^(l0+1/2) sin^(1/2) cosh^(l2+1/2) sinh^(l0+1) at (l0, 0, l2).

    Annihilated by all three lowering operators; normalizable under the
    invariant measure iff l0 >= -1/2 and l0 + l2 < -5/2.
    """
    l0, l2 = rational(l0), rational(l2)
    if l0 < -HALF:
        raise AdmissibilityError(f"vertex needs l0 >= -1/2, got {l0}")
    if not l0 + l2 < Fraction(-5, 2):
        raise AdmissibilityError(
            f"vertex needs l0+l2 < -5/2 for a normalizable state, got {l0 + l2}")
    expr = monomial(1, l0 + HALF, HALF, l2 + HALF, l0 + 1)
    return LabeledState(ParamPoint(l0, Fraction(0), l2), expr)


def so42_vacuum(l2: RationalLike) -> LabeledState:
    """The l0 = 0 vertex, additionally annihilated by the tilde lowerings."""
    l2 = rational(l2)
    if not l2 < Fraction(-5, 2):
        raise AdmissibilityError(f"so(4,2) vacuum needs l2 < -5/2, got {l2}")
    return ground_full(0, l2)


def vertex_energy(l0: RationalLike, l2: RationalLike) -> Fraction:
    """-(l0+l2+3/2)(l0+l2+5/2); shared by the whole representation."""
    sigma = rational(l0) + rational(l2)
    return -((sigma + Fraction(3, 2)) * (sigma + Fraction(5, 2)))


# Raising sets: the B-type raisings are commutators of these and add no new
# labels, so lattice geometry follows the A/C (and tilde) generators.
RAISING = {
    "su21": (O.A_PLUS, O.C_PLUS),
    "so42": (O.A_PLUS, O.ATILDE_PLUS, O.C_PLUS, O.CTILDE_PLUS),
}


@dataclass(frozen=True)
class LatticePoint:
    label: ParamPoint
    depth: int
    degeneracy: int


Word = tuple[O, ...]


def _enter(basis: list[tuple[tuple, dict]], expr: FunExpr) -> bool:
    """Add expr's coefficient vector to an echelon basis over Q if independent.

    Distinct canonical monomials are linearly independent, so the basis size
    is the exact dimension of the span.  Each row is 1 at its pivot and 0 at
    the pivots of the rows before it.
    """
    row = {m.key: m.coeff for m in expr.terms}
    for pivot, prow in basis:
        c = row.get(pivot)
        if c:
            for key, value in prow.items():
                new = row.get(key, 0) - c * value
                if new:
                    row[key] = new
                else:
                    del row[key]
    if not row:
        return False
    pivot = min(row)
    inv = 1 / row[pivot]
    basis.append((pivot, {k: v * inv for k, v in row.items()}))
    return True


def _reaches(label: ParamPoint, target: ParamPoint, algebra: str) -> bool:
    """Whether a raising word of the algebra moves `label` to `target`."""
    delta = [t - x for t, x in zip(target.astuple(), label.astuple())]
    if any(d.denominator != 1 for d in delta):
        return False
    d0, d1, d2 = (int(d) for d in delta)
    if algebra == "su21":
        # a*A+ + c*C+ with shifts A+ = (-1,-1,0), C+ = (0,1,-1)
        return d0 <= 0 and d2 <= 0 and d1 == d0 - d2
    # a*A+ + at*Atilde+ + c*C+ + ct*Ctilde+ with Atilde+ = (1,-1,0) and
    # Ctilde+ = (0,-1,-1): d0 = at-a, d1 = c-ct-a-at, d2 = -(c+ct)
    return d2 <= 0 and (d0 + d1 + d2) % 2 == 0 and abs(d0) <= -d2 - d1


def _walk(vertex: ParamPoint, algebra: str, max_depth: int | None = None,
          target: ParamPoint | None = None
          ) -> dict[ParamPoint, tuple[int, list[tuple[Word, LabeledState]]]]:
    """Breadth-first span of the raising words out of a vertex.

    Words grow by one raising operator at a time; zero and non-normalizable
    images are pruned.  A state is kept only if it is independent of the
    states kept at its label, and only kept states grow, so each label keeps
    a basis of its generated states.  With a target, only labels from which
    it is reachable are entered.  Returns label -> (minimal depth,
    [(witness word, state)]), words written right-to-left.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"lattice depth must be at least 0, got {max_depth}")
    try:
        raising = RAISING[algebra]
    except KeyError:
        raise ValueError(f"unknown algebra {algebra!r}; use 'su21' or 'so42'") from None
    if vertex.l1 != 0:
        raise AdmissibilityError(f"vertices carry l1 = 0, got {vertex}")
    vstate = ground_full(vertex.l0, vertex.l2)
    if target is not None and not _reaches(vstate.label, target, algebra):
        return {}
    found: dict[ParamPoint, tuple[int, list[tuple[Word, LabeledState]]]] = {}
    bases: dict[ParamPoint, list] = {}
    frontier = [((), vstate)]
    depth = 0
    while frontier:
        nxt = []
        for word, st in frontier:
            if not _enter(bases.setdefault(st.label, []), st.expr):
                continue
            found.setdefault(st.label, (depth, []))[1].append((word, st))
            if depth == max_depth:
                continue
            for op in raising:
                label = st.label.shifted(SHIFTS[op])
                if target is not None and not _reaches(label, target, algebra):
                    continue
                img = apply_word((op,), st)
                if not img.is_zero and is_normalizable(img.expr):
                    nxt.append(((op,) + word, img))
        frontier = nxt
        depth += 1
    return found


def enumerate_lattice(vertex: ParamPoint, algebra: str,
                      max_depth: int) -> list[LatticePoint]:
    """Labels reachable by raising words of bounded length, with degeneracies."""
    pts = [LatticePoint(lab, d, len(kept))
           for lab, (d, kept) in _walk(vertex, algebra, max_depth).items()]
    pts.sort(key=lambda pt: (pt.depth, pt.label.astuple()))
    return pts


def lattice_states(vertex: ParamPoint, algebra: str,
                   max_depth: int) -> dict[ParamPoint, list[LabeledState]]:
    """A basis of the generated states per reachable label."""
    return {lab: [st for _, st in kept]
            for lab, (_, kept) in _walk(vertex, algebra, max_depth).items()}


def _witnesses(vertex: ParamPoint, target: ParamPoint,
               algebra: str) -> list[tuple[Word, LabeledState]]:
    """Witness words and their states at `target`, sorted by word."""
    _, kept = _walk(vertex, algebra, target=target).get(target, (0, []))
    return sorted(kept, key=lambda ws: ws[0])


def states_at(vertex: ParamPoint, target: ParamPoint,
              algebra: str = "su21") -> list[LabeledState]:
    """A basis of the states at `target` generated by raising words out of
    `vertex`, in the order of their witness words.  Returns [] when the
    target is not reachable.
    """
    return [st for _, st in _witnesses(vertex, target, algebra)]


def gram_matrix(states: list[LabeledState]) -> np.ndarray:
    """Pairwise inner products of unit-normalized states."""
    norms = [float(np.sqrt(norm_squared(st.expr))) for st in states]
    n = len(states)
    g = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            g[i, j] = g[j, i] = inner(states[i].expr, states[j].expr) / (norms[i] * norms[j])
    return g


def gram_rank(states: list[LabeledState]) -> int:
    """Numerical rank of the Gram matrix; a float cross-check of degeneracy."""
    if not states:
        return 0
    labels = {st.label for st in states}
    if len(labels) > 1:
        raise ValueError(f"states must share one label, got {labels}")
    sv = np.linalg.svd(gram_matrix(states), compute_uv=False)
    return int(np.sum(sv > GRAM_REL_TOL * sv[0]))


def normalize(st: LabeledState) -> tuple[LabeledState, float]:
    """Scale to unit norm; returns (state, constant) with constant = 1/sqrt(<f,f>).

    The scale factor is stored as the exact rational image of the float, so
    downstream operator algebra on the normalized state stays exact.
    """
    if st.is_zero:
        raise ValueError("cannot normalize the zero state")
    n2 = norm_squared(st.expr)
    if not (math.isfinite(n2) and n2 > 0):
        raise ValueError(
            f"cannot normalize the state at {st.label}: norm squared is {n2!r}")
    const = 1.0 / float(np.sqrt(n2))
    scaled = st.expr.scale(Fraction(const))
    return LabeledState(st.label, scaled), const


@dataclass(frozen=True)
class EnergyLevel:
    energy: Fraction
    degeneracy: int
    witnesses: tuple[Word, ...]
    vertex: ParamPoint

    def to_dict(self) -> dict:
        return {
            "energy": str(self.energy),
            "energy_float": float(self.energy),
            "degeneracy": self.degeneracy,
            "vertex": [str(x) for x in self.vertex.astuple()],
            "witnesses": [[op.value for op in w] for w in self.witnesses],
        }


@dataclass(frozen=True)
class SpectrumReport:
    target: ParamPoint
    levels: tuple[EnergyLevel, ...]
    normalizations: tuple[tuple[float, ...], ...]

    def to_dict(self) -> dict:
        return {
            "target": [str(x) for x in self.target.astuple()],
            "levels": [lv.to_dict() for lv in self.levels],
            "normalizations": [list(ns) for ns in self.normalizations],
        }


def bound_spectrum(target: ParamPoint) -> SpectrumReport:
    """All bound levels of the Hamiltonian at `target`.

    A vertex (l0', 0, l2') reaches the target only with l0' = l0 + k and
    l2' = l2 + l1 + k for a nonnegative word count k, so candidate level sums
    l0'+l2' walk upward in steps of two until normalizability (sum < -5/2)
    fails.  Levels come out sorted by increasing energy.  Each level's
    degeneracy is the exact rank over Q of the states its vertex generates
    at the target, and its witnesses are the sorted words of a basis of
    them, with the normalizations aligned to the witnesses.
    """
    levels: list[EnergyLevel] = []
    norms: list[tuple[float, ...]] = []
    for k in itertools.count():
        v0 = target.l0 + k
        v2 = target.l2 + target.l1 + k
        sigma = v0 + v2
        if not sigma < Fraction(-5, 2):
            break
        if v0 < -HALF:
            continue
        vertex = ParamPoint(v0, Fraction(0), v2)
        kept = _witnesses(vertex, target, "su21")
        if not kept:
            continue
        words, sts = zip(*kept)
        levels.append(EnergyLevel(vertex_energy(v0, v2), len(kept), words,
                                  vertex))
        norms.append(tuple(normalize(st)[1] for st in sts))
    if not levels:
        raise AdmissibilityError(
            f"no admissible vertex reaches {target}; Hamiltonian has no "
            "ladder-generated bound states")
    order = sorted(range(len(levels)), key=lambda i: levels[i].energy)
    return SpectrumReport(target, tuple(levels[i] for i in order),
                          tuple(norms[i] for i in order))
