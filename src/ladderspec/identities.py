"""Exact-zero verification suite for the operator algebra.

Every identity is checked structurally: the residual expression must
normalize to the empty sum.  Probes are random rational-labeled monomial
states drawn from a seeded generator, so a report is reproducible from
(seed, probes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import operators as ops
from .algebra import FunExpr, Monomial, monomial
from .operators import (HALF, LabeledState, OperatorName as O, ParamPoint,
                        apply, apply_hamiltonian, apply_separated,
                        diag_eigenvalue, hamiltonian_from_casimir,
                        separated_eigenvalue, separated_ladder,
                        verify_intertwining)

ApplyFn = Callable[[O, LabeledState], LabeledState]

MAX_PROBE_TERMS = 3  # random_expr draws 1..MAX_PROBE_TERMS monomials


def _family_rows(name: str, eps: int) -> list[tuple]:
    """[X-,X+] = -2 eps X, [X,X+] = X+ and [X,X-] = -X- for one family."""
    up, dn = name + "+", name + "-"
    return [(f"[{dn},{up}] = {-2 * eps}{name}", dn, up, [(-2 * eps, name)]),
            (f"[{name},{up}] = {up}", name, up, [(1, O(up))]),
            (f"[{name},{dn}] = -{dn}", name, dn, [(-1, O(dn))])]


# [x, y] = rhs; diagonal generators appear by family letter, rhs terms are
# (constant, generator).
BRACKET_TABLE = [row for name, fam in ops._FAMILIES.items()
                 for row in _family_rows(name, fam.eps)] + [
    ("[A+,B+] = 0", "A+", "B+", []),
    ("[A-,B-] = 0", "A-", "B-", []),
    ("[A+,B-] = -C-", "A+", "B-", [(-1, O.C_MINUS)]),
    ("[A-,B+] = C+", "A-", "B+", [(1, O.C_PLUS)]),
    ("[C+,B+] = 0", "C+", "B+", []),
    ("[C-,B-] = 0", "C-", "B-", []),
    ("[C+,A+] = -B+", "C+", "A+", [(-1, O.B_PLUS)]),
    ("[C-,A-] = B-", "C-", "A-", [(1, O.B_MINUS)]),
    ("[C+,B-] = -A-", "C+", "B-", [(-1, O.A_MINUS)]),
    ("[C-,B+] = A+", "C-", "B+", [(1, O.A_PLUS)]),
    ("[C+,A-] = 0", "C+", "A-", []),
    ("[C-,A+] = 0", "C-", "A+", []),
    ("[A,B+] = B+/2", "A", "B+", [(HALF, O.B_PLUS)]),
    ("[A,B-] = -B-/2", "A", "B-", [(-HALF, O.B_MINUS)]),
    ("[B,A+] = A+/2", "B", "A+", [(HALF, O.A_PLUS)]),
    ("[B,A-] = -A-/2", "B", "A-", [(-HALF, O.A_MINUS)]),
    ("[C,B+] = B+/2", "C", "B+", [(HALF, O.B_PLUS)]),
    ("[C,B-] = -B-/2", "C", "B-", [(-HALF, O.B_MINUS)]),
    ("[C,A+] = -A+/2", "C", "A+", [(-HALF, O.A_PLUS)]),
    ("[C,A-] = A-/2", "C", "A-", [(HALF, O.A_MINUS)]),
    ("[A,C-] = C-/2", "A", "C-", [(HALF, O.C_MINUS)]),
    ("[A,C+] = -C+/2", "A", "C+", [(-HALF, O.C_PLUS)]),
    ("[B,C-] = -C-/2", "B", "C-", [(-HALF, O.C_MINUS)]),
    ("[B,C+] = C+/2", "B", "C+", [(HALF, O.C_PLUS)]),
    ("[A,B] = 0", "A", "B", []),
    ("[A,C] = 0", "A", "C", []),
    ("[B,C] = 0", "B", "C", []),
]


def random_label(rng: random.Random) -> ParamPoint:
    def frac() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return ParamPoint(frac(), frac(), frac())


def random_expr(rng: random.Random, theta_only: bool = False,
                hyperbolic_only: bool = False) -> FunExpr:
    def expo() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2)))

    def coeff() -> Fraction:
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return c if rng.random() < 0.5 else -c

    terms = []
    for _ in range(rng.randint(1, MAX_PROBE_TERMS)):
        p, q = (expo(), expo()) if not hyperbolic_only else (Fraction(0), Fraction(0))
        r, s = (expo(), expo()) if not theta_only else (Fraction(0), Fraction(0))
        terms.append(Monomial(coeff(), p, q, r, s))
    e = FunExpr.from_terms(terms)
    return e if not e.is_zero else monomial(1, 1, 1, 0, 0)


def random_state(rng: random.Random) -> LabeledState:
    return LabeledState(random_label(rng), random_expr(rng))


def _act(gen: str, st: LabeledState, apply_fn: ApplyFn) -> LabeledState:
    if gen in ops._FAMILIES:
        return LabeledState(st.label, st.expr.scale(diag_eigenvalue(gen, st.label)))
    return apply_fn(O(gen), st)


def bracket_residual(entry, st: LabeledState, apply_fn: ApplyFn = apply) -> FunExpr:
    _, xg, yg, rhs = entry
    lhs = _act(xg, _act(yg, st, apply_fn), apply_fn).expr \
        - _act(yg, _act(xg, st, apply_fn), apply_fn).expr
    for coeff, gen in rhs:
        lhs = lhs - _act(gen, st, apply_fn).expr.scale(coeff)
    return lhs


@dataclass
class IdentityResult:
    name: str
    passed: bool
    detail: str = ""


def _factorization_residuals(family: str, x: Fraction, y: Fraction,
                             probe: FunExpr) -> list[FunExpr]:
    """Both factorized forms of the 1D factor Hamiltonian at indices (x, y);
    the second one factorizes at the partner indices (x - sigma, y - 1)."""
    fam = ops._FAMILIES[family]
    h = apply_separated(fam.separated, probe, (x, y))
    residuals = []
    # (indices, signs of the factor applied second and of the one applied first)
    for idx, signs in (((x, y), (+1, -1)), ((x - fam.sigma, y - 1), (-1, +1))):
        second, first = (separated_ladder(family, s, idx) for s in signs)
        product = second(first(probe))
        residuals.append(h - (product + probe.scale(separated_eigenvalue(family, idx))))
    return residuals


def _detail(res: FunExpr, where: str = "") -> str:
    return "" if res.is_zero else f"residual {res}{where}"


def _first(details: Iterable[str]) -> str:
    """The first nonempty failure detail, drawing no further; "" if none."""
    return next(filter(None, details), "")


def run_suite(seed: int = 0, probes: int = 5,
              apply_fn: ApplyFn = apply) -> list[IdentityResult]:
    """Run every exact identity on `probes` random states per identity."""
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    rng = random.Random(seed)
    results: list[IdentityResult] = []

    def record(name: str, check: Callable[..., str], *args) -> None:
        bad = _first(check(*args) for _ in range(probes))
        results.append(IdentityResult(name, not bad, bad))

    def bracket(entry) -> str:
        st = random_state(rng)
        return _detail(bracket_residual(entry, st, apply_fn), f" on probe at {st.label}")

    def diagonal_sum() -> str:
        lab = random_label(rng)
        total = diag_eigenvalue("A", lab) - diag_eigenvalue("B", lab) \
            + diag_eigenvalue("C", lab)
        return f"A-B+C = {total} at {lab}" if total != 0 else ""

    def factorization(family: str) -> str:
        def small() -> Fraction:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        theta_only = ops._FAMILIES[family].separated == "theta"
        probe = random_expr(rng, theta_only=theta_only, hyperbolic_only=not theta_only)
        x, y = small(), small()
        return _first(map(_detail, _factorization_residuals(family, x, y, probe)))

    def intertwining(family: str) -> str:
        return _detail(verify_intertwining(family, random_label(rng), random_expr(rng)))

    def casimir() -> str:
        st = random_state(rng)
        return _detail(hamiltonian_from_casimir(st) - apply_hamiltonian(st), f" at {st.label}")

    def cprime_shift(op: O) -> str:
        d = ops.SHIFTS[op]
        dc = d[1] + d[2] - d[0]
        tilde = ops._GENERATORS[op][2] is not None
        bad = (not tilde and dc != 0) or (tilde and abs(dc) != 2)
        return f"{op.value} shifts Cprime by {dc}" if bad else ""

    for entry in BRACKET_TABLE:
        record(entry[0], bracket, entry)
    record("A - B + C = 0", diagonal_sum)
    for family in ops._FAMILIES:
        record(f"factorization {family}-family", factorization, family)
    for family in ops._FAMILIES:
        record(f"intertwining {family}-family", intertwining, family)
    record("H = -4*Casimir + Cprime^2/3 - 15/4", casimir)
    bad = _first(map(cprime_shift, ops.LADDER_OPERATORS))
    results.append(IdentityResult("Cprime shift rule (0 ladder / +-2 tilde)", not bad, bad))
    return results
