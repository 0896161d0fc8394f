"""Exact-zero verification suite for the operator algebra.

Every identity is checked structurally: the residual expression must
normalize to the empty sum.  Probes are random rational-labeled monomial
states drawn from a seeded generator, so a report is reproducible from
(seed, probes).

The 36 su(2,1) brackets of `BRACKET_TABLE` are derived from the family
table and the label shifts of `operators`; only their order is written
here.  The shift of [x, y] is the sum of the two shifts, so:

- for a diagonal generator x (21 rows) the constant of [x, y] = c y is the
  diagonal eigenvalue of x at the shift of y, as that eigenvalue is linear
  in the label, and 0 for two diagonals.  These rows restate what
  `diag_eigenvalue` and `SHIFTS` fix, so no realization of y can fail them;
- [X-, X+] = -2 eps X, with eps from the family row;
- two ladders of different families give c z, with z the generator whose
  shift is the sum, or 0 when no generator has it.  The six signs c = +-1
  of the nonzero ones are the only structure constants written by hand
  (`_CROSS`); a pair whose summed shift is a ladder shift but which has no
  sign there fails at import.

A row's name is its right-hand side written out, as in `[A,B+] = B+/2`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import operators as ops
from .algebra import FunExpr, Monomial, _combine, monomial
from .operators import (LabeledState, OperatorName as O, ParamPoint,
                        apply, apply_hamiltonian, apply_separated,
                        diag_eigenvalue, hamiltonian_from_casimir,
                        separated_eigenvalue, separated_ladder,
                        verify_intertwining)

ApplyFn = Callable[[O, LabeledState], LabeledState]

MAX_PROBE_TERMS = 3  # random_expr draws 1..MAX_PROBE_TERMS monomials


# The 36 unordered pairs of the nine su(2,1) generators as [x,y], in report
# order; a diagonal generator is named by its family letter and comes first.
_PAIRS = ("A-,A+ A,A+ A,A- B-,B+ B,B+ B,B- C-,C+ C,C+ C,C- A+,B+ A-,B- A+,B- A-,B+ "
          "C+,B+ C-,B- C+,A+ C-,A- C+,B- C-,B+ C+,A- C-,A+ A,B+ A,B- B,A+ B,A- C,B+ "
          "C,B- C,A+ C,A- A,C- A,C+ B,C- B,C+ A,B A,C B,C")
# [x,y] = c z for the cross-family ladder pairs whose shifts add up to the
# shift z of a ladder generator: the signs c that nothing else fixes
_CROSS = {("A+", "B-"): -1, ("A-", "B+"): 1, ("C+", "A+"): -1,
          ("C-", "A-"): 1, ("C+", "B-"): -1, ("C-", "B+"): 1}


def _name(x: str, y: str, c: Fraction, z: str) -> str:
    """The row name [x,y] = c z, written as 0, -C-, B+/2 or -2A."""
    if c == 0:
        return f"[{x},{y}] = 0"
    mag = abs(Fraction(c))
    num = "" if mag.numerator == 1 else mag.numerator
    den = "" if mag.denominator == 1 else f"/{mag.denominator}"
    return f"[{x},{y}] = {'-' if c < 0 else ''}{num}{z}{den}"


def _row(x: str, y: str) -> tuple:
    """The entry (name, x, y, rhs) of [x, y], derived as the module says."""
    if x in ops._FAMILIES:
        c, z = diag_eigenvalue(x, ParamPoint.of(*ops.SHIFTS.get(y, (0, 0, 0)))), y
    elif x[0] == y[0]:
        c, z = -2 * ops._FAMILIES[x[0]].eps * ops._GENERATORS[y][1], x[0]
    else:
        z = ops._BY_SHIFT.get(tuple(map(sum, zip(ops.SHIFTS[x], ops.SHIFTS[y]))))
        c = 0 if z is None else _CROSS[x, y]
    return _name(x, y, c, z), x, y, [(c, z)] if c else []


# [x, y] = rhs, with rhs terms (constant, generator)
BRACKET_TABLE = [_row(*pair.split(",")) for pair in _PAIRS.split()]


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
    """x(y st) - y(x st) - sum c z(st) for the row [x, y] = sum c z.

    `apply_fn` is called once per distinct (generator, state): x st and
    y st are computed once each and serve the right-hand side too, so a
    row [L, y] = c y calls it twice, a ladder row four times, five when
    its right-hand side is a ladder generator.
    """
    _, xg, yg, rhs = entry
    images = {gen: _act(gen, st, apply_fn) for gen in (yg, xg)}
    return _combine(_act(xg, images[yg], apply_fn).expr,
                    (_act(yg, images[xg], apply_fn).expr, -1),
                    *(((images[gen] if gen in images else _act(gen, st, apply_fn)).expr, -coeff)
                      for coeff, gen in rhs))


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
        residuals.append(_combine(h, (product, -1), (probe, -separated_eigenvalue(family, idx))))
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
        dc = ops.cprime(ParamPoint.of(*ops.SHIFTS[op]))
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
