"""End-to-end acceptance checklist.

Each check prints one `[PASS]`/`[FAIL]` line (run `pytest -s` to see them all)
and enforces its stated tolerance.  Two checks marked `legacy` encode a level
count that is sometimes quoted for this Hamiltonian family but is refuted
independently by the exact ladder enumeration, by the closed-form separation
analysis, and by the finite-difference eigensolver; they fail, on purpose,
and document the discrepancy.  Everything else must pass.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ladderspec import (GridSpec, LabeledState, OperatorName, ParamPoint,
                        apply_hamiltonian, apply_word, bound_spectrum, cprime,
                        enumerate_lattice, gram_matrix, gram_rank,
                        ground_full, hamiltonian_from_casimir, lattice_states,
                        normalize, residual_on_grid, run_suite, solve_theta,
                        solve_xi, states_at, vertex_energy)

from conftest import quadrature_oracle

O = OperatorName


def report(ok: bool, label: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def test_01_exact_algebra_suite():
    """36 brackets, factorizations, intertwinings, A-B+C=0: exact, < 10 s."""
    t0 = time.monotonic()
    results = run_suite(seed=0, probes=5)
    elapsed = time.monotonic() - t0
    failures = [r.name for r in results if not r.passed]
    ok = not failures and elapsed < 10.0
    assert report(ok, f"exact algebra suite ({len(results)} identities, "
                      f"{elapsed:.1f} s)"), failures


def test_02_casimir_identity():
    """H equals -4*Casimir + Cprime^2/3 - 15/4 on ladder eigenstates, < 10 s."""
    t0 = time.monotonic()
    words = {
        ParamPoint.of(0, 0, -3): [(), (O.C_PLUS,), (O.C_PLUS, O.C_PLUS),
                                  (O.A_PLUS, O.C_PLUS)],
        ParamPoint.of(1, 0, -4): [(), (O.A_PLUS,), (O.C_PLUS, O.A_PLUS),
                                  (O.A_PLUS, O.C_PLUS)],
        ParamPoint.of(2, 0, -5): [(), (O.A_PLUS, O.A_PLUS),
                                  (O.C_PLUS, O.A_PLUS, O.C_PLUS)],
    }
    states = []
    for vertex, ws in words.items():
        for w in ws:
            st = apply_word(w, ground_full(vertex.l0, vertex.l2))
            assert not st.is_zero
            states.append(st)
    assert len(states) >= 10 and len(words) >= 3
    ok = all((hamiltonian_from_casimir(st) - apply_hamiltonian(st)).is_zero
             for st in states)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    assert report(ok, f"Casimir identity on {len(states)} eigenstates "
                      f"across {len(words)} representations ({elapsed:.1f} s)")


def test_03_energy_formula():
    """H on the joint vacuum returns -(l0+l2+3/2)(l0+l2+5/2) exactly."""
    params = [(0, -5), (1, -4), (2, -5), (0, -3), ("1/2", "-7/2"),
              ("3/2", "-9/2"), (0, "-7/2"), (5, -9), ("1/3", "-10/3"),
              ("7/2", "-13/2")]
    ok = True
    for l0, l2 in params:
        st = ground_full(l0, l2)
        ok &= apply_hamiltonian(st) == st.expr.scale(vertex_energy(l0, l2))
    ok &= vertex_energy(0, -5) == Fraction(-35, 4)
    assert report(ok, f"vacuum energy formula on {len(params)} parameter points")


def test_04_degenerate_pair():
    """Both raising orders from (1,0,-4) span a true 2D eigenspace."""
    v = ground_full(1, -4)
    s1 = apply_word((O.C_PLUS, O.A_PLUS), v)
    s2 = apply_word((O.A_PLUS, O.C_PLUS), v)
    assert s1.label == s2.label == ParamPoint.of(0, 0, -5)
    rank = gram_rank([s1, s2])
    smin = float(np.linalg.svd(gram_matrix([s1, s2]), compute_uv=False)[-1])
    ok = rank == 2 and smin > 1e-6
    assert report(ok, f"degenerate pair at (0,0,-5): rank {rank}, "
                      f"smallest singular value {smin:.3f}")


def test_05_spectrum_of_deep_vertex():
    """Bound spectrum at (0,0,-5); Gram rank is the degeneracy authority."""
    rep = bound_spectrum(ParamPoint.of(0, 0, -5))
    energies = [lv.energy for lv in rep.levels]
    degs = [lv.degeneracy for lv in rep.levels]
    ok = energies[0] == Fraction(-35, 4) and degs[0] == 1
    ok &= energies[-1] == Fraction(-3, 4) and degs[-1] == 2
    # first excited level: the two counting rules in circulation predict the
    # excitation index n itself or n+1; the Gram rank decides
    first_excited = rep.levels[1]
    n_inner = (first_excited.vertex.l0 + first_excited.vertex.l2
               - (rep.target.l0 + rep.target.l2)) // 2
    rule_index, rule_index_plus_one = n_inner, n_inner + 1
    ok &= first_excited.degeneracy == rule_index_plus_one
    assert report(ok, "spectrum(0,0,-5): "
                  f"energies {[str(e) for e in energies]}, degeneracies {degs}; "
                  f"first excited: gram={first_excited.degeneracy}, "
                  f"index rule={rule_index}, index+1 rule={rule_index_plus_one} "
                  "(gram agrees with index+1)")


def test_05_legacy_three_level_claim():
    """Legacy count: three levels -35/4, -15/4, -3/4 at (0,0,-5).

    The intermediate -15/4 level does not exist: raising words shift the
    vertex sum l0+l2 by exactly two per excitation (a parity invariant of the
    ladder), the closed-form separation spectrum 1/4 - (2(n+m) - 3)^2 never
    hits -15/4, and the independent eigensolver finds no eigenvalue there
    (see the xi-channel legacy check).  This test records the discrepancy and
    is expected to fail.
    """
    rep = bound_spectrum(ParamPoint.of(0, 0, -5))
    energies = [lv.energy for lv in rep.levels]
    expected = [Fraction(-35, 4), Fraction(-15, 4), Fraction(-3, 4)]
    report(energies == expected,
           f"legacy three-level count: engine found {[str(e) for e in energies]}")
    assert energies == expected, (
        "exactly two bound levels exist; the quoted -15/4 level is "
        "unreachable (ladder parity) and absent from the numeric spectrum")


def test_06_theta_oracle():
    """FD eigensolver reproduces (1+l0+l1+2n)^2 to 1e-4 relative, < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(11)
    pool = [0, "1/2", 1, "3/2", 2, "5/2", 3]
    grid = GridSpec("theta", 4000)
    worst = 0.0
    for _ in range(5):
        l0, l1 = rng.choice(pool), rng.choice(pool)
        res = solve_theta(l0, l1, grid)
        base = 1 + Fraction(l0) + Fraction(l1)
        for n, got in enumerate(res.eigenvalues[:3]):
            want = float((base + 2 * n) ** 2)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    assert report(ok, f"theta eigensolver vs ladder formula: worst relative "
                      f"error {worst:.2e} ({elapsed:.1f} s)")


def test_06_xi_oracle_composite():
    """xi channels reproduce the exact spectrum, energies and multiplicities."""
    t0 = time.monotonic()
    grid = GridSpec("xi", 2000, cutoff=25.0)
    rep = bound_spectrum(ParamPoint.of(0, 0, -5))
    hits = []
    for n in itertools.count():
        alpha = float((1 + 2 * n) ** 2)
        evs = solve_xi(-5, alpha, grid).eigenvalues
        if not evs:
            break
        hits.extend(evs)
    ok = True
    for lv in rep.levels:
        close = [e for e in hits if abs(e - float(lv.energy)) < 1e-3]
        ok &= len(close) == lv.degeneracy
    ok &= len(hits) == sum(lv.degeneracy for lv in rep.levels)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert report(ok, f"xi channels: {len(hits)} numeric states match the "
                      f"exact levels and multiplicities to 1e-3 ({elapsed:.1f} s)")


def test_06_legacy_xi_middle_level():
    """Legacy claim: the alpha = 9 channel binds a state at -15/4.

    The channel's only bound state sits at -3/4 (it is the second member of
    the doubly degenerate top level).  Expected to fail; kept as the numeric
    half of the level-count discrepancy record.
    """
    grid = GridSpec("xi", 2000, cutoff=25.0)
    evs = solve_xi(-5, 9.0, grid).eigenvalues
    got = evs[0] if evs else None
    report(got is not None and abs(got + 15 / 4) < 1e-3,
           f"legacy -15/4 channel: alpha=9 lowest numeric level is {got}")
    assert got is not None and abs(got + 15 / 4) < 1e-3, (
        "alpha=9 binds only -3/4; no eigenvalue near -15/4 exists")


def test_07_residual_richardson():
    """Grid residual of the vacuum at (0,0,-5) decays at second order."""
    st = ground_full(0, -5)
    vals = [residual_on_grid(st, "-35/4", GridSpec("theta", n),
                             GridSpec("xi", n, cutoff=12.0))
            for n in (515, 1031, 2063)]
    slopes = [math.log2(vals[i] / vals[i + 1]) for i in range(2)]
    ok = all(s >= 1.9 for s in slopes)
    assert report(ok, f"residual Richardson slopes {['%.2f' % s for s in slopes]}")


def test_08_three_lattices_one_energy():
    """Vertices (0,0,-3), (1,0,-4), (2,0,-5): planar lattices, energy -3/4."""
    ok = True
    for l0, l2 in ((0, -3), (1, -4), (2, -5)):
        vertex = ParamPoint.of(l0, 0, l2)
        pts = enumerate_lattice(vertex, "su21", 3)
        planes = {cprime(pt.label) for pt in pts}
        ok &= len(planes) == 1
        for sts in lattice_states(vertex, "su21", 3).values():
            for st in sts:
                ok &= apply_hamiltonian(st) == st.expr.scale(Fraction(-3, 4))
    assert report(ok, "three lattices: single invariant plane each, "
                      "every state an exact -3/4 eigenstate")


def test_09_normalization_oracle():
    """1/sqrt(inner) for the (0,0,-3) vacuum matches 2D quadrature to 1e-8."""
    st = ground_full(0, -3)
    const = normalize(st)
    oracle = 1.0 / math.sqrt(quadrature_oracle(st.expr * st.expr))
    diff = abs(const - oracle)
    ok = diff < 1e-8
    assert report(ok, f"normalization vs adaptive quadrature: |diff| = {diff:.2e}")
