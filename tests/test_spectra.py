"""Ground states, lattices, degeneracies and bound spectra."""

import itertools
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderspec import (AdmissibilityError, LabeledState, OperatorName,
                        ParamPoint, apply, apply_hamiltonian, apply_word,
                        bound_spectrum, cprime, enumerate_lattice, gram_rank,
                        ground_full, inner, is_normalizable, lattice_states,
                        monomial, normalize, states_at, vertex_energy)
from ladderspec.cli import main as cli_main
from ladderspec.operators import SHIFTS
from ladderspec.spectra import RAISING, _ground, _reaches

from conftest import quadrature_oracle

O = OperatorName
LOWERING_SU21 = (O.A_MINUS, O.B_MINUS, O.C_MINUS)
LOWERING_SO42 = LOWERING_SU21 + (O.ATILDE_MINUS, O.BTILDE_MINUS, O.CTILDE_MINUS)


class TestGroundStates:
    def test_ground_theta_shape(self):
        assert _ground("A", 0, 0) == monomial(1, "1/2", "1/2")
        st = LabeledState(ParamPoint.of(0, 0, 0), _ground("A", 0, 0))
        assert apply(O.A_MINUS, st).is_zero

    def test_ground_chi_admissible(self):
        assert _ground("B", 0, -3) == monomial(1, 0, 0, "-5/2", "1/2")

    def test_ground_chi_rejects(self):
        with pytest.raises(AdmissibilityError, match="chi ground state needs .*r\\+s < 0"):
            _ground("B", 0, -1)

    def test_ground_beta_rejects_boundary(self):
        with pytest.raises(AdmissibilityError, match="beta ground state needs .*r\\+s < 0"):
            _ground("C", 1, 0)

    def test_ground_theta_rejects(self):
        with pytest.raises(AdmissibilityError):
            _ground("A", -1, 0)

    def test_ground_full_shape(self):
        st = ground_full(0, -5)
        assert st.label == ParamPoint.of(0, 0, -5)
        assert st.expr == monomial(1, "1/2", "1/2", "-9/2", 1)

    def test_ground_full_annihilated(self):
        st = ground_full(1, -4)
        for op in LOWERING_SU21:
            assert apply(op, st).is_zero

    def test_ground_full_normalization_bound(self):
        with pytest.raises(AdmissibilityError, match="-5/2"):
            ground_full(0, -2)

    def test_so42_vacuum(self):
        # the l0 = 0 vertex, annihilated by the tilde lowerings as well
        vac = ground_full(0, -3)
        assert vac.expr == monomial(1, "1/2", "1/2", "-5/2", 1)
        for op in LOWERING_SO42:
            assert apply(op, vac).is_zero

    def test_so42_vacuum_boundary(self):
        with pytest.raises(AdmissibilityError):
            ground_full(0, "-5/2")


class TestVertexEnergy:
    def test_example_values(self):
        assert vertex_energy(0, -5) == Fraction(-35, 4)
        assert vertex_energy(1, -4) == Fraction(-3, 4)
        assert vertex_energy(0, "-3/2") == 0

    def test_depends_only_on_sum(self):
        assert vertex_energy(0, -3) == vertex_energy(1, -4) == vertex_energy(2, -5)


class TestLattice:
    def test_su21_depth_one(self):
        pts = enumerate_lattice(ParamPoint.of(0, 0, -3), "su21", 1)
        labels = {pt.label for pt in pts}
        # the A-raising annihilates the l0=0 vertex, only the C-raising survives
        assert labels == {ParamPoint.of(0, 0, -3), ParamPoint.of(0, 1, -4)}

    def test_depth_zero(self):
        pts = enumerate_lattice(ParamPoint.of(0, 0, -3), "so42", 0)
        assert [pt.label for pt in pts] == [ParamPoint.of(0, 0, -3)]

    def test_cprime_plane(self):
        pts = enumerate_lattice(ParamPoint.of(1, 0, -4), "su21", 4)
        assert {cprime(pt.label) for pt in pts} == {Fraction(-5)}

    def test_all_states_are_eigenstates(self):
        for v in (ParamPoint.of(0, 0, -3), ParamPoint.of(1, 0, -4)):
            e = vertex_energy(v.l0, v.l2)
            for sts in lattice_states(v, "su21", 3).values():
                for st in sts:
                    assert apply_hamiltonian(st) == st.expr.scale(e)

    def test_so42_contains_inner_vertex(self):
        pts = enumerate_lattice(ParamPoint.of(0, 0, -3), "so42", 2)
        assert ParamPoint.of(0, 0, -5) in {pt.label for pt in pts}

    def test_inadmissible_vertex(self):
        with pytest.raises(AdmissibilityError):
            enumerate_lattice(ParamPoint.of(0, 0, -2), "su21", 2)

    def test_unknown_algebra(self):
        with pytest.raises(ValueError, match="unknown algebra 'su3'"):
            enumerate_lattice(ParamPoint.of(0, 0, -5), "su3", 1)

    def test_vertex_off_the_l1_zero_plane(self):
        with pytest.raises(AdmissibilityError, match="vertices carry l1 = 0"):
            enumerate_lattice(ParamPoint.of(0, 1, -5), "su21", 1)


class TestStatesAt:
    def test_degenerate_pair(self):
        sts = states_at(ParamPoint.of(1, 0, -4), ParamPoint.of(0, 0, -5))
        assert len(sts) == 2
        assert gram_rank(sts) == 2

    def test_vertex_is_its_own_state(self):
        sts = states_at(ParamPoint.of(0, 0, -5), ParamPoint.of(0, 0, -5))
        assert len(sts) == 1

    def test_unreachable_target(self):
        assert states_at(ParamPoint.of(0, 0, -4), ParamPoint.of(0, 0, -5)) == []

    def test_deeper_level_rank(self):
        # two raising steps of each kind; the eigenspace here is 3-dimensional
        # (three separated channels share the energy), and the word states hit
        # all of it
        sts = states_at(ParamPoint.of(2, 0, -5), ParamPoint.of(0, 0, -7))
        assert gram_rank(sts) == 3

    def test_so42_inner_vertex_is_doubly_degenerate(self):
        # the first inner vertex of the big-representation pyramid carries the
        # full 2D eigenspace
        sts = states_at(ParamPoint.of(0, 0, -3), ParamPoint.of(0, 0, -5), "so42")
        assert gram_rank(sts) == 2


class TestGramRank:
    def test_proportional_states(self):
        st = ground_full(0, -5)
        double = LabeledState(st.label, st.expr.scale(2))
        assert gram_rank([st, double]) == 1

    def test_empty(self):
        assert gram_rank([]) == 0

    def test_rescaling_invariance(self):
        sts = states_at(ParamPoint.of(1, 0, -4), ParamPoint.of(0, 0, -5))
        scaled = [LabeledState(s.label, s.expr.scale(Fraction(7, 3))) for s in sts]
        assert gram_rank(scaled) == gram_rank(sts)

    def test_mixed_labels_rejected(self):
        with pytest.raises(ValueError):
            gram_rank([ground_full(0, -5), ground_full(0, -3)])


class TestNormalize:
    def test_unit_norm_after(self):
        const = normalize(ground_full(0, -5))
        unit = ground_full(0, -5).expr.scale(Fraction(const))
        assert inner(unit, unit) == pytest.approx(1.0, abs=1e-12)
        assert const > 0

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            normalize(LabeledState(ParamPoint.of(0, 0, -5), monomial(0)))

    def test_constant_matches_quadrature(self):
        st = ground_full(0, -3)
        const = normalize(st)
        oracle = 1.0 / math.sqrt(quadrature_oracle(st.expr * st.expr))
        assert abs(const - oracle) < 1e-8


class TestBoundSpectrum:
    def test_h5_levels(self):
        rep = bound_spectrum(ParamPoint.of(0, 0, -5))
        energies = [lv.energy for lv in rep.levels]
        degs = [lv.degeneracy for lv in rep.levels]
        assert energies == [Fraction(-35, 4), Fraction(-3, 4)]
        assert degs == [1, 2]

    def test_energies_strictly_increasing_and_negative(self):
        for target in (ParamPoint.of(0, 0, -5), ParamPoint.of(0, 0, -7),
                       ParamPoint.of("1/2", 0, "-13/2")):
            rep = bound_spectrum(target)
            es = [lv.energy for lv in rep.levels]
            assert all(e < 0 for e in es)
            assert all(a < b for a, b in zip(es, es[1:]))

    def test_every_witness_is_an_eigenstate(self):
        from ladderspec import apply_word
        rep = bound_spectrum(ParamPoint.of(0, 0, -7))
        for lv in rep.levels:
            vstate = ground_full(lv.vertex.l0, lv.vertex.l2)
            for word in lv.witnesses:
                st = apply_word(word, vstate)
                assert apply_hamiltonian(st) == st.expr.scale(lv.energy)

    def test_inadmissible_target(self):
        with pytest.raises(AdmissibilityError):
            bound_spectrum(ParamPoint.of(0, 0, -2))

    def test_off_plane_target(self):
        # a label with l1 != 0 belongs to representations seeded higher up
        rep = bound_spectrum(ParamPoint.of(0, 1, -4))
        assert rep.levels[0].vertex == ParamPoint.of(0, 0, -3)
        assert rep.levels[0].energy == Fraction(-3, 4)

    def test_degeneracy_ladder_deep_target(self):
        # independent count: separated channels alpha_n = (1+2n)^2 at l2 = -7
        # give E(n,m) = 1/4 - (2(n+m)-5)^2 for n+m < 5/2, hence degeneracies
        # 1, 2, 3 from the pair counts at each energy
        rep = bound_spectrum(ParamPoint.of(0, 0, -7))
        assert [(lv.energy, lv.degeneracy) for lv in rep.levels] == [
            (Fraction(-99, 4), 1), (Fraction(-35, 4), 2), (Fraction(-3, 4), 3)]

    def test_degeneracy_ladder_shifted_vertex(self):
        # same counting with l0 = 1: channels (2+2n)^2, E = 1/4-(2(n+m)-3)^2
        rep = bound_spectrum(ParamPoint.of(1, 0, -6))
        assert [(lv.energy, lv.degeneracy) for lv in rep.levels] == [
            (Fraction(-35, 4), 1), (Fraction(-3, 4), 2)]

    def test_level_walk_stops_only_at_normalizability(self, monkeypatch):
        # at (0,0,-141) the level sums -141+2k stay below -5/2 for k = 0..69;
        # one stub witness per level keeps the walk itself cheap
        from ladderspec import spectra
        monkeypatch.setattr(spectra, "_witnesses",
                            lambda v, t, a: [((), ground_full(v.l0, v.l2))])
        monkeypatch.setattr(spectra, "normalize", lambda st: 1.0)
        rep = bound_spectrum(ParamPoint.of(0, 0, -141))
        assert len(rep.levels) == 70
        assert rep.levels[-1].vertex == ParamPoint.of(69, 0, -72)


def separated_levels(l0, l1, l2):
    """(energy, degeneracy) per level from the separated closed form: level k
    has depth d = |l2|-2-|l0|-|l1|-2k, bound while d > 1/2, with energy
    1/4 - d^2 and one state per theta channel n <= k."""
    levels = []
    for k in itertools.count():
        d = abs(l2) - 2 - abs(l0) - abs(l1) - 2 * k
        if not d > Fraction(1, 2):
            return levels
        levels.append((Fraction(1, 4) - d * d, k + 1))


@settings(max_examples=100)
@given(l0=st.integers(0, 8).map(lambda n: Fraction(n, 4)),
       l1=st.integers(0, 3).map(Fraction),
       l2=st.integers(-18, -10).map(lambda n: Fraction(n, 2)),
       signs=st.tuples(*[st.sampled_from((1, -1))] * 3))
def test_bound_spectrum_solves_the_branch_label(l0, l1, l2, signs):
    # H sees l_i only through l_i^2; every sign pattern solves (|l0|, |l1|, -|l2|)
    branch = ParamPoint(l0, l1, l2)
    signed = ParamPoint(*(s * x for s, x in zip(signs, branch.astuple())))
    want = separated_levels(l0, l1, l2)
    if not want:
        for label in (signed, branch):
            with pytest.raises(AdmissibilityError):
                bound_spectrum(label)
        return
    rep = bound_spectrum(branch)
    assert rep.target == branch
    assert [(lv.energy, lv.degeneracy) for lv in rep.levels] == want
    assert bound_spectrum(signed).to_dict() == rep.to_dict()


# -- exact degeneracy: span-based generation against independent oracles ----

def dense_q_rank(exprs) -> int:
    """Rank over Q by dense Gauss-Jordan elimination on the coefficients."""
    rows = [{m.key: m.coeff for m in e.terms} for e in exprs]
    keys = sorted({k for r in rows for k in r})
    mat = [[r.get(k, Fraction(0)) for k in keys] for r in rows]
    rank = 0
    for col in range(len(keys)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def all_word_states(vertex: ParamPoint, target: ParamPoint) -> list:
    """Every su(2,1) raising word from vertex to target, applied whole;
    zero and non-normalizable images dropped."""
    a, c = int(vertex.l0 - target.l0), int(vertex.l2 - target.l2)
    vstate = ground_full(vertex.l0, vertex.l2)
    out = []
    for word in set(itertools.permutations([O.A_PLUS] * a + [O.C_PLUS] * c)):
        st = apply_word(word, vstate)
        assert st.label == target
        if not st.is_zero and is_normalizable(st.expr):
            out.append(st)
    return out


def closed_form_levels(target: ParamPoint):
    """(energy, degeneracy, vertex) per level from the separation count."""
    s0 = target.l0 + target.l1 + target.l2
    k = 0
    while s0 + 2 * k < Fraction(-5, 2):
        yield (vertex_energy(target.l0 + k, target.l1 + target.l2 + k), k + 1,
               ParamPoint(target.l0 + k, Fraction(0), target.l2 + target.l1 + k))
        k += 1


# l0 in {0, 1/2, 1}, l1 in {0, 1}; level sums l0+l1+l2 of -6 (shallow) and -7
BOX = [(ParamPoint(Fraction(l0), Fraction(l1), Fraction(s) - l0 - l1), s == -6)
       for l0 in (Fraction(0), Fraction(1, 2), Fraction(1))
       for l1 in (0, 1) for s in (-6, -7)]


class TestExactDegeneracy:
    def test_dependent_words_are_not_counted(self):
        # the float Gram rank read [1, 2, 7, 25] here: dependent directions
        # sat at singular values near its 1e-9 relative threshold
        rep = bound_spectrum(ParamPoint.of(1, 2, -12))
        assert [lv.degeneracy for lv in rep.levels] == [1, 2, 3, 4]

    def test_lattice_degeneracy_is_the_exact_rank(self, capsys):
        assert cli_main(["lattice", "--l0=1", "--l2=-9", "--algebra", "su21",
                         "--depth", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        vertex = ParamPoint.of(1, 0, -9)
        degs = {}
        for node in doc["nodes"]:
            label = ParamPoint.of(*node["label"])
            want = dense_q_rank(s.expr for s in all_word_states(vertex, label))
            assert node["degeneracy"] == want, node["label"]
            degs[label] = node["degeneracy"]
        # the node the float Gram rank over-counted as 3
        assert degs[ParamPoint.of(0, 4, -14)] == 2

    @pytest.mark.parametrize("target,shallow", BOX,
                             ids=[str(t) for t, _ in BOX])
    def test_separation_count_and_witnesses(self, target, shallow):
        rep = bound_spectrum(target)
        want = list(closed_form_levels(target))
        assert [(lv.energy, lv.degeneracy, lv.vertex) for lv in rep.levels] == want
        for k, lv in enumerate(rep.levels):
            assert len(lv.witnesses) == lv.degeneracy == len(rep.normalizations[k])
            assert list(lv.witnesses) == sorted(lv.witnesses)
            vstate = ground_full(lv.vertex.l0, lv.vertex.l2)
            replayed = [apply_word(word, vstate) for word in lv.witnesses]
            for st in replayed:
                assert st.label == target
                assert apply_hamiltonian(st) == st.expr.scale(lv.energy)
            assert dense_q_rank(st.expr for st in replayed) == lv.degeneracy
            if shallow:
                sts = states_at(lv.vertex, target)
                assert gram_rank(sts) == len(sts) == lv.degeneracy


class TestReachability:
    @pytest.mark.parametrize("algebra", ["su21", "so42"])
    def test_closed_form_matches_word_enumeration(self, algebra):
        # a reachable shift in this box needs at most 9 raisings, so words
        # of up to 12 letters decide reachability
        shifts = [SHIFTS[op] for op in RAISING[algebra]]
        reachable = set()
        for counts in itertools.product(range(13), repeat=len(shifts)):
            if sum(counts) <= 12:
                reachable.add(tuple(sum(k * sh[i] for k, sh in zip(counts, shifts))
                                    for i in range(3)))
        origin = ParamPoint.of(0, 0, 0)
        for d in itertools.product(range(-3, 4), range(-3, 4), range(-3, 2)):
            assert _reaches(origin, ParamPoint.of(*d), algebra) == (d in reachable), d
        assert not _reaches(origin, ParamPoint.of("-1/2", "-1/2", 0), algebra)


class TestNormalizeRejectsBadNorm:
    def test_negative_float_norm_is_a_typed_error(self, capsys):
        # float cancellation in the integral gives norm^2 ~ -8e18 here
        word = ",".join(["A+"] * 7 + ["C+"] * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["state", "--l0=7", "--l2=-14", "--word", word])
        err = capsys.readouterr().err
        assert code == 2
        assert "(0, 0, -21)" in err and "norm squared" in err
