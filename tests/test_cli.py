"""CLI surface: outputs, round-trips, exit codes."""

import json

import pytest

from ladderspec import ParamPoint, bound_spectrum
from ladderspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--l0", "0", "--l1", "0",
                               "--l2", "-5")
        assert code == 0
        doc = json.loads(out)
        rep = bound_spectrum(ParamPoint.of(0, 0, -5))
        assert doc == rep.to_dict()
        assert [lv["energy"] for lv in doc["levels"]] == ["-35/4", "-3/4"]
        assert [lv["degeneracy"] for lv in doc["levels"]] == [1, 2]

    def test_inadmissible_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--l2", "-2")
        assert code == 2
        assert "error" in err

    def test_exact_rational_strings(self, capsys):
        # negative rationals with a slash need the --flag=value form
        code, out, _ = run_cli(capsys, "spectrum", "--l0", "1/2", "--l2=-13/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == ["1/2", "0", "-13/2"]


class TestState:
    def test_degenerate_partner(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--l0", "1", "--l2", "-4",
                               "--word", "C+,A+")
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == ["0", "0", "-5"]
        assert doc["eigenvalue"] == "-3/4"
        assert doc["terms"]

    def test_rejects_unknown_word(self, capsys):
        code, _, _ = run_cli(capsys, "state", "--l0", "1", "--l2", "-4",
                             "--word", "Q+")
        assert code == 2


class TestVerify:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--probes", "2")
        code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--probes", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "FAIL" not in out1

    def test_zero_probes_exits_2(self, capsys):
        # zero probes would report every identity as holding unchecked
        code, out, err = run_cli(capsys, "verify", "--probes", "0")
        assert code == 2
        assert out == ""
        assert "probes" in err


class TestLattice:
    def test_json_plane(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--l0", "0", "--l2", "-3",
                               "--depth", "3")
        assert code == 0
        doc = json.loads(out)
        from fractions import Fraction
        for nd in doc["nodes"]:
            l0, l1, l2 = (Fraction(x) for x in nd["label"])
            assert l1 + l2 - l0 == -3
        assert doc["energy"] == "-3/4"

    def test_three_planes_same_energy(self, capsys):
        energies = set()
        for l0, l2 in (("0", "-3"), ("1", "-4"), ("2", "-5")):
            code, out, _ = run_cli(capsys, "lattice", "--l0", l0, "--l2", l2,
                                   "--depth", "2")
            assert code == 0
            energies.add(json.loads(out)["energy"])
        assert energies == {"-3/4"}

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--l0", "0", "--l2", "-3",
                               "--depth", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"0,0,-3"' in out

    def test_depth_zero_single_node(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--l0", "0", "--l2", "-3",
                               "--depth", "0")
        doc = json.loads(out)
        assert len(doc["nodes"]) == 1

    def test_inadmissible_vertex(self, capsys):
        code, _, _ = run_cli(capsys, "lattice", "--l0", "0", "--l2", "-2")
        assert code == 2

    def test_negative_depth_exits_2(self, capsys):
        # a negative depth never equals the walk's depth, so it would not stop
        code, out, err = run_cli(capsys, "lattice", "--l0", "0", "--l2", "-3",
                                 "--depth", "-1")
        assert code == 2
        assert out == ""
        assert "depth" in err


class TestSample:
    def test_grid_shape_and_decay(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--l0", "0", "--l2", "-5",
                               "--grid", "64", "--cutoff", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,xi,value"
        assert len(lines) == 1 + 64 * 64
        # exponential decay toward the xi cutoff
        import collections
        by_xi = collections.defaultdict(list)
        for ln in lines[1:]:
            th, xi, v = (float(tok) for tok in ln.split(","))
            by_xi[xi].append(abs(v))
        xs = sorted(by_xi)
        assert max(by_xi[xs[-1]]) < 1e-3 * max(max(vs) for vs in by_xi.values())

    def test_orthogonal_partners(self, capsys):
        # the two independent states at the shared label are orthogonal after
        # Gram-Schmidt, both exactly and on a sampled midpoint grid
        import numpy as np
        from fractions import Fraction
        from ladderspec import (OperatorName as O, LabeledState, apply_word,
                                eval_grid, ground_full, inner, normalize)
        v = ground_full(1, -4)
        s1, _ = normalize(apply_word((O.C_PLUS, O.A_PLUS), v))
        s2raw = apply_word((O.A_PLUS, O.C_PLUS), v)
        overlap = inner(s2raw.expr, s1.expr)
        s2raw = LabeledState(s2raw.label,
                             s2raw.expr - s1.expr.scale(Fraction(overlap)))
        s2, _ = normalize(s2raw)
        assert abs(inner(s1.expr, s2.expr)) < 1e-9
        n, cutoff = 200, 14.0
        ths = (np.arange(n) + 0.5) * (np.pi / 2) / n
        xis = (np.arange(n) + 0.5) * cutoff / n
        w = np.sinh(xis)[None, :] * (np.pi / 2 / n) * (cutoff / n)
        g1, g2 = eval_grid(s1.expr, ths, xis), eval_grid(s2.expr, ths, xis)
        assert abs(float((g1 * g2 * w).sum())) < 1e-3

    def test_zero_grid_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--l0", "0", "--l2", "-5",
                                 "--grid", "0")
        assert code == 2
        assert out == ""
        assert "--grid" in err

    def test_zero_state_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--l0", "0", "--l2", "-3",
                             "--word", "A+")
        assert code == 2

    @pytest.mark.parametrize("cutoff", ["-1", "0", "nan", "inf"])
    def test_cutoff_must_be_finite_and_positive(self, capsys, cutoff):
        code, out, err = run_cli(capsys, "sample", "--l0", "0", "--l2", "-5",
                                 "--grid", "2", f"--cutoff={cutoff}")
        assert code == 2
        assert out == ""
        assert "--cutoff" in err and cutoff in err


class TestCrosscheck:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--l0", "0", "--l1", "0",
                               "--l2", "-5", "--grid", "1500")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_diff"] < 1e-3
        assert doc["grid"]["n"] == 1500
        # numeric multiplicities reproduce the exact degeneracies
        assert [lv["numeric_multiplicity"] for lv in doc["levels"]] == \
            [lv["degeneracy"] for lv in doc["levels"]]

    def test_coarse_grid_fails_with_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--l0", "0", "--l1", "0",
                               "--l2", "-5", "--grid", "64")
        assert code == 1

    def test_deep_target_multiplicities(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--l0", "0", "--l1", "0",
                               "--l2", "-7", "--grid", "2000")
        assert code == 0
        doc = json.loads(out)
        assert [(lv["energy"], lv["numeric_multiplicity"]) for lv in doc["levels"]] \
            == [("-99/4", 1), ("-35/4", 2), ("-3/4", 3)]

    @pytest.mark.parametrize("cutoff", ["inf", "nan", "0"])
    def test_cutoff_must_be_finite_and_positive(self, capsys, cutoff):
        code, out, err = run_cli(capsys, "crosscheck", "--l0", "1", "--l1", "1",
                                 "--l2", "-6", f"--cutoff={cutoff}")
        assert code == 2
        assert out == ""
        assert "cutoff" in err and cutoff in err

    def test_unmatched_level_is_strict_json_null(self, capsys):
        # 48 points bind no level near -15/4; the output must still be strict JSON
        code, out, _ = run_cli(capsys, "crosscheck", "--l0", "1", "--l1", "1",
                               "--l2", "-6", "--grid", "48")
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["max_abs_diff"] is None
        level = doc["levels"][0]
        assert level["energy"] == "-15/4"
        assert level["numeric"] is None and level["abs_diff"] is None
        assert level["numeric_multiplicity"] == 0
