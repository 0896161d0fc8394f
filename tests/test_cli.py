"""CLI surface: outputs, round-trips, exit codes."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import ladderspec
from ladderspec import ParamPoint, bound_spectrum
from ladderspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# every public name of the package; the numeric ones resolve on first use
EXPORTS = (
    "DivergenceError DomainError FunExpr Monomial d_theta d_xi eval_at eval_grid "
    "inner integral is_normalizable monomial rational "
    "IdentityResult run_suite "
    "EigenResult GridSpec ParameterError TruncationWarning residual_on_grid "
    "solve_theta solve_xi numeric "
    "LabeledState OperatorName ParamPoint VariableMismatchError apply "
    "apply_casimir apply_hamiltonian apply_separated apply_word cprime "
    "diag_eigenvalue hamiltonian_from_casimir reflect separated_eigenvalue "
    "separated_ladder verify_intertwining "
    "AdmissibilityError EnergyLevel LatticePoint SpectrumReport bound_spectrum "
    "enumerate_lattice gram_matrix gram_rank ground_full lattice_states normalize "
    "states_at vertex_energy").split()

# the exact subcommands; none of them touches a float array
EXACT_COMMANDS = (["spectrum", "--l2=-5"], ["state", "--l0=0", "--l2=-5"],
                  ["verify", "--probes=1"], ["lattice", "--l2=-5", "--depth=1"])

STARTUP_PROBE = """
import sys
def loaded():
    return sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})
import ladderspec
print('import ladderspec', loaded())
import ladderspec.cli
ladderspec.cli.build_parser()
print('build_parser', loaded())
for i, argv in enumerate(COMMANDS):
    code = ladderspec.cli.main(argv + ['--out', OUT + '/%d.out' % i])
    print(argv[0], code, loaded())
print('sample', ladderspec.cli.main(['sample', '--l2=-5', '--grid=2',
                                    '--out', OUT + '/sample.csv']))
from ladderspec import GridSpec, solve_xi, ParameterError
print('numeric', loaded())
print('missing', [n for n in EXPORTS if not hasattr(ladderspec, n)])
"""


class TestStartup:
    def test_import_and_parser_skip_scipy(self, tmp_path):
        # numpy and scipy load in sample, crosscheck and the numeric layer only;
        # scipy only once a solver runs, as every benchmark worker imports numeric
        src = os.path.dirname(os.path.dirname(os.path.abspath(ladderspec.__file__)))
        code = (f"COMMANDS = {EXACT_COMMANDS!r}\nOUT = {str(tmp_path)!r}\n"
                f"EXPORTS = {EXPORTS!r}\n" + STARTUP_PROBE)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.splitlines() == [
            "import ladderspec []", "build_parser []", "spectrum 0 []", "state 0 []",
            "verify 0 []", "lattice 0 []", "sample 0", "numeric ['numpy']", "missing []"]
        for i in range(len(EXACT_COMMANDS)):
            assert (tmp_path / f"{i}.out").read_text(encoding="utf-8")
        assert len((tmp_path / "sample.csv").read_text(encoding="utf-8").splitlines()) == 5

    def test_lazy_exports_are_the_numeric_objects(self):
        assert ladderspec.GridSpec is ladderspec.numeric.GridSpec
        with pytest.raises(AttributeError, match="no attribute 'solve'"):
            ladderspec.solve


class TestOutFile:
    def test_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "spectrum.json"
        code, out, err = run_cli(capsys, "spectrum", "--l2=-5", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.parent.exists()

    def test_writes_the_stdout_text(self, capsys, tmp_path):
        path = tmp_path / "spectrum.json"
        _, printed, _ = run_cli(capsys, "spectrum", "--l2=-5")
        assert run_cli(capsys, "spectrum", "--l2=-5", "--out", str(path))[:2] == (0, "")
        assert path.read_text(encoding="utf-8") + "\n" == printed


    def test_stdout_ends_with_a_newline_after_the_last_chunk(self, capsys):
        from ladderspec.cli import _emit
        for chunks, printed in (([], "\n"), (["a", "b"], "ab\n"), (["a", "b\n"], "ab\n"),
                                (["a\n", ""], "a\n\n"), (["a\n", "b"], "a\nb\n")):
            _emit(iter(chunks), None)
            assert capsys.readouterr().out == printed


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

    def test_zero_denominator_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--l0", "1/0")
        assert (code, out) == (2, "")
        assert err == "error: invalid rational '1/0': zero denominator\n"

    def test_exact_rational_strings(self, capsys):
        # negative rationals with a slash need the --flag=value form
        code, out, _ = run_cli(capsys, "spectrum", "--l0", "1/2", "--l2=-13/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == ["1/2", "0", "-13/2"]

    def test_positive_l2_solves_the_negative_branch(self, capsys):
        assert run_cli(capsys, "spectrum", "--l2", "5") == \
            run_cli(capsys, "spectrum", "--l2=-5")

    def test_non_integer_l1_names_the_lattice_limit(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--l0=0", "--l1=1/2",
                                 "--l2=-7")
        assert (code, out) == (2, "")
        assert err == ("error: no admissible vertex reaches (0, 1/2, -7): "
                       "vertices sit at l1 = 0 with l0+l2 < -5/2, and raising "
                       "words change l1 only by integers\n")


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

    def test_zero_state_has_no_eigenvalue_or_normalization(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--l0=1", "--l2=-4", "--word", "A-")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == [] and doc["zero"] is True
        assert "eigenvalue" not in doc and "normalization" not in doc


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

        def unit(st):
            return LabeledState(st.label, st.expr.scale(Fraction(normalize(st))))

        v = ground_full(1, -4)
        s1 = unit(apply_word((O.C_PLUS, O.A_PLUS), v))
        s2raw = apply_word((O.A_PLUS, O.C_PLUS), v)
        overlap = inner(s2raw.expr, s1.expr)
        s2raw = LabeledState(s2raw.label,
                             s2raw.expr - s1.expr.scale(Fraction(overlap)))
        s2 = unit(s2raw)
        assert abs(inner(s1.expr, s2.expr)) < 1e-9
        n, cutoff = 200, 14.0
        ths = (np.arange(n) + 0.5) * (np.pi / 2) / n
        xis = (np.arange(n) + 0.5) * cutoff / n
        w = np.sinh(xis)[None, :] * (np.pi / 2 / n) * (cutoff / n)
        g1, g2 = eval_grid(s1.expr, ths, xis), eval_grid(s2.expr, ths, xis)
        assert abs(float((g1 * g2 * w).sum())) < 1e-3

    def test_large_cutoff_underflows_without_nan(self, capsys):
        # cosh and sinh overflow a float beyond xi = 710; the state underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sample", "--l0", "0", "--l2", "-5",
                                     "--grid", "4", "--cutoff", "1000")
        assert code == 0 and err == ""
        rows = [[float(tok) for tok in ln.split(",")]
                for ln in out.strip().splitlines()[1:]]
        assert len(rows) == 16
        assert all(v > 0 if xi == 125 else v == 0 for _, xi, v in rows)

    def test_streamed_rows_match_joined_form(self, capsys, tmp_path):
        # the rows go out one theta line at a time, as the bytes of one join
        import numpy as np
        from fractions import Fraction
        from ladderspec import OperatorName as O, apply_word, eval_grid, ground_full, normalize
        st = apply_word((O.C_PLUS, O.A_PLUS), ground_full(1, -4))
        n, cutoff = 7, 3.0
        thetas = (np.arange(1, n + 1) - 0.5) * (np.pi / 2) / n
        xis = (np.arange(1, n + 1) - 0.5) * cutoff / n
        vals = eval_grid(st.expr.scale(Fraction(normalize(st))), thetas, xis)
        joined = "\n".join(["theta,xi,value"] + [
            f"{th:.17g},{xx:.17g},{vals[i, j]:.17g}"
            for i, th in enumerate(thetas) for j, xx in enumerate(xis)])
        argv = ("sample", "--l0=1", "--l2=-4", "--word=C+,A+", "--grid=7", "--cutoff=3")
        path = tmp_path / "sample.csv"
        assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_bytes() == joined.encode()
        assert run_cli(capsys, *argv)[:2] == (0, joined + "\n")

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

    def test_cutoff_beyond_the_float_range_exits_2(self, capsys):
        # the largest cell centre, 2.5 * 1e308 / 3, overflows before it divides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sample", "--l0=0", "--l2=-5", "--grid", "3",
                                     "--cutoff", "1e308")
        assert (code, out) == (2, "")
        assert "--cutoff" in err and "1e+308" in err


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

    def test_deep_target_passes_on_the_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck", "--l0=0", "--l1=0", "--l2=-15")
        assert code == 0
        assert json.loads(out)["max_abs_diff"] <= 1e-3

    @pytest.mark.parametrize("signed, branch", [
        (("-1", "0", "-9"), ("1", "0", "-9")),
        (("-2", "0", "-9"), ("2", "0", "-9")),
        (("-2", "0", "9"), ("2", "0", "-9")),
    ])
    def test_signed_labels_check_the_branch_label(self, capsys, signed, branch):
        flags = [[f"--l{i}={x}" for i, x in enumerate(lab)] for lab in (signed, branch)]
        got, want = (run_cli(capsys, "crosscheck", *f) for f in flags)
        assert got == want
        code, out, _ = got
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == list(branch)
        assert [lv["numeric_multiplicity"] for lv in doc["levels"]] == \
            [lv["degeneracy"] for lv in doc["levels"]]

    @pytest.mark.parametrize("cutoff", ["inf", "nan", "0"])
    def test_cutoff_must_be_finite_and_positive(self, capsys, cutoff):
        code, out, err = run_cli(capsys, "crosscheck", "--l0", "1", "--l1", "1",
                                 "--l2", "-6", f"--cutoff={cutoff}")
        assert code == 2
        assert out == ""
        assert "cutoff" in err and cutoff in err

    def test_cutoff_beyond_the_float_range_exits_2(self, capsys):
        # the square of the cell width, (1e308/2000)^2, overflows; so does
        # 1/h^2 of the finest cell h = cutoff/4000 at 1e-155, and at 1e-160
        # h^2 underflows to 0, which the solvers must not divide by
        for cutoff, shown in (("1e308", "1e+308"), ("1e-155", "1e-155"),
                              ("1e-160", "1e-160")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "crosscheck", "--l0=0", "--l1=0",
                                         "--l2=-5", f"--cutoff={cutoff}")
            assert (code, out) == (2, "")
            assert "cutoff" in err and shown in err

    def test_rows_carry_the_error_bar_and_residual(self, capsys):
        # the bar |E_2n - E_n|/3 + tol of the matched level covers its error
        # on the default grid; an unmatched level has neither field
        code, out, _ = run_cli(capsys, "crosscheck", "--l0=0", "--l1=0", "--l2=-5")
        assert code == 0
        for lv in json.loads(out)["levels"]:
            assert 0 < lv["abs_diff"] <= lv["numeric_err"] < 1e-3
            assert 0 <= lv["residual_norm"] < 1e-8
        code, out, _ = run_cli(capsys, "crosscheck", "--l0=1", "--l1=1", "--l2=-6",
                               "--grid", "16")
        level = json.loads(out)["levels"][0]
        assert level["numeric_err"] is None and level["residual_norm"] is None

    def test_unmatched_level_is_strict_json_null(self, capsys):
        # 16 cells bind no level near -15/4; the output must still be strict JSON
        code, out, _ = run_cli(capsys, "crosscheck", "--l0", "1", "--l1", "1",
                               "--l2", "-6", "--grid", "16")
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["max_abs_diff"] is None
        level = doc["levels"][0]
        assert level["energy"] == "-15/4"
        assert level["numeric"] is None and level["abs_diff"] is None
        assert level["numeric_multiplicity"] == 0
