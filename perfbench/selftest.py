"""Self-test of the benchmark's checker and tracer.

Run from the repository root (a few seconds):

    PYTHONPATH=src python3 perfbench/selftest.py

The file is not named test_*.py so the package's own test suite does not
collect it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from ladderspec import cli, operators, spectra  # noqa: E402

REF = reference.load_reference()


def kinds(problems) -> set[str]:
    return {k for k, _ in problems}


class SpectrumCheck(unittest.TestCase):
    op = workloads.spectrum_op(F(0), F(0), F(-5))

    def setUp(self):
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            path = os.path.join(tmp, "spectrum.json")
            self.assertEqual(cli.main(self.op["argv"] + ["--out", path]), 0)
            with open(path, encoding="utf-8") as fh:
                self.doc = json.load(fh)

    def check(self, doc):
        return reference.check_spectrum(self.op, 0, json.dumps(doc))

    def test_program_output_passes(self):
        self.assertEqual(self.check(self.doc), [])
        self.assertEqual([(lv["energy"], lv["degeneracy"])
                          for lv in self.doc["levels"]],
                         [("-35/4", 1), ("-3/4", 2)])

    def test_tampered_energy_is_wrong(self):
        self.doc["levels"][1]["energy"] = "-15/4"
        self.assertEqual(kinds(self.check(self.doc)), {"wrong"})

    def test_extra_level_is_wrong(self):
        self.doc["levels"].append(dict(self.doc["levels"][1], energy="-15/4"))
        self.assertEqual(kinds(self.check(self.doc)), {"wrong"})

    def test_degeneracy_above_exact_is_the_known_defect(self):
        self.doc["levels"][1]["degeneracy"] = 3
        self.assertEqual(kinds(self.check(self.doc)), {reference.KNOWN_DEFECT})

    def test_degeneracy_below_exact_is_wrong(self):
        self.doc["levels"][1]["degeneracy"] = 1
        self.assertEqual(kinds(self.check(self.doc)), {"wrong"})

    def test_exit_code_is_checked(self):
        self.assertEqual(kinds(reference.check_spectrum(self.op, 2, "")),
                         {"wrong"})


class ReferenceData(unittest.TestCase):
    def test_closed_form_degeneracy_matches_exact_rank(self):
        targets = workloads.spectrum_targets()
        self.assertEqual(len(REF["spectrum_qrank"]), len(targets))
        for target in targets:
            want = [d for _, d, _ in reference.exact_levels(*target)]
            name = workloads.spectrum_op(*target)["name"]
            self.assertEqual(REF["spectrum_qrank"][name], want, name)

    def test_every_drawable_lattice_has_a_reference(self):
        keys = {workloads.lattice_key(*v) for v in workloads.lattice_vertices()}
        self.assertEqual(keys, set(REF["lattices"]))


class LatticeCheck(unittest.TestCase):
    key = workloads.lattice_key(*workloads.LATTICE_ANCHOR)

    def text(self, fmt, degs, edges, energy):
        if fmt == "json":
            return json.dumps({
                "energy": energy, "edges": [["a", "A+", "b"]] * edges,
                "nodes": [{"label": k.split(","), "degeneracy": d}
                          for k, d in degs.items()]})
        lines = [f'  "{k}" [label="({k})\\ndeg={d}"];' for k, d in degs.items()]
        lines += ['  "a" -> "b" [label="A+"];'] * edges
        return "\n".join(["digraph lattice {"] + lines + ["}"])

    def check(self, fmt, degs, edges=None, energy=None):
        ref = REF["lattices"][self.key]
        op = {"key": self.key, "format": fmt}
        return reference.check_lattice(
            op, 0, self.text(fmt, degs, ref["edges"] if edges is None else edges,
                             energy or ref["energy"]), REF)

    def test_exact_degeneracies_pass_in_both_formats(self):
        exact = dict(REF["lattices"][self.key]["nodes"])
        for fmt in ("json", "dot"):
            self.assertEqual(self.check(fmt, exact), [], fmt)

    def test_tampered_degeneracy_is_flagged(self):
        for fmt in ("json", "dot"):
            degs = dict(REF["lattices"][self.key]["nodes"])
            degs["0,4,-14"] += 1
            self.assertEqual(kinds(self.check(fmt, degs)),
                             {reference.KNOWN_DEFECT}, fmt)
            degs["0,4,-14"] = 1
            self.assertEqual(kinds(self.check(fmt, degs)), {"wrong"}, fmt)

    def test_missing_node_edge_or_energy_is_wrong(self):
        degs = dict(REF["lattices"][self.key]["nodes"])
        self.assertEqual(kinds(self.check("json", degs, energy="-1")), {"wrong"})
        self.assertEqual(kinds(self.check("dot", degs, edges=0)), {"wrong"})
        degs.popitem()
        self.assertEqual(kinds(self.check("json", degs)), {"wrong"})


class VerifyCheck(unittest.TestCase):
    op = workloads.verify_op(1, 2)

    def test_all_pass_only(self):
        ok = "\n".join(["PASS x"] * 45 + ["45/45 identities hold"])
        self.assertEqual(reference.check_verify(self.op, 0, ok), [])
        bad = ok.replace("PASS x", "FAIL x", 1)
        self.assertEqual(kinds(reference.check_verify(self.op, 1, bad)), {"wrong"})
        self.assertEqual(kinds(reference.check_verify(self.op, 1, ok)), {"wrong"})
        short = "\n".join(["PASS x"] * 44)
        self.assertEqual(kinds(reference.check_verify(self.op, 0, short)), {"wrong"})


class NumericCheck(unittest.TestCase):
    op = workloads.numeric_op(F(1), F(1), F(-7))

    @classmethod
    def setUpClass(cls):
        cls.result = worker.numeric_result(F(1), F(1), F(-7))

    def test_solver_output_passes(self):
        problems, rel = reference.check_numeric(self.op, self.result)
        self.assertEqual(problems, [])
        self.assertLess(rel, reference.CROSSCHECK_TOL)

    def test_tampered_eigenvalue_is_flagged(self):
        for where in ("theta", "xi"):
            res = json.loads(json.dumps(self.result))
            if where == "theta":
                res["theta"][1] += 2e-3
            else:
                res["xi"][0][0] -= 2e-3
            problems, _ = reference.check_numeric(self.op, res)
            self.assertEqual(kinds(problems), {"wrong"}, where)

    def test_threshold_level_is_zero_within_tolerance(self):
        op = workloads.numeric_op(F(3, 2), F(1), F(-5))
        res = worker.numeric_result(F(3, 2), F(1), F(-5))
        self.assertEqual(reference.exact_xi(F(3, 2), F(1), F(-5), 0), ([], True))
        self.assertEqual(reference.check_numeric(op, res)[0], [])
        self.assertEqual(reference.check_numeric(op, dict(res, xi=[]))[0], [])
        res["xi"] = [[-2e-3]]
        self.assertEqual(kinds(reference.check_numeric(op, res)[0]), {"wrong"})

    def test_missing_level_or_channel_is_flagged(self):
        res = json.loads(json.dumps(self.result))
        res["xi"].pop()
        self.assertEqual(kinds(reference.check_numeric(self.op, res)[0]), {"wrong"})
        res = json.loads(json.dumps(self.result))
        res["theta"].pop()
        self.assertEqual(kinds(reference.check_numeric(self.op, res)[0]), {"wrong"})


class TracerTest(unittest.TestCase):
    op = workloads.spectrum_op(F(0), F(0), F(-7))

    def run_op(self, tmp):
        return cli.main(self.op["argv"] + ["--out", os.path.join(tmp, "s.json")])

    def test_self_times_sum_to_traced_wall_time(self):
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            start = time.perf_counter()
            self.run_op(tmp)
            untraced = time.perf_counter() - start
            tracer = Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                _, span_s = tracer.run_op(0, self.run_op, tmp)
                traced = time.perf_counter() - start
            finally:
                tracer.uninstall()
        self_sum = tracer.op_self_s[0]
        self.assertAlmostEqual(self_sum, span_s, delta=1e-6 * span_s)
        overhead = max(traced - untraced, 0.0)
        self.assertLessEqual(abs(traced - self_sum), overhead + 1e-3)
        m = tracer.metrics(1, traced / untraced)
        self.assertEqual(m["cli.main.calls"][0], 1)
        self.assertEqual(m["spectra.bound_spectrum.calls"][0], 1)
        self.assertGreater(m["algebra.from_terms.calls"][0], 0)
        self.assertGreater(m["algebra.inner.calls"][0], 0)
        self.assertGreater(m["spectra.words_tried"][0], 0)
        self.assertGreaterEqual(m["spectra.states_kept"][0], 6)
        self.assertLessEqual(m["spectra.keep_ratio"][0], 1)
        self.assertEqual(m["identities.run_suite.calls"][0], 0)
        self.assertEqual(m["numeric.solve_theta.calls"][0], 0)

    def test_every_binding_is_wrapped_and_restored(self):
        originals = (operators.apply, operators.apply_word, spectra.apply,
                     spectra.apply_word, spectra.inner, cli.apply_word,
                     cli.is_normalizable, spectra.FunExpr.__mul__)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(spectra.apply_word, originals[3])
            self.assertIs(spectra.apply_word, cli.apply_word)
            self.assertIsNot(spectra.inner, originals[4])
            self.assertIsNot(spectra.FunExpr.__mul__, originals[7])
            from ladderspec import identities
            self.assertIs(identities.run_suite.__wrapped__.__defaults__[-1],
                          operators.apply)
        finally:
            tracer.uninstall()
        self.assertEqual((operators.apply, operators.apply_word, spectra.apply,
                          spectra.apply_word, spectra.inner, cli.apply_word,
                          cli.is_normalizable, spectra.FunExpr.__mul__),
                         originals)


class SpeedProbeTest(unittest.TestCase):
    def test_measure_scales_each_stretch_by_its_sample(self):
        probe = speedprobe.SpeedProbe()
        ref = speedprobe.REF_S
        probe.starts, probe.kernel_s = [1.0, 2.0], [ref, 2 * ref]
        program, at_ref = probe.measure(0.5, 3.0)
        # 0.5 s before the first sample, 1 - ref before the second and
        # 1 - 2 ref after it; the two kernel runs are not program time
        self.assertAlmostEqual(program, 2.5 - 3 * ref)
        self.assertAlmostEqual(at_ref, 0.5 + (1 - ref) / 2 + (1 - 2 * ref) / 2)
        # a window without samples takes the speed of the sample before it
        self.assertAlmostEqual(probe.measure(3.1, 3.3)[1], 0.1)

    def test_startup_sample_reports_program_and_reference_seconds(self):
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        start = time.perf_counter()
        out = subprocess.run([sys.executable, os.path.join(here, "startup.py")],
                             env=env, check=True, capture_output=True, text=True)
        wall = time.perf_counter() - start
        program, ref = json.loads(out.stdout)
        self.assertGreater(program, 0)
        self.assertLess(program, wall)
        self.assertGreater(ref, 0)

    def test_samples_while_active_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speedprobe.SpeedProbe() as probe:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.starts), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
