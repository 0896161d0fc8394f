"""Print a digest of the reference commands' outputs, one line per command.

Run from the repository root, once against each tree, and diff the two:

    PYTHONPATH=<parent worktree>/src python3 tools/ref_outputs.py > parent.txt
    PYTHONPATH=src python3 tools/ref_outputs.py | diff parent.txt -

Each command runs in-process through ``ladderspec.cli.main``.  A line holds
the sha256 of its stdout, the sha256 of its stderr, its exit code and its
argv.  The commands are the golden cases of ``tests/test_golden.py``, more
``verify`` seeds and plain ``verify``, ``spectrum`` at the labels the
ROADMAP measures and at the spectrum-sweep anchor (2, 2, -12), the
lattices, six states (one deep enough to print a normalization, one at a
vertex that the E < 0 cut rejects, one that the Friedrichs rule rejects,
one at its boundary and one that its word maps to zero), four samples (a
vertex, two multi-term word states and one state that diverges at a
wall), ``crosscheck`` (at one label each
binding channel has a level at the threshold E = 0, at the deep label
(0, 0, -19) and on a coarse grid), labels with negative entries next to
their branch labels, and a ``sample`` and a ``crosscheck`` whose cutoff
leaves the float range.  A command that raises prints the exception's type
and message in place of its digest, and the commands after it still run.
A refactor that keeps the program's behavior prints the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_golden import CASES  # noqa: E402

from ladderspec.cli import main  # noqa: E402


def label(l0: str, l1: str, l2: str) -> list[str]:
    return [f"--l0={l0}", f"--l1={l1}", f"--l2={l2}"]


COMMANDS = [argv for _, argv in sorted(CASES.items())] + [
    ["verify", "--probes", "2", "--seed", str(seed)] for seed in (123, 999)
] + [
    ["spectrum"] + label("0", "0", l2) for l2 in ("-5", "-15", "-17", "-19", "-21")
] + [
    ["verify"],  # the default seed and probes
    ["spectrum"] + label("1", "2", "-12"),
    ["spectrum"] + label("2", "2", "-12"),
    ["lattice", "--l0=0", "--l2=-3", "--algebra", "so42", "--depth", "3"],
    ["lattice", "--l0=0", "--l2=-3", "--algebra", "so42", "--depth", "3",
     "--format", "dot"],
    ["lattice", "--l0=2", "--l2=-11", "--algebra", "su21", "--depth", "5"],
    ["state", "--l0=0", "--l2=-6", "--word", "A+,C+,Ctilde+"],
    # a deep state whose normalization field is printed
    ["state", "--l0=0", "--l2=-15", "--word", "C+,C+,C+,C+"],
    # a normalizable vertex with E = 3/16 >= 0, which the E < 0 cut rejects
    ["state", "--l0=0", "--l2=-9/4"],
    # a vertex whose theta ground state the Friedrichs rule rejects, and one
    # at the rule's boundary l0 = -1/2
    ["state", "--l0=-1", "--l2=-5"],
    ["state", "--l0=-1/2", "--l2=-5"],
    # a word that maps the vertex to zero: no eigenvalue or normalization
    ["state", "--l0=1", "--l2=-4", "--word", "A-"],
    ["sample", "--l0=0", "--l2=-5", "--grid", "16"],
    # multi-term states, whose cancelling terms make the sampled bits
    # depend on the order in which evaluation sums them
    ["sample", "--l0=1", "--l2=-4", "--word", "Ctilde+,Atilde+,C+,A+", "--grid", "16"],
    ["sample", "--l0=0", "--l2=-6", "--word", "A+,C+,Ctilde+", "--grid", "8"],
    # a state whose integral diverges at a wall: exits 2 naming the term
    ["sample", "--l0=1/2", "--l2=-7/2", "--word", "A+,B+", "--grid", "2"],
    ["crosscheck"] + label("0", "0", "-5"),
    ["crosscheck"] + label("1", "0", "-9"),
    # labels with negative entries, each followed by its branch label
    ["spectrum"] + label("0", "0", "5"),
    ["spectrum"] + label("0", "0", "-5"),
] + [
    ["spectrum"] + label(sign + l0, l1, l2)
    for l0, l1, l2 in (("3/2", "0", "-8"), ("3/4", "0", "-8"),
                       ("1/4", "0", "-8"), ("1", "0", "-9"))
    for sign in ("-", "")
] + [
    ["spectrum"] + label("0", "-1", "-9"),
    ["spectrum"] + label("0", "1", "-9"),
    ["spectrum"] + label("0", "1/2", "-7"),
    ["spectrum"] + label("0", "0", "-2"),
    ["crosscheck"] + label("-1", "0", "-9"),
    ["crosscheck"] + label("-2", "0", "-9"),
    ["crosscheck"] + label("-2", "0", "9"),
    ["crosscheck"] + label("2", "0", "-9"),
    # each of its three binding xi channels has a level at E = 0 (b = 1/2)
    ["crosscheck"] + label("1", "0", "-15/2"),
    # the deepest label whose spectrum runs, and a coarse grid
    ["crosscheck"] + label("0", "0", "-19"),
    ["crosscheck"] + label("1", "1", "-6") + ["--grid", "48"],
    # cutoffs whose cell centres or squared cell width leave the float range
    ["sample", "--l0=0", "--l2=-5", "--grid", "3", "--cutoff", "1e308"],
    ["crosscheck"] + label("0", "0", "-5") + ["--cutoff=1e308"],
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> str:
    """The digest line of one command, or the type and message of the
    exception it raises, so that the other commands still run."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc} {' '.join(argv)}"
    return f"{digest(out.getvalue())} {digest(err.getvalue())} {code} {' '.join(argv)}"


if __name__ == "__main__":
    for argv in COMMANDS:
        print(run(argv), flush=True)
