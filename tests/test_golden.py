"""Golden outputs of the reference CLI commands.

Each file under tests/golden/ is the stdout of one command.  A refactor that
keeps the program's behavior keeps these outputs: exact fields (labels,
energies, terms, words, degeneracies, verify lines, DOT text) must match byte
for byte, float fields (normalizations, energy_float) to 1e-12 relative.
To regenerate a file after a deliberate change of output:

    PYTHONPATH=src python -m ladderspec <argv> > tests/golden/<file>
"""

import json
import math
from pathlib import Path

import pytest

from ladderspec.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_seed0.txt": ["verify", "--probes", "2", "--seed", "0"],
    "verify_seed7.txt": ["verify", "--probes", "2", "--seed", "7"],
    "spectrum_0_0_-7.json": ["spectrum", "--l0=0", "--l1=0", "--l2=-7"],
    "spectrum_0.5_1_-8.5.json": ["spectrum", "--l0=1/2", "--l1=1", "--l2=-17/2"],
    "spectrum_1_2_-12.json": ["spectrum", "--l0=1", "--l1=2", "--l2=-12"],
    "lattice_su21_1_-9_d6.json": ["lattice", "--l0=1", "--l2=-9",
                                  "--algebra", "su21", "--depth", "6"],
    "lattice_so42_0.5_-7.5_d4.json": ["lattice", "--l0=1/2", "--l2=-15/2",
                                      "--algebra", "so42", "--depth", "4"],
    "lattice_so42_0.5_-7.5_d4.dot": ["lattice", "--l0=1/2", "--l2=-15/2",
                                     "--algebra", "so42", "--depth", "4",
                                     "--format", "dot"],
    "state_word.json": ["state", "--l0=1", "--l2=-4",
                        "--word", "Ctilde+,Atilde+,C+,A+"],
}


def assert_same(got, want, path="$"):
    """Floats to 1e-12 relative; everything else, key order included, exact."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    assert cli_main(CASES[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        assert_same(json.loads(got), json.loads(want))
    else:
        assert got == want
