"""Exact reference checker for benchmark outputs.

Runs outside the timed region.  Every value it compares against is either a
closed form or was computed exactly over Q and stored in ``reference.json``
by ``make_reference.py``; no float tolerance of the engine enters.

* spectrum: level k above the ground level has energy -(s+3/2)(s+5/2) with
  s = l0+l1+l2+2k, vertex (l0+k, 0, l2+l1+k) and degeneracy k+1 (the
  separation count; ``make_reference.py`` confirms it against the exact
  Q-rank of the generated states on every target a seed can draw).
* lattice: nodes, depths and edge count as generated, each degeneracy equal
  to the exact Q-rank of the node's generated states.
* verify: all 45 identities PASS with exit code 0.
* numeric: theta eigenvalues (1+l0+l1+2n)^2, and per channel
  sqrt(alpha) = 1+l0+l1+2m the bound xi levels 1/4 - b^2 for
  b = -l2 - sqrt(alpha) - 1 - 2n > 1/2, within the crosscheck tolerance
  (a level at b = 1/2 sits exactly at the threshold E = 0).

A check returns a list of problems.  A problem whose kind is ``overcount``
is the documented float Gram-rank defect (a degeneracy above the exact
rank); any other kind is a wrong answer.  Both count as failed ops.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction as F

CROSSCHECK_TOL = 1e-3  # absolute, as in `ladderspec crosscheck`
THETA_NEV = 3  # eigenvalues asked of solve_theta per op
VERIFY_IDENTITIES = 45
KNOWN_DEFECT = "overcount"

_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference.json")


def load_reference(path: str = _REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def vertex_energy(sigma: F) -> F:
    return -(sigma + F(3, 2)) * (sigma + F(5, 2))


def exact_levels(l0: F, l1: F, l2: F) -> list[tuple[F, int, tuple[F, F, F]]]:
    """(energy, degeneracy, vertex) for every bound level, ground first."""
    out = []
    k = 0
    while l0 + l1 + l2 + 2 * k < F(-5, 2):
        out.append((vertex_energy(l0 + l1 + l2 + 2 * k), k + 1,
                    (l0 + k, F(0), l2 + l1 + k)))
        k += 1
    return out


def _degeneracy(where: str, got: int, want: int) -> list[tuple[str, str]]:
    if got == want:
        return []
    kind = KNOWN_DEFECT if got > want else "wrong"
    return [(kind, f"{where}: degeneracy {got}, exact {want}")]


def check_spectrum(op: dict, rc: int, text: str) -> list[tuple[str, str]]:
    if rc != 0:
        return [("wrong", f"exit code {rc}")]
    doc = json.loads(text)
    l0, l1, l2 = (F(x) for x in op["label"])
    if doc["target"] != op["label"]:
        return [("wrong", f"target {doc['target']}")]
    want = exact_levels(l0, l1, l2)
    if len(doc["levels"]) != len(want):
        return [("wrong", f"{len(doc['levels'])} levels, exact {len(want)}")]
    problems = []
    for k, (lv, (energy, deg, vertex)) in enumerate(zip(doc["levels"], want)):
        if F(lv["energy"]) != energy or lv["vertex"] != [str(v) for v in vertex]:
            problems.append(("wrong", f"level {k}: energy {lv['energy']} at "
                             f"{lv['vertex']}, exact {energy}"))
        problems += _degeneracy(f"level {energy}", lv["degeneracy"], deg)
    return problems


def check_verify(op: dict, rc: int, text: str) -> list[tuple[str, str]]:
    lines = text.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL ")]
    if rc != 0 or failed or passed != VERIFY_IDENTITIES:
        return [("wrong", f"exit code {rc}, {passed} PASS, "
                 f"{len(failed)} FAIL of {VERIFY_IDENTITIES}")]
    return []


_DOT_NODE = re.compile(r'^\s*"([^"]+)" \[label="\(([^)]*)\)\\ndeg=(\d+)"\];$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[label="([^"]+)"\];$')


def _parse_lattice(fmt: str, text: str) -> tuple[dict[str, int], int, str | None]:
    """(label -> degeneracy, edge count, energy or None for DOT)."""
    if fmt == "json":
        doc = json.loads(text)
        nodes = {",".join(n["label"]): n["degeneracy"] for n in doc["nodes"]}
        return nodes, len(doc["edges"]), doc["energy"]
    nodes, edges = {}, 0
    for line in text.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            nodes[m.group(1)] = int(m.group(3))
        elif _DOT_EDGE.match(line):
            edges += 1
    return nodes, edges, None


def check_lattice(op: dict, rc: int, text: str,
                  reference: dict) -> list[tuple[str, str]]:
    if rc != 0:
        return [("wrong", f"exit code {rc}")]
    ref = reference["lattices"][op["key"]]
    nodes, edges, energy = _parse_lattice(op["format"], text)
    if set(nodes) != set(ref["nodes"]):
        return [("wrong", f"{len(nodes)} nodes, reference {len(ref['nodes'])}")]
    problems = []
    if edges != ref["edges"]:
        problems.append(("wrong", f"{edges} edges, reference {ref['edges']}"))
    if energy is not None and energy != ref["energy"]:
        problems.append(("wrong", f"energy {energy}, exact {ref['energy']}"))
    for label in sorted(nodes):
        problems += _degeneracy(f"node ({label})", nodes[label],
                                ref["nodes"][label])
    return problems


def exact_theta(l0: F, l1: F, n: int) -> float:
    return float((1 + l0 + l1 + 2 * n) ** 2)


def exact_xi(l0: F, l1: F, l2: F, channel: int) -> tuple[list[float], bool]:
    """Bound xi levels of one channel, lowest first, and whether the channel
    also has a level exactly at the threshold E = 0 (b = 1/2)."""
    root = 1 + l0 + l1 + 2 * channel
    out, n = [], 0
    while -l2 - root - 1 - 2 * n > F(1, 2):
        b = -l2 - root - 1 - 2 * n
        out.append(float(F(1, 4) - b * b))
        n += 1
    return out, -l2 - root - 1 - 2 * n == F(1, 2)


def check_numeric(op: dict, result: dict) -> tuple[list[tuple[str, str]], float]:
    """(problems, worst relative error of any bound eigenvalue).

    solve_xi reports E < 0 only, so a level exactly at the threshold E = 0
    may come out as a value of either sign next to zero.  It is accepted,
    within the crosscheck tolerance of 0, as the last value of its channel.
    """
    l0, l1, l2 = (F(x) for x in op["label"])
    problems, worst = [], 0.0

    def compare(where: str, got: list[float], want: list[float],
                threshold: bool = False) -> None:
        nonlocal worst
        if threshold and len(got) == len(want) + 1:
            if not abs(got[-1]) <= CROSSCHECK_TOL:
                problems.append(("wrong", f"{where}: {got[-1]!r}, exact 0"))
            got = got[:-1]
        if len(got) != len(want):
            problems.append(("wrong", f"{where}: {len(got)} eigenvalues, "
                             f"exact {len(want)}"))
            return
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / abs(w))
            if not abs(g - w) <= CROSSCHECK_TOL:
                problems.append(("wrong", f"{where}: {g!r}, exact {w!r}"))

    compare("theta", result["theta"],
            [exact_theta(l0, l1, n) for n in range(THETA_NEV)])
    want_channels = []
    while True:
        bound, threshold = exact_xi(l0, l1, l2, len(want_channels))
        if not (bound or threshold):
            break
        want_channels.append((bound, threshold))
    channels = result["xi"]
    # the solver stops at its first empty channel, which may be one whose
    # only level sits at the threshold
    binding = sum(1 for bound, _ in want_channels if bound)
    if not binding <= len(channels) <= len(want_channels):
        problems.append(("wrong", f"{len(channels)} binding channels, "
                         f"exact {binding}"))
    for m, (got, (bound, threshold)) in enumerate(zip(channels, want_channels)):
        compare(f"xi channel {m}", got, bound, threshold)
    return problems, worst


def check_op(op: dict, output: dict, reference: dict) -> tuple[list, float]:
    """Check one op's output; returns (problems, relative error or 0)."""
    if "error" in output:
        return [("wrong", output["error"])], 0.0
    kind = op["kind"]
    if kind == "numeric":
        return check_numeric(op, output["result"])
    rc, text = output["rc"], output["text"]
    if kind == "spectrum":
        return check_spectrum(op, rc, text), 0.0
    if kind == "verify":
        return check_verify(op, rc, text), 0.0
    return check_lattice(op, rc, text, reference), 0.0
