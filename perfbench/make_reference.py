"""Regenerate ``reference.json``: exact ranks over Q for the checker.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The normal form is canonical, so distinct canonical monomials are linearly
independent and the rank of the states' coefficient matrix over Q is the
exact dimension of their span.  For every lattice a seed can draw this
stores the nodes and edge count the CLI emits at the commit that made the
file, the vertex energy and the exact rank per node.
For every spectrum target a seed can draw it confirms that the exact rank
per level equals the closed-form separation count the checker uses, and
stores those ranks.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads  # noqa: E402
from ladderspec import cli, spectra  # noqa: E402
from ladderspec.operators import ParamPoint  # noqa: E402


def q_rank(exprs) -> int:
    """Rank over Q of the coefficient vectors of canonical expressions."""
    basis: list[tuple[tuple, dict]] = []
    for expr in exprs:
        row = {m.key: m.coeff for m in expr.terms}
        for pivot, prow in basis:
            c = row.get(pivot)
            if c:
                for key, value in prow.items():
                    new = row.get(key, Fraction(0)) - c * value
                    if new:
                        row[key] = new
                    else:
                        row.pop(key, None)
        if row:
            pivot = min(row)
            inv = 1 / row[pivot]
            basis.append((pivot, {k: v * inv for k, v in row.items()}))
    return len(basis)


def lattice_reference(algebra: str, l0: Fraction, l2: Fraction,
                      depth: int) -> dict:
    """Nodes and edge count as the CLI emits them, energy from the vertex
    formula, and the exact rank of each node's generated states."""
    op = workloads.lattice_op(algebra, l0, l2, depth, "json")
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "lattice.json")
        if cli.main(op["argv"] + ["--out", path]) != 0:
            raise RuntimeError(f"{op['name']} failed")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    states = spectra.lattice_states(ParamPoint(l0, Fraction(0), l2), algebra,
                                    depth)
    exact = {",".join(node["label"]):
             q_rank(s.expr for s in states[ParamPoint.of(*node["label"])])
             for node in doc["nodes"]}
    return {"energy": str(reference.vertex_energy(l0 + l2)),
            "edges": len(doc["edges"]), "nodes": exact}


def spectrum_ranks(l0: Fraction, l1: Fraction, l2: Fraction) -> list[int]:
    """Exact rank of the generated states of each level, ground first."""
    target = ParamPoint(l0, l1, l2)
    return [q_rank(s.expr for s in spectra.states_at(
                ParamPoint(v0, Fraction(0), v2), target, "su21"))
            for _, _, (v0, _, v2) in reference.exact_levels(l0, l1, l2)]


def main() -> int:
    out = {"lattices": {}, "spectrum_qrank": {}}
    for algebra, l0, l2, depth in workloads.lattice_vertices():
        key = workloads.lattice_key(algebra, l0, l2, depth)
        out["lattices"][key] = lattice_reference(algebra, l0, l2, depth)
        print(key, out["lattices"][key]["nodes"], flush=True)
    mismatches = 0
    for l0, l1, l2 in workloads.spectrum_targets():
        ranks = spectrum_ranks(l0, l1, l2)
        closed = [deg for _, deg, _ in reference.exact_levels(l0, l1, l2)]
        mismatches += ranks != closed
        out["spectrum_qrank"][workloads.spectrum_op(l0, l1, l2)["name"]] = ranks
        print(l0, l1, l2, ranks, "closed form", closed, flush=True)
    with open(reference._REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if mismatches:
        print(f"{mismatches} targets disagree with the closed form",
              file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
