"""Seeded inputs of the four benchmark workloads.

Each workload turns a seed into one batch of ops plus one warm-up op whose
input lies outside the batch.  The engine sees only these generated inputs.
Batches are balanced designs: the seed chooses inside cells of equal cost
(a level sum, a Latin-square column, a probe seed), so a batch costs about
the same on every seed and the spread of ``wall_s`` measures the program,
not the draw.  Why each workload exists is in README.md next to this file.

An op is a dict with ``name`` (stable, printed with failures), ``kind``
(spectrum, verify, lattice or numeric) and the inputs of that kind.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

WORKLOADS = {
    "spectrum-sweep": "the command users run most: word generation and "
                      "Gram/normalization inner products",
    "verify-seeds": "operators.apply and the normal form on random rational "
                    "exponents; no generation, no inner products",
    "numeric-oracle": "only numeric runs: pencil assembly and ARPACK "
                      "shift-invert, half the theta solves on a mis-set shift",
    "lattice-walk": "the spectrum layers broad and shallow: BFS over many "
                    "labels, many small Gram ranks, JSON and DOT output",
}


def _label(*xs: F) -> str:
    return "(" + ",".join(str(x) for x in xs) + ")"


def spectrum_op(l0: F, l1: F, l2: F) -> dict:
    return {"name": "spectrum" + _label(l0, l1, l2), "kind": "spectrum",
            "label": [str(l0), str(l1), str(l2)],
            "argv": ["spectrum", f"--l0={l0}", f"--l1={l1}", f"--l2={l2}"]}


def verify_op(seed: int, probes: int) -> dict:
    return {"name": f"verify(seed={seed},probes={probes})", "kind": "verify",
            "argv": ["verify", f"--seed={seed}", f"--probes={probes}"]}


def lattice_op(algebra: str, l0: F, l2: F, depth: int, fmt: str) -> dict:
    return {"name": f"lattice({algebra},{l0},{l2},d{depth},{fmt})",
            "kind": "lattice", "key": lattice_key(algebra, l0, l2, depth),
            "format": fmt,
            "argv": ["lattice", f"--l0={l0}", f"--l2={l2}", "--algebra", algebra,
                     "--depth", str(depth), "--format", fmt]}


def lattice_key(algebra: str, l0, l2, depth: int) -> str:
    return f"{algebra} {l0} {l2} {depth}"


def numeric_op(l0: F, l1: F, l2: F) -> dict:
    return {"name": "numeric" + _label(l0, l1, l2), "kind": "numeric",
            "label": [str(l0), str(l1), str(l2)]}


# Box of spectrum targets: l0 in {0, 1/2, ..., 3}, integer l1, level sum
# l0+l1+l2 in {-7, -8}; every target in it has three bound levels.
SPECTRUM_L0 = tuple(F(i, 2) for i in range(7))
SPECTRUM_SUMS = (-7, -8)
SPECTRUM_ANCHORS = ((F(0), F(0), F(-5)), (F(2), F(2), F(-12)))
# l1 = 1 cells drawn every pass.  Cost per target depends on l0 far more
# than on the level sum (0.4-1 s at l1 = 0, 1.3-6.4 s at l1 = 1, 4-10 s at
# l1 = 2), so the seed picks the sum of each cell and the cells are fixed:
# one free draw of an l1 >= 1 cell would move a batch by 10-25 %.  The
# l1 = 2 row enters through the (2,2,-12) anchor.
SPECTRUM_L1_ONE_L0 = (F(0), F(1, 2))

# Lattice vertices (l0, l0+l2) at depth 5 under so(4,2); cost depends on l0
# (about 2, 5 and 6 s), so every l0 appears once and the seed picks the sum.
LATTICE_L0 = (F(0), F(1, 2), F(1))
LATTICE_SUMS = (-6, -7, -8)
LATTICE_ANCHOR = ("su21", F(1), F(-9), 6)

# numeric-oracle box; ops with l0 = 0 or l1 = 0 are the slow ones.
NUMERIC_L01 = (F(0), F(1, 2), F(1), F(3, 2), F(2))
NUMERIC_L2 = (F(-5), F(-6), F(-7), F(-15, 2), F(-9))

VERIFY_OPS = 6
VERIFY_PROBES = 2


def spectrum_targets() -> list[tuple[F, F, F]]:
    """Every target any seed can draw, anchors first."""
    out = list(SPECTRUM_ANCHORS)
    for s in SPECTRUM_SUMS:
        out += [(l0, F(0), s - l0) for l0 in SPECTRUM_L0]
        out += [(l0, F(1), s - l0 - 1) for l0 in SPECTRUM_L1_ONE_L0]
    return out


def lattice_vertices() -> list[tuple[str, F, F, int]]:
    """Every lattice any seed can draw, anchor first."""
    return [LATTICE_ANCHOR] + [("so42", l0, s - l0, 5)
                               for l0 in LATTICE_L0 for s in LATTICE_SUMS]


def build(workload: str, seed: int) -> tuple[list[dict], dict]:
    """(batch of ops, warm-up op) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum-sweep":
        ops = [spectrum_op(*t) for t in SPECTRUM_ANCHORS]
        ops += [spectrum_op(l0, F(0), rng.choice(SPECTRUM_SUMS) - l0)
                for l0 in SPECTRUM_L0]
        ops += [spectrum_op(l0, F(1), rng.choice(SPECTRUM_SUMS) - l0 - 1)
                for l0 in SPECTRUM_L1_ONE_L0]
        warm = spectrum_op(F(1), F(0), F(-6))
    elif workload == "verify-seeds":
        ops = [verify_op(rng.randrange(2 ** 31), VERIFY_PROBES)
               for _ in range(VERIFY_OPS)]
        warm = verify_op(-1, 1)
    elif workload == "numeric-oracle":
        # seeded Latin square: each l2 once per l0 row and once per l1 column
        a, b, c = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(5)
        ops = [numeric_op(l0, l1, NUMERIC_L2[(a * i + b * j + c) % 5])
               for i, l0 in enumerate(NUMERIC_L01)
               for j, l1 in enumerate(NUMERIC_L01)]
        warm = numeric_op(F(1), F(1), F(-4))
    elif workload == "lattice-walk":
        formats = ["json", "json", "dot", "dot"]
        rng.shuffle(formats)
        algebra, l0, l2, depth = LATTICE_ANCHOR
        ops = [lattice_op(algebra, l0, l2, depth, formats[0])]
        ops += [lattice_op("so42", l0, rng.choice(LATTICE_SUMS) - l0, 5, fmt)
                for l0, fmt in zip(LATTICE_L0, formats[1:])]
        warm = lattice_op("su21", F(0), F(-4), 2, "json")
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops, warm
