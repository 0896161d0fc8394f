"""Command-line interface.

Subcommands: spectrum, state, verify, lattice, sample, crosscheck.
Labels are passed as exact rational strings ("-5", "1/2"); floats appear only
in norms, samples and numeric eigenvalues.  Exit codes: 0 ok, 1 a
verification or tolerance failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import identities, numeric, spectra
from .algebra import eval_grid, is_normalizable, rational
from .operators import (SHIFTS, LabeledState, OperatorName, ParamPoint,
                        apply_hamiltonian, apply_word)
from .spectra import AdmissibilityError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _label(args) -> ParamPoint:
    return ParamPoint.of(args.l0, args.l1, args.l2)


def _parse_word(text: str) -> tuple[OperatorName, ...]:
    if not text:
        return ()
    try:
        return tuple(OperatorName(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise AdmissibilityError(f"unknown operator in word: {exc}") from None


def cmd_spectrum(args) -> int:
    report = spectra.bound_spectrum(_label(args))
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return EXIT_OK


def cmd_state(args) -> int:
    st = spectra.ground_full(rational(args.l0), rational(args.l2))
    word = _parse_word(args.word)
    st = apply_word(word, st)
    doc = {
        "label": [str(x) for x in st.label.astuple()],
        "word": [op.value for op in word],
        "terms": [{"coeff": str(m.coeff), "p": str(m.p), "q": str(m.q),
                   "r": str(m.r), "s": str(m.s)} for m in st.expr.terms],
    }
    if st.is_zero:
        doc["zero"] = True
    else:
        himg = apply_hamiltonian(st)
        e = spectra.vertex_energy(rational(args.l0), rational(args.l2))
        doc["eigenvalue"] = str(e) if (himg - st.expr.scale(e)).is_zero else None
        if is_normalizable(st.expr):
            doc["normalization"] = spectra.normalize(st)[1]
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = identities.run_suite(seed=args.seed, probes=args.probes)
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        lines.append(f"{status} {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
    lines.append(f"{len(results) - failed}/{len(results)} identities hold "
                 f"(seed={args.seed}, probes={args.probes})")
    _emit("\n".join(lines), args.out)
    return EXIT_FAIL if failed else EXIT_OK


def _lattice_doc(args):
    vertex = ParamPoint.of(args.l0, 0, args.l2)
    pts = spectra.enumerate_lattice(vertex, args.algebra, args.depth)
    nodes = [{"label": [str(x) for x in pt.label.astuple()],
              "depth": pt.depth, "degeneracy": pt.degeneracy} for pt in pts]
    reach = {pt.label for pt in pts}
    edges = []
    for pt in pts:
        for op in spectra.RAISING[args.algebra]:
            dst = pt.label.shifted(SHIFTS[op])
            if dst in reach:
                edges.append((pt.label, op, dst))
    return vertex, nodes, edges


def cmd_lattice(args) -> int:
    vertex, nodes, edges = _lattice_doc(args)
    if args.format == "dot":
        lines = ["digraph lattice {", '  rankdir="TB";']
        for nd in nodes:
            lab = ",".join(nd["label"])
            lines.append(f'  "{lab}" [label="({lab})\\ndeg={nd["degeneracy"]}"];')
        for src, op, dst in edges:
            s = ",".join(str(x) for x in src.astuple())
            d = ",".join(str(x) for x in dst.astuple())
            lines.append(f'  "{s}" -> "{d}" [label="{op.value}"];')
        lines.append("}")
        _emit("\n".join(lines), args.out)
    else:
        doc = {
            "vertex": [str(x) for x in vertex.astuple()],
            "algebra": args.algebra,
            "energy": str(spectra.vertex_energy(vertex.l0, vertex.l2)),
            "nodes": nodes,
            "edges": [[",".join(str(x) for x in s.astuple()), op.value,
                       ",".join(str(x) for x in d.astuple())] for s, op, d in edges],
        }
        _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    if not (math.isfinite(args.cutoff) and args.cutoff > 0):
        raise ValueError(f"--cutoff must be finite and positive, got {args.cutoff}")
    st = spectra.ground_full(rational(args.l0), rational(args.l2))
    st = apply_word(_parse_word(args.word), st)
    if st.is_zero:
        raise AdmissibilityError("the requested state is identically zero")
    st, _ = spectra.normalize(st)
    n = args.grid
    thetas = (np.arange(1, n + 1) - 0.5) * (np.pi / 2) / n
    xis = (np.arange(1, n + 1) - 0.5) * args.cutoff / n
    vals = eval_grid(st.expr, thetas, xis)
    lines = ["theta,xi,value"]
    for i, th in enumerate(thetas):
        for j, xx in enumerate(xis):
            lines.append(f"{th:.17g},{xx:.17g},{vals[i, j]:.17g}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    target = _label(args)
    grid = numeric.GridSpec("xi", args.grid, cutoff=args.cutoff)
    report = spectra.bound_spectrum(target)
    l0, l1 = rational(args.l0), rational(args.l1)
    # separation constants from the angular ladder; channels stop binding
    # once sqrt(alpha) clears the well depth
    numeric_hits: list[tuple[float, float]] = []
    n_ch = 0
    while True:
        alpha = float((1 + l0 + l1 + 2 * n_ch)) ** 2
        res = numeric.solve_xi(rational(args.l2), alpha, grid)
        if not res.eigenvalues:
            break
        numeric_hits.extend((alpha, e) for e in res.eigenvalues)
        n_ch += 1
        if n_ch > 64:
            break
    rows = []
    worst = 0.0
    for lv in report.levels:
        e_alg = float(lv.energy)
        close = [e for _, e in numeric_hits if abs(e - e_alg) < 0.25]
        # a level without a numeric partner is written as null and fails
        e_num = min(close, key=lambda e: abs(e - e_alg)) if close else None
        delta = abs(e_num - e_alg) if close else None
        worst = math.inf if delta is None else max(worst, delta)
        rows.append({"energy": str(lv.energy), "energy_float": e_alg,
                     "numeric": e_num, "abs_diff": delta,
                     "degeneracy": lv.degeneracy,
                     "numeric_multiplicity": len(close)})
    doc = {
        "target": [str(x) for x in target.astuple()],
        "grid": {"n": args.grid, "cutoff": args.cutoff, "variable": "xi",
                 "scheme": "uniform"},
        "levels": rows,
        "max_abs_diff": worst if worst < math.inf else None,
        "tolerance": 1e-3,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK if worst <= 1e-3 else EXIT_FAIL


def _add_label_flags(p: argparse.ArgumentParser, l1: bool = True) -> None:
    p.add_argument("--l0", default="0", help="exact rational, e.g. -5 or 1/2")
    if l1:
        p.add_argument("--l1", default="0", help="exact rational")
    p.add_argument("--l2", default="0", help="exact rational")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ladderspec",
        description="Exact ladder-operator spectra on the two-sheet hyperboloid")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="bound levels of one Hamiltonian")
    _add_label_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("state", help="build a vertex state, optionally apply a word")
    _add_label_flags(p, l1=False)
    p.add_argument("--word", default="", help="comma list, rightmost applied first")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lattice", help="representation lattice from a vertex")
    _add_label_flags(p, l1=False)
    p.add_argument("--algebra", choices=("su21", "so42"), default="su21")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("sample", help="sample a normalized state on a grid (CSV)")
    _add_label_flags(p, l1=False)
    p.add_argument("--word", default="")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--cutoff", type=float, default=10.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("crosscheck", help="algebraic vs numeric energies")
    _add_label_flags(p)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--cutoff", type=float, default=25.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_crosscheck)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every typed input error derives from it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
