"""Command-line interface.

Subcommands: spectrum, state, verify, lattice, sample, crosscheck.
Labels are passed as exact rational strings ("-5", "1/2"); floats appear only
in norms, samples and numeric eigenvalues.  Exit codes: 0 ok, 1 a
verification or tolerance failure, 2 invalid input (an unwritable --out
included).  numpy is imported inside `sample` and `crosscheck` and scipy
inside the eigensolver that `crosscheck` calls, so spectrum, state, verify
and lattice start without either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from typing import Iterable

from . import identities, spectra
from .algebra import eval_grid, is_normalizable
from .operators import (SHIFTS, OperatorName, ParamPoint, apply_hamiltonian,
                        apply_word)
from .spectra import AdmissibilityError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
CROSSCHECK_TOL = 1e-3  # largest |numeric - exact| energy that `crosscheck` passes


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write `text`, or each of its chunks in turn, to `out_path`, or to
    stdout with a newline after the last chunk unless it ends with one."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None
        return
    last = ""
    for last in chunks:
        sys.stdout.write(last)
    if not last.endswith("\n"):
        sys.stdout.write("\n")


def _parse_word(text: str) -> tuple[OperatorName, ...]:
    if not text:
        return ()
    try:
        return tuple(OperatorName(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise AdmissibilityError(f"unknown operator in word: {exc}") from None


def cmd_spectrum(args) -> int:
    report = spectra.bound_spectrum(ParamPoint.of(args.l0, args.l1, args.l2))
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return EXIT_OK


def cmd_state(args) -> int:
    st = spectra.ground_full(args.l0, args.l2)
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
        e = spectra.vertex_energy(args.l0, args.l2)
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
    """The vertex, the nodes and the edges (source key, operator, target key)
    of a lattice; a label's key is its entries joined by commas."""
    vertex = ParamPoint.of(args.l0, 0, args.l2)
    pts = spectra.enumerate_lattice(vertex, args.algebra, args.depth)
    keys = {pt.label: ",".join(str(x) for x in pt.label.astuple()) for pt in pts}
    nodes = [{"label": keys[pt.label].split(","),
              "depth": pt.depth, "degeneracy": pt.degeneracy} for pt in pts]
    edges = [(keys[pt.label], op.value, keys[dst]) for pt in pts
             for op in spectra.RAISING[args.algebra]
             if (dst := pt.label.shifted(SHIFTS[op])) in keys]
    return vertex, nodes, edges


def cmd_lattice(args) -> int:
    vertex, nodes, edges = _lattice_doc(args)
    if args.format == "dot":
        lines = ["digraph lattice {", '  rankdir="TB";']
        for nd in nodes:
            lab = ",".join(nd["label"])
            lines.append(f'  "{lab}" [label="({lab})\\ndeg={nd["degeneracy"]}"];')
        for src, op, dst in edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{op}"];')
        lines.append("}")
        _emit("\n".join(lines), args.out)
    else:
        doc = {
            "vertex": [str(x) for x in vertex.astuple()],
            "algebra": args.algebra,
            "energy": str(spectra.vertex_energy(vertex.l0, vertex.l2)),
            "nodes": nodes,
            "edges": edges,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    import numpy as np

    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    # the cell centres below multiply by the cutoff before they divide by n
    if not (math.isfinite((args.grid - 0.5) * args.cutoff) and args.cutoff > 0):
        raise ValueError(f"--cutoff must be > 0 with finite cell centres, got {args.cutoff}")
    st = spectra.ground_full(args.l0, args.l2)
    st = apply_word(_parse_word(args.word), st)
    if st.is_zero:
        raise AdmissibilityError("the requested state is identically zero")
    st, _ = spectra.normalize(st)
    n = args.grid
    thetas = (np.arange(1, n + 1) - 0.5) * (np.pi / 2) / n
    xis = (np.arange(1, n + 1) - 0.5) * args.cutoff / n
    vals = eval_grid(st.expr, thetas, xis)
    xs = [f"{xx:.17g}" for xx in xis]
    rows = ("".join(f"\n{t},{xx},{v:.17g}" for xx, v in zip(xs, line.tolist()))
            for t, line in zip([f"{th:.17g}" for th in thetas], vals))
    _emit(chain(["theta,xi,value"], rows), args.out)  # one theta line at a time
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    from . import numeric

    grid = numeric.GridSpec("xi", args.grid, cutoff=args.cutoff)
    report = spectra.bound_spectrum(ParamPoint.of(args.l0, args.l1, args.l2))
    target = report.target
    # separation constants from the angular ladder, at most 65 channels;
    # channels stop binding once sqrt(alpha) clears the well depth
    numeric_hits: list[tuple[float, float, float]] = []  # (level, error bar, residual)
    for n_ch in range(65):
        alpha = float((1 + target.l0 + target.l1 + 2 * n_ch)) ** 2
        res = numeric.solve_xi(target.l2, alpha, grid)
        if not res.eigenvalues:
            break
        numeric_hits.extend(zip(res.eigenvalues, res.errors, res.residual_norms))
    rows = []
    worst = 0.0
    for lv in report.levels:
        e_alg = float(lv.energy)
        close = [hit for hit in numeric_hits if abs(hit[0] - e_alg) < 0.25]
        # a level without a numeric partner is written as null and fails
        e_num, err, resid = (min(close, key=lambda hit: abs(hit[0] - e_alg))
                             if close else (None,) * 3)
        delta = abs(e_num - e_alg) if close else None
        worst = math.inf if delta is None else max(worst, delta)
        rows.append({"energy": str(lv.energy), "energy_float": e_alg,
                     "numeric": e_num, "abs_diff": delta,
                     "numeric_err": err, "residual_norm": resid,
                     "degeneracy": lv.degeneracy,
                     "numeric_multiplicity": len(close)})
    doc = {
        "target": [str(x) for x in target.astuple()],
        "grid": {"n": args.grid, "cutoff": args.cutoff, "variable": "xi",
                 "scheme": "uniform"},
        "levels": rows,
        "max_abs_diff": worst if worst < math.inf else None,
        "tolerance": CROSSCHECK_TOL,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK if worst <= CROSSCHECK_TOL else EXIT_FAIL


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
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("state", help="build a vertex state, optionally apply a word")
    _add_label_flags(p, l1=False)
    p.add_argument("--word", default="", help="comma list, rightmost applied first")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lattice", help="representation lattice from a vertex")
    _add_label_flags(p, l1=False)
    p.add_argument("--algebra", choices=("su21", "so42"), default="su21")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("sample", help="sample a normalized state on a grid (CSV)")
    _add_label_flags(p, l1=False)
    p.add_argument("--word", default="")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--cutoff", type=float, default=10.0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("crosscheck", help="algebraic vs numeric energies")
    _add_label_flags(p)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--cutoff", type=float, default=25.0)
    p.set_defaults(func=cmd_crosscheck)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
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
