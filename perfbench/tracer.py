"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` is edited: the tracer replaces each listed function
at every place it is bound (the defining module, every module that imported
it by name, the package namespace and function defaults such as
``run_suite(apply_fn=apply)``), and ``FunExpr.from_terms`` / ``__mul__`` on
the class.  ``uninstall`` puts every original back.

A span is (name, start, end, parent span, op id).  Spans live in flat
arrays while the run lasts and are written out once, at the end.  Self time
of a span is its duration minus the durations of its direct child spans, so
the self times of all spans under one op add up to that op's span.
"""

from __future__ import annotations

import array
import functools
import math
import time
from collections import defaultdict

import numpy as np

from ladderspec import algebra, cli, identities, numeric, operators, spectra
import ladderspec

MODULES = (ladderspec, algebra, operators, spectra, identities, cli, numeric)

# (layer name, module that defines it, attribute); from_terms and __mul__
# are patched on FunExpr.
FUNCTIONS = (
    ("algebra.inner", algebra, "inner"),
    ("algebra.integral", algebra, "integral"),
    ("algebra.is_normalizable", algebra, "is_normalizable"),
    ("operators.apply", operators, "apply"),
    ("operators.apply_word", operators, "apply_word"),
    ("operators.apply_hamiltonian", operators, "apply_hamiltonian"),
    ("identities.run_suite", identities, "run_suite"),
    ("spectra.bound_spectrum", spectra, "bound_spectrum"),
    ("spectra.enumerate_lattice", spectra, "enumerate_lattice"),
    ("spectra.lattice_states", spectra, "lattice_states"),
    ("spectra.gram_rank", spectra, "gram_rank"),
    ("spectra.normalize", spectra, "normalize"),
    ("numeric.solve_theta", numeric, "solve_theta"),
    ("numeric.solve_xi", numeric, "solve_xi"),
    ("cli.main", cli, "main"),
)
SPAN_NAMES = ("op", "algebra.from_terms", "algebra.mul") \
    + tuple(name for name, _, _ in FUNCTIONS)

GRAM_REL_TOL = 1e-9  # the threshold spectra.gram_rank applies


class Tracer:
    """Collects spans and work counters for the ops of one traced run."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_self_s: dict[int, float] = defaultdict(float)
        self.gram_matrices: list[np.ndarray] = []
        self.max_residual = 0.0
        self.gram_max_n = 0
        self._stack: list[list] = []  # [span index, start, child s, name]
        self._op = -1
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        idx = len(self.span_name)
        self.span_name.append(self._name_id[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0, 0.0, name]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, start, child, name = frame
        self._stack.pop()
        dur = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        own = dur - child
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += own
        self.op_self_s[self._op] += own
        if self._stack:
            self._stack[-1][2] += dur

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span; returns (result, seconds)."""
        self._op = op_id
        self.gram_matrices = []
        frame = self._enter("op")
        try:
            result = fn(*args)
        finally:
            self._exit(frame)
        self._gram_margins()
        return result, self.span_end[frame[0]] - self.span_start[frame[0]]

    def _gram_margins(self) -> None:
        # after the op and outside every span: decades between the smallest
        # kept singular value and the largest dropped one (the rank threshold
        # when nothing was dropped)
        for g in self.gram_matrices:
            sv = np.linalg.svd(g, compute_uv=False)
            cut = GRAM_REL_TOL * sv[0]
            kept, dropped = sv[sv > cut], sv[sv <= cut]
            below = dropped.max() if len(dropped) else cut
            margin = math.log10(kept.min() / below) if below > 0 else math.inf
            key = "spectra.gram_margin_decades"
            self.counters[key] = min(self.counters.get(key, math.inf), margin)
        self.gram_matrices = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(*args)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def install(self) -> None:
        """Replace every binding of the traced functions with a wrapper."""
        FunExpr = algebra.FunExpr
        orig_from_terms = FunExpr.__dict__["from_terms"].__func__
        orig_mul = FunExpr.__mul__

        def from_terms_in(terms):
            terms = list(terms)
            self._count("algebra.from_terms.terms_in", len(terms))
            return (terms,)

        def from_terms_out(result, *_):
            self._count("algebra.from_terms.terms_out", len(result.terms))

        def mul_in(a, b):
            self._count("algebra.mul.pairs", len(a.terms) * len(b.terms))
            return (a, b)

        self._set(FunExpr, "from_terms", staticmethod(self._wrap(
            "algebra.from_terms", orig_from_terms, from_terms_in, from_terms_out)),
            FunExpr.__dict__["from_terms"])
        self._set(FunExpr, "__mul__",
                  self._wrap("algebra.mul", orig_mul, before=mul_in), orig_mul)

        hooks = {
            "algebra.is_normalizable": (None, self._after_is_normalizable),
            "operators.apply_word": (None, self._after_apply_word),
            "spectra.bound_spectrum": (None, self._after_spectrum),
            "spectra.gram_rank": (self._before_gram_rank, None),
            "numeric.solve_theta": (None, self._after_solve),
            "numeric.solve_xi": (None, self._after_solve),
        }
        for name, module, attr in FUNCTIONS:
            orig = getattr(module, attr)
            before, after = hooks.get(name, (None, None))
            self._rebind(orig, self._wrap(name, orig, before, after))

        orig_gram_matrix = spectra.gram_matrix

        def capture_gram_matrix(states):
            g = orig_gram_matrix(states)
            self.gram_matrices.append(g)
            return g

        self._rebind(orig_gram_matrix, capture_gram_matrix)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def _rebind(self, orig, wrapped) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapped, orig)
                elif callable(value) and getattr(value, "__defaults__", None):
                    if any(d is orig for d in value.__defaults__):
                        new = tuple(wrapped if d is orig else d
                                    for d in value.__defaults__)
                        self._restore.append((value, "__defaults__",
                                              value.__defaults__))
                        value.__defaults__ = new

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore = []

    # -- counter hooks -----------------------------------------------------

    def _after_is_normalizable(self, result, *_):
        if not result:
            self._count("algebra.is_normalizable.false")

    def _after_apply_word(self, _result, *_):
        if any(f[3] == "spectra.bound_spectrum" for f in self._stack):
            self._count("spectra.words_tried")

    def _after_spectrum(self, report, *_):
        self._count("spectra.states_kept",
                    sum(len(lv.witnesses) for lv in report.levels))

    def _before_gram_rank(self, states, *rest):
        self.gram_max_n = max(self.gram_max_n, len(states))
        return (states, *rest)

    def _after_solve(self, result, *_):
        if result.residual_norms:
            self.max_residual = max(self.max_residual, max(result.residual_norms))

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, per pass of the op batch."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES[1:]:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.s"] = (self.incl_s[name] / passes, "s")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for key in ("algebra.from_terms.terms_in", "algebra.from_terms.terms_out",
                    "algebra.mul.pairs", "algebra.is_normalizable.false",
                    "spectra.words_tried", "spectra.states_kept"):
            out[key] = (self.counters[key] / passes, "count")
        tried = self.counters["spectra.words_tried"]
        out["spectra.keep_ratio"] = (
            self.counters["spectra.states_kept"] / tried if tried else 0.0, "1")
        out["spectra.gram_rank.max_n"] = (float(self.gram_max_n), "count")
        margin = self.counters.get("spectra.gram_margin_decades", 0.0)
        out["spectra.gram_margin_decades"] = (
            margin if math.isfinite(margin) else 0.0, "decades")
        out["numeric.max_residual"] = (self.max_residual, "1")
        out["trace.overhead_ratio"] = (overhead_ratio, "1")
        return out

    def save(self, path: str) -> None:
        """Write every span to an .npz file (names indexed by span_name)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
