"""Run one workload in a fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py PARAMS.json RESULT.json

PARAMS holds workload, seed, seconds, trace and an output directory.  The
worker runs the warm-up op untimed, then passes over the op batch in a
closed loop (one client; the next op starts when the previous returns).
It starts another pass only while the time spent plus the last pass fits in
the budget, so every pass is whole.  Untraced passes run under the speed
probe (speedprobe.py).  With trace on, half the budget runs untraced passes
and half traced ones without the probe, which gives the tracing overhead.
Outputs are read back after each pass, outside its timing, and written to
RESULT with the per-op and per-pass times.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from ladderspec import cli, numeric  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402

NUMERIC_GRID = 2000
MAX_CHANNELS = 64


def numeric_result(l0: Fraction, l1: Fraction, l2: Fraction) -> dict:
    """One separated solve: theta levels, then xi channels until one is empty."""
    theta = numeric.solve_theta(l0, l1, numeric.GridSpec("theta", NUMERIC_GRID),
                                nev=3)
    channels = []
    for n in range(MAX_CHANNELS):
        alpha = float(1 + l0 + l1 + 2 * n) ** 2
        res = numeric.solve_xi(l2, alpha, numeric.GridSpec("xi", NUMERIC_GRID))
        if not res.eigenvalues:
            break
        channels.append(list(res.eigenvalues))
    return {"theta": list(theta.eigenvalues), "xi": channels}


class Runner:
    def __init__(self, outdir: str) -> None:
        self.outdir = outdir

    def path(self, index: int) -> str:
        return os.path.join(self.outdir, f"op{index}.out")

    def run(self, op: dict, index: int):
        """Execute one op; returns what collect() needs."""
        if op["kind"] == "numeric":
            return numeric_result(*(Fraction(x) for x in op["label"]))
        return cli.main(op["argv"] + ["--out", self.path(index)])

    def attempt(self, op: dict, index: int, op_id: int,
                timed_call) -> tuple[dict, float, float, float]:
        """Run one op through timed_call; an exception is the op's output.

        Returns (raw output, seconds as timed_call saw them, start, end)."""
        if op["kind"] != "numeric" and os.path.exists(self.path(index)):
            os.remove(self.path(index))
        start = time.perf_counter()
        try:
            value, seconds = timed_call(op_id, self.run, op, index)
            raw = {"value": value}
        except Exception as exc:  # an op that raises is a failed op
            raw = {"error": f"{type(exc).__name__}: {exc}"}
            seconds = time.perf_counter() - start
        return raw, seconds, start, time.perf_counter()

    def collect(self, op: dict, index: int, raw: dict) -> dict:
        if "error" in raw:
            return raw
        if op["kind"] == "numeric":
            return {"result": raw["value"]}
        text = ""
        if os.path.exists(self.path(index)):
            with open(self.path(index), encoding="utf-8") as fh:
                text = fh.read()
        return {"rc": raw["value"], "text": text}


def plain_call(_op_id: int, fn, *args):
    """Untraced counterpart of Tracer.run_op: (result, seconds)."""
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_passes(runner: Runner, ops: list[dict], budget: float,
               timed_call, first_id: int, probe: SpeedProbe | None) -> list[dict]:
    """Whole passes over the batch while the time spent plus the last pass
    fits in the budget.  With a probe, times are program seconds (probe
    kernel taken out) and ``ref_s`` gives them at the reference speed."""
    passes: list[dict] = []
    spent = 0.0
    while not passes or spent + passes[-1]["wall_s"] <= budget:
        raws, op_s, op_ref_s = [], [], []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            op_id = first_id + len(passes) * len(ops) + i
            raw, seconds, a, b = runner.attempt(op, i, op_id, timed_call)
            raws.append(raw)
            if probe is not None:
                seconds, ref = probe.measure(a, b)
                op_ref_s.append(ref)
            op_s.append(seconds)
        end = time.perf_counter()
        record = {"traced": probe is None, "wall_s": end - start, "op_s": op_s}
        if probe is not None:
            record["wall_s"], record["ref_s"] = probe.measure(start, end)
            record["op_ref_s"] = op_ref_s
        spent += end - start
        record["outputs"] = [runner.collect(op, i, raw)
                             for i, (op, raw) in enumerate(zip(ops, raws))]
        passes.append(record)
    return passes


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        params = json.load(fh)
    ops, warm = workloads.build(params["workload"], params["seed"])
    runner = Runner(params["outdir"])
    seconds = float(params["seconds"])

    warm_raw, warm_s, _, _ = runner.attempt(warm, len(ops), -1, plain_call)
    result: dict = {"ops": ops, "warm_up": {
        "name": warm["name"], "s": warm_s,
        "output": runner.collect(warm, len(ops), warm_raw)}}

    if not params["trace"]:
        with SpeedProbe() as probe:
            result["passes"] = run_passes(runner, ops, seconds, plain_call, 0,
                                          probe)
    else:
        from tracer import Tracer

        with SpeedProbe() as probe:
            plain = run_passes(runner, ops, seconds / 2, plain_call, 0, probe)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(runner, ops, seconds / 2, tracer.run_op,
                                len(plain) * len(ops), None)
        finally:
            tracer.uninstall()
        result["passes"] = plain + traced
        ratio = (statistics.median(p["wall_s"] for p in traced)
                 / statistics.median(p["wall_s"] for p in plain))
        result["per_layer"] = tracer.metrics(len(traced), ratio)
        tracer.save(os.path.join(params["outdir"],
                                 f"spans-{params['workload']}.npz"))

    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
