"""ladderspec benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 20 --trace 0

Workloads: spectrum-sweep, verify-seeds, numeric-oracle, lattice-walk (see
README.md beside this file).  The package is used from ``src/`` as it is;
nothing is installed or built.

With ``--trace 0`` the run prints the end-to-end metrics: ``wall_s`` (median
wall time of one whole pass over the op batch), ``wall_ref_s`` (the same
passes at the speed probe's reference CPU speed, see speedprobe.py),
``peak_rss_mb`` (peak resident memory of the workload's process) and
``setup_s`` (median time of a fresh interpreter until ``ladderspec.cli`` is
imported and its parser built, at the probe's reference speed).  The last
line carries ``wall_ref_s``, ``peak_rss_mb`` and ``setup_s``; report lines
also give ``wall_s``, ``fail_ratio`` with the failing ops by name,
``max_rel_err`` on numeric-oracle, per-op times with their inputs and the
environment.  With ``--trace 1`` the package's public functions are wrapped
(see tracer.py) and the run prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``failed`` counts every op whose output is
wrong, including the known float Gram-rank over-count of degeneracies;
``correct`` is false when any op is wrong in another way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench"
SETUP_LAUNCHES = 5
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(wall seconds, seconds at the probe's reference speed) of fresh
    interpreters importing the CLI and building its parser; one untimed
    launch first so byte-code caches exist.  The import and parser build run
    under the speed probe (startup.py); interpreter start and exit count
    as measured."""
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, os.path.join(HERE, "startup.py")],
                             env=env, check=True, capture_output=True,
                             text=True, stdin=subprocess.DEVNULL, timeout=60)
        wall = time.perf_counter() - start
        program, ref = json.loads(out.stdout)
        if i:
            samples.append((wall, wall - program + ref))
    return samples


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check(result: dict, ref: dict) -> tuple[list[dict], float]:
    """Check every op of every pass; returns (failures, worst rel. error)."""
    failures, worst = [], 0.0
    ops = result["ops"]
    for n, p in enumerate(result["passes"]):
        for op, output in zip(ops, p["outputs"]):
            problems, rel = reference.check_op(op, output, ref)
            worst = max(worst, rel)
            if problems:
                failures.append({"pass": n, "op": op["name"],
                                 "known_defect": all(k == reference.KNOWN_DEFECT
                                                     for k, _ in problems),
                                 "problems": [m for _, m in problems]})
    return failures, worst


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ladderspec", "__init__.py")):
        print("error: run from the repository root; src/ladderspec is missing",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    params_path = os.path.join(OUT_DIR, f"params-{tag}.json")
    result_path = os.path.join(OUT_DIR, f"result-{tag}.json")
    with open(params_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "outdir": OUT_DIR}, fh)

    env = child_env()
    setup = [] if args.trace else measure_setup(env)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), params_path,
             result_path], env=env, stdin=subprocess.DEVNULL,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    failures, max_rel_err = check(result, reference.load_reference())
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = len(result["ops"]) * len(passes)
    wall_s = statistics.median(p["wall_s"] for p in plain)
    wall_ref_s = statistics.median(p["ref_s"] for p in plain)
    setup_s = statistics.median(r for _, r in setup) if setup else None
    env_info = dict(result["env"], git_sha=git_sha(),
                    threads={v: env[v] for v in THREAD_VARS})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(passes) - len(plain)} traced")
    print(f"  why: {workloads.WORKLOADS[args.workload]}")
    pass_s = ", ".join(f"{p['wall_s']:.4f}" for p in plain)
    pass_ref_s = ", ".join(f"{p['ref_s']:.4f}" for p in plain)
    print(f"  wall_s        {wall_s:.4f} s   (median of {len(plain)} untraced "
          f"passes: {pass_s})")
    print(f"  wall_ref_s    {wall_ref_s:.4f} s   (the same passes at the probe's "
          f"reference speed: {pass_ref_s})")
    print(f"  fail_ratio    {len(failures) / attempted:.4f} 1   "
          f"({len(failures)} of {attempted} ops)")
    for f in failures:
        tag = "known float-rank over-count" if f["known_defect"] else "WRONG"
        print(f"    failed: {f['op']} (pass {f['pass']}, {tag}): "
              + "; ".join(f["problems"]))
    if not args.trace:
        print(f"  peak_rss_mb   {result['peak_rss_mb']:.2f} MB")
        walls = ", ".join(f"{w:.4f}" for w, _ in setup)
        refs = ", ".join(f"{r:.4f}" for _, r in setup)
        print(f"  setup_s       {setup_s:.4f} s   (median of {len(setup)} launches "
              f"at the probe's reference speed: {refs}; wall: {walls})")
    if args.workload == "numeric-oracle":
        print(f"  max_rel_err   {max_rel_err:.3e} 1   (crosscheck tolerance "
              f"{reference.CROSSCHECK_TOL} absolute)")
    print(f"  warm-up {result['warm_up']['name']}: "
          f"{result['warm_up']['s']:.4f} s (untimed)")
    for n, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        refs = p.get("op_ref_s", [None] * len(p["op_s"]))
        for op, t, ref in zip(result["ops"], p["op_s"], refs):
            at_ref = "" if ref is None else f", {ref:.4f} s at reference speed"
            print(f"  op pass {n} ({kind}) {op['name']}: {t:.4f} s{at_ref}")
    print(f"  env {json.dumps(env_info, sort_keys=True)}")

    if args.trace:
        metrics = {k: metric(v, u) for k, (v, u) in result["per_layer"].items()}
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {"wall_ref_s": metric(wall_ref_s, "s"),
                   "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
                   "setup_s": metric(setup_s, "s")}
    print(json.dumps({"correct": all(f["known_defect"] for f in failures),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
