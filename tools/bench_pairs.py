"""Run the benchmark in alternating parent/change pairs and write one JSON.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 2001 \
        --out BENCH_<n>.json [--anchor REV]

The parent revision's committed files are extracted with ``git archive``
into a temporary directory, which is removed afterwards.  For pair i and
each workload of BENCHMARK.json, ``perfbench/run.py --workload W --seed
(seed + i) --seconds S --trace 0``, with S the ``run_seconds`` of
BENCHMARK.json, runs once in the parent tree and once in the working tree,
one run at a time; even pairs start with the parent, odd pairs with the
change.  The working tree runs from a copy of the files git tracks or would
track (``git ls-files --cached --others --exclude-standard``), so, like the
extracted parent, it holds no ``__pycache__`` of an earlier run and its
modules compile as the parent's do.  With ``--anchor REV`` a third tree, a
fixed older revision, runs in the same alternation (parent, change, anchor;
reversed on odd pairs), so that drift across several changes shows: each
metric then also carries the anchor's runs and the change/anchor median
ratio (`vs_anchor`), which is reported next to the verdict and gates
nothing.  The output holds, per
workload and end-to-end metric, every side's runs with their median and
quartiles, the number of pairs the change won against the parent and the
gate's verdict (`verdict`); per workload, every side's untraced pass counts
(read from the "passes N untraced" line of run.py) with their median and
quartiles and the change/parent median ratio (`pass_ratio`); the failed and
attempted op counts and whether every run was correct; the git SHAs, the
Python version and the core count.  The verdicts are also printed, one
line per workload and metric, and the pass ratio next to the `peak_rss_mb`
verdict: the worker keeps each pass's output, so a run that makes more
passes reads a higher peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
PASSES = re.compile(r"passes (\d+) untraced")


def git(*args: str, cwd: str | None = None) -> str:
    return subprocess.run(("git",) + args, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, root: str, dest: str) -> None:
    """Write the committed files of `rev` into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def snapshot(root: str, dest: str) -> None:
    """Copy into `dest` the working tree's files that git tracks or would
    track, as they are now; a tracked file deleted from the tree stays out."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=root)
    for name in filter(None, names.split("\0")):
        src, dst = os.path.join(root, name), os.path.join(dest, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced benchmark run in `tree`, with its
    number of untraced passes under "passes"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                         text=True, stdin=subprocess.DEVNULL)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["passes"] = int(PASSES.search(out.stdout).group(1))
    return res


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    """The change/parent median ratio, the parent IQR as a share of the
    parent median, and whether the change is at most `bound` (relative)
    worse: "within" or "worse", or "unresolved" when that IQR share
    exceeds the bound, since the parent's own runs then spread too widely
    to tell."""
    ratio = change["median"] / parent["median"]
    spread = parent["iqr"] / parent["median"]
    worse = ratio - 1 if better == "lower" else 1 - ratio
    return {"ratio": ratio, "parent_iqr_share": spread, "bound": bound,
            "verdict": "unresolved" if spread > bound
            else "within" if worse <= bound else "worse"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    ap.add_argument("--out", required=True)
    ap.add_argument("--anchor", help="older revision run as a third tree; "
                    "reports change/anchor medians, gates nothing")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    root = git("rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = SIDES + ("anchor",) if args.anchor else SIDES
    runs = {w: {side: [] for side in sides} for w in workloads}
    # a terminated run still removes its temporary trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in sides}
        snapshot(root, trees["change"])
        for side, rev in (("parent", args.parent), ("anchor", args.anchor)):
            if rev:
                os.mkdir(trees[side])
                extract(rev, root, trees[side])
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for w in workloads:
                for side in order:
                    res = run_once(trees[side], w, args.seed + i, seconds)
                    runs[w][side].append(res)
                    print(f"pair {i} {w} {side}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
                        + f", passes {res['passes']}",
                        file=sys.stderr, flush=True)

    out = {"parent_sha": git("rev-parse", args.parent, cwd=root),
           "anchor_sha": args.anchor and git("rev-parse", args.anchor, cwd=root),
           "change_sha": git("rev-parse", "HEAD", cwd=root),
           "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no",
                                    cwd=root)),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "pairs": args.pairs, "seeds": [args.seed, args.seed + args.pairs - 1],
           "seconds": seconds, "command": "python3 perfbench/run.py "
           "--workload W --seed N --seconds S --trace 0", "workloads": {}}
    for w in workloads:
        entry = {side: {"attempted": sum(r["attempted"] for r in runs[w][side]),
                        "failed": sum(r["failed"] for r in runs[w][side]),
                        "all_correct": all(r["correct"] for r in runs[w][side])}
                 for side in sides}
        passes = {side: summary([r["passes"] for r in runs[w][side]]) for side in sides}
        entry["passes"] = dict(passes, pass_ratio=passes["change"]["median"]
                               / passes["parent"]["median"])
        for name, metric in metrics.items():
            vals = {side: [r["metrics"][name]["value"] for r in runs[w][side]]
                    for side in sides}
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            entry[name] = {side: summary(vals[side]) for side in sides}
            entry[name]["change_wins"] = wins
            v = entry[name]["verdict"] = verdict(entry[name]["parent"], entry[name]["change"],
                                                 metric["better"], metric["bound"])
            notes = ""
            if args.anchor:
                a = entry[name]["anchor"]
                entry[name]["vs_anchor"] = {"ratio": entry[name]["change"]["median"] / a["median"],
                                            "anchor_iqr_share": a["iqr"] / a["median"]}
                notes = f"; change/anchor {entry[name]['vs_anchor']['ratio']:.3f}"
            if name == "peak_rss_mb":
                notes += f"; passes change/parent {entry['passes']['pass_ratio']:.3f}"
            print(f"{w} {name}: ratio {v['ratio']:.3f}, parent IQR "
                  f"{v['parent_iqr_share']:.1%} of median, bound {v['bound']:.0%}: "
                  f"{v['verdict']}{notes}")
        out["workloads"][w] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
