#!/usr/bin/env python3
"""A/B the serve benchmark: a base revision against the working tree.

Usage (from the repository root)::

    python scripts/perfbench_ab.py [--base REV] [--pairs N]
        [--workloads w1,w2]

Exports the base revision (``git archive``) and the working tree as git
would commit it (tracked plus untracked, ignored files left out) into
two temporary directories, then runs ``perfbench/run.py`` from each, in
``N`` pairs per workload (default 10) at seeds ``1..N``, alternating
which side runs first, each run ``run_seconds`` long as
``BENCHMARK.json`` sets it.  Each side runs its own benchmark code
against its own ``src/``.

For every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median, the base's interquartile range over its median, the change's
relative delta (positive = better, in the metric's own direction), the
pairs the change won, and a verdict:

- ``WORSE THAN BOUND`` — the change's median is worse than the bound;
- ``gain`` — at least 10 pairs, the change wins at least nine tenths of
  them, and the medians differ by more than the base's IQR;
- ``unresolved`` — the base's IQR/median is wider than the bound and
  the change does not beat every base run, so this many runs cannot
  tell a move inside the bound from one outside it;
- ``ok`` — otherwise.

``--base`` defaults to ``HEAD`` when the working
tree has uncommitted changes and to ``HEAD~1`` when it is clean.  The
exit status is 1 when any run fails its correctness check or any
metric is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fewer pairs than this never resolve a gain.
MIN_GAIN_PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                          capture_output=True, text=True).stdout


def export_revision(rev: str, dest: pathlib.Path) -> None:
    """``git archive rev`` unpacked into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=REPO_ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)


def export_worktree(dest: pathlib.Path) -> None:
    """The working tree's tracked and untracked, non-ignored files."""
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = REPO_ROOT / name
        if src.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: int) -> dict:
    """One untraced benchmark run; returns its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, base: list[float],
              change: list[float]) -> dict:
    """Medians, spread, delta and verdict for one metric on one
    workload; ``base``/``change`` are paired run values and ``metric``
    its ``BENCHMARK.json`` entry (``better``, ``bound``)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    delta = sign * (c_med - b_med) / b_med if b_med else 0.0
    iqr = (b_q3 - b_q1) / b_med if b_med else 0.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    beats_all = min(sign * c for c in change) > max(sign * b for b in base)
    row = {
        "base_median": b_med,
        "change_median": c_med,
        "base_iqr_over_median": iqr,
        "delta": delta,
        "wins": wins,
        "pairs": len(base),
        "over_bound": delta < -metric["bound"],
        "unresolved": iqr > metric["bound"] and not beats_all,
        "gain_resolved": (len(base) >= MIN_GAIN_PAIRS
                          and wins >= 0.9 * len(base)
                          and sign * (c_med - b_med) > b_q3 - b_q1),
    }
    row["verdict"] = ("WORSE THAN BOUND" if row["over_bound"]
                      else "gain" if row["gain_resolved"]
                      else "unresolved" if row["unresolved"]
                      else "ok")
    return row


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default=None)
    parser.add_argument("--pairs", type=int, default=MIN_GAIN_PAIRS)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    base_rev = args.base
    if base_rev is None:
        dirty = _git("status", "--porcelain", "--untracked-files=normal")
        base_rev = "HEAD" if dirty.strip() else "HEAD~1"
    base_sha = _git("rev-parse", "--short", base_rev).strip()
    workloads = [w for w in args.workloads.split(",") if w]
    metrics = spec["end_to_end"]
    print(f"base {base_rev} ({base_sha}) vs working tree: "
          f"{args.pairs} pairs x {seconds} s per workload")

    failed = False
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        trees = {"base": pathlib.Path(tmp, "base"),
                 "change": pathlib.Path(tmp, "change")}
        for tree in trees.values():
            tree.mkdir()
        export_revision(base_rev, trees["base"])
        export_worktree(trees["change"])
        for workload in workloads:
            runs: dict = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                              "base")
                for side in order:
                    result = run_once(trees[side], workload, i + 1,
                                      seconds)
                    runs[side].append(result)
                    if not result.get("correct") or result.get("failed"):
                        failed = True
                        print(f"  {workload} {side} seed {i + 1}: "
                              f"correct={result.get('correct')} "
                              f"failed={result.get('failed')} "
                              f"{result.get('error', '')}")
            print(f"\n{workload}")
            print(f"  {'metric':<26}{'base':>12}{'change':>12}"
                  f"{'base IQR/med':>14}{'delta':>9}{'wins':>7}"
                  f"{'bound':>8}  verdict")
            for metric in metrics:
                name = metric["name"]
                paired = [(b["metrics"][name]["value"],
                           c["metrics"][name]["value"])
                          for b, c in zip(runs["base"], runs["change"])
                          if name in b["metrics"] and name in c["metrics"]]
                if not paired:
                    continue
                row = summarize(metric, [b for b, _ in paired],
                                [c for _, c in paired])
                failed |= row["over_bound"]
                print(f"  {name:<26}{row['base_median']:>12.4g}"
                      f"{row['change_median']:>12.4g}"
                      f"{row['base_iqr_over_median']:>14.3f}"
                      f"{row['delta']:>+9.1%}"
                      f"{row['wins']:>4}/{row['pairs']:<2}"
                      f"{metric['bound']:>8.2f}  {row['verdict']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
