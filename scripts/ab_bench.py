#!/usr/bin/env python3
"""Alternating rounds of one perfbench workload on two source trees.

    python3 scripts/ab_bench.py PARENT CHANGE --workload W [--seed 1] [--seconds 30] [--rounds 10]

PARENT and CHANGE are two checkouts on disk, for example one made by
`git archive` of the parent commit.  Each round runs
`perfbench/run.py --workload W --seed S --seconds T` once in each tree,
with the tree as the working directory, so that each side imports its
own `src`; the side that runs first swaps from one round to the next.
Every run is printed as it ends: its end-to-end metrics, failed over
attempted ops and its digest.  Then, for each end-to-end metric of
BENCHMARK.json, come each side's median and quartiles, the median of the
per-round ratios CHANGE / PARENT and how many rounds each side won, by
the metric's direction; ties count for neither.  Nothing is gated: the
numbers are for a reader to judge.
Exit codes: 0 done, 1 a run failed, 2 malformed arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _better():
    """metric name -> "higher" or "lower", the end-to-end metrics of
    BENCHMARK.json in their order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _run(tree, args):
    """The last stdout line of one perfbench run in `tree`, parsed, and
    its digest line; None and the error output if the run failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return None, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), "-")
    return json.loads(lines[-1]), digest


def _line(side, result, digest, better):
    values = " ".join(f"{name} {result['metrics'][name]['value']:.6g}" for name in better)
    return (f"  {side:6} {values} failed {result['failed']}/{result['attempted']}"
            f" digest {digest}")


def _quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs, better):
    """The lines that sum up (parent result, change result) pairs, each
    result a parsed perfbench result line: per metric, each side's median
    and quartiles, the median ratio change / parent and the rounds won."""
    lines = [f"{len(pairs)} pairs; failed ops: "
             + ", ".join(f"{side} {sum(r['failed'] for r in results)}/"
                         f"{sum(r['attempted'] for r in results)}"
                         for side, results in zip(SIDES, zip(*pairs))),
             f"{'metric':12} {'side':6} {'median':>11} {'q1':>11} {'q3':>11}"]
    for name, direction in better.items():
        parent, change = ([r["metrics"][name]["value"] for r in results]
                          for results in zip(*pairs))
        for side, values in zip(SIDES, (parent, change)):
            q1, median, q3 = _quartiles(values)
            lines.append(f"{name:12} {side:6} {median:11.6g} {q1:11.6g} {q3:11.6g}")
        sign = 1 if direction == "higher" else -1
        ratios = [c / a for a, c in zip(parent, change) if a]
        wins = [sum(sign * (c - a) > 0 for a, c in zip(parent, change)),
                sum(sign * (a - c) > 0 for a, c in zip(parent, change))]
        ratio = f"{statistics.median(ratios):.4f}" if ratios else "-"
        lines.append(f"{name:12} median ratio change/parent {ratio}, {direction} is "
                     f"better; rounds won: change {wins[0]}, parent {wins[1]}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(prog="ab_bench.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int, default=10)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code else 0
    trees = (args.parent, args.change)
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"no perfbench/run.py under {tree}")
            return 2
    if args.rounds < 1 or args.seconds <= 0:
        print("--rounds and --seconds must be positive")
        return 2
    better = _better()
    pairs = []
    for k in range(args.rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        print(f"round {k + 1}: {SIDES[order[0]]} first", flush=True)
        pair = [None, None]
        for i in order:
            result, digest = _run(trees[i], args)
            if result is None:
                print(f"  {SIDES[i]} run failed:\n{digest}")
                return 1
            pair[i] = result
            print(_line(SIDES[i], result, digest, better), flush=True)
        pairs.append(pair)
    print("\n".join(summary(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
