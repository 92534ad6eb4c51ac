#!/usr/bin/env python3
"""Alternating rounds of one perfbench workload, or of one ladder family,
on two source trees.

    python3 scripts/ab_bench.py PARENT CHANGE --workload W [--seed 1] [--seconds 30] [--rounds 10]
    python3 scripts/ab_bench.py PARENT CHANGE --ladder FAMILY [--rounds 10]

PARENT and CHANGE are two checkouts on disk, for example one made by
`git archive` of the parent commit.  Each round runs one child process in
each tree, with the tree as the working directory, so that each side
imports its own `src`; the side that runs first swaps from one round to
the next.  With --workload the child is
`perfbench/run.py --workload W --seed S --seconds T`.  Every run is
printed as it ends: its end-to-end metrics, failed over attempted ops
and its digest.  Then, for each end-to-end metric of BENCHMARK.json,
come each side's median and quartiles, the median of the per-round
ratios CHANGE / PARENT and how many rounds each side won, by the
metric's direction, then whether the gain rule holds for it: the change
won at least nine tenths of all rounds, a tie counting for neither side,
and its median is better than the parent's by more than the distance
between the parent's quartiles.  Last comes one line on the digests: the
digest when every run of both sides printed the same one, else each
side's digests.
With --ladder the child runs the one family FAMILY of the tree's own
`scripts/bench_ladder.py`, its rungs up to size 3200 under that
script's stop rule.  Every run is printed as its best
time per rung; then, for each rung that every run reached, come each
side's median time, the median ratio CHANGE / PARENT and the rounds won,
lower being better.  Ties count for neither side.  Next to the rounds
won stands the exact two-sided sign-test p-value of the split, ties
left out: the chance of a split at least as uneven if either side were
as likely to win each round (4 rounds to 1 gives 0.375).  Nothing is
gated: the numbers are for a reader to judge.
Exit codes: 0 done, 1 a run failed, 2 malformed arguments.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# One ladder family of the tree it runs in, printed as JSON rungs.
LADDER_CHILD = """
import importlib.util, json, os, sys
sys.path.insert(0, os.path.abspath("src"))
spec = importlib.util.spec_from_file_location("bench_ladder", "scripts/bench_ladder.py")
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)
name = sys.argv[1]
if name not in ladder.FAMILIES:
    sys.exit(f"no ladder family {name!r}; there are: {', '.join(ladder.FAMILIES)}")
ladder.FAMILIES = {name: ladder.FAMILIES[name]}
print(json.dumps(ladder.ladder(3200)["families"][name]))
"""


def _better():
    """metric name -> "higher" or "lower", the end-to-end metrics of
    BENCHMARK.json in their order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _run(tree, args):
    """The last stdout line of one perfbench run in `tree`, parsed, with
    the digest it printed under "digest"; None and the error output if
    the run failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return None, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((l.split()[1] for l in lines if l.startswith("digest ")), "-")
    return result, ""


def _run_ladder(tree, args):
    """The rungs of one run of the ladder family in `tree`; None and the
    error output if the run failed."""
    proc = subprocess.run([sys.executable, "-c", LADDER_CHILD, args.ladder],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return None, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), ""


def _line(side, result, better):
    values = " ".join(f"{name} {result['metrics'][name]['value']:.6g}" for name in better)
    return (f"  {side:6} {values} failed {result['failed']}/{result['attempted']}"
            f" digest {result['digest']}")


def _ladder_line(side, rungs):
    return f"  {side:6} " + " ".join(f"{r['size']}:{r['best_s']:.6g}" for r in rungs)


def _quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sign_test(wins, losses):
    """The exact two-sided sign-test p-value of `wins` rounds against
    `losses`, ties left out."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def _compare(parent, change, direction):
    """The median ratio change / parent of paired values, and the rounds
    each side won with their sign test, as the end of a summary line."""
    sign = 1 if direction == "higher" else -1
    ratios = [c / a for a, c in zip(parent, change) if a]
    won = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
    lost = sum(sign * (a - c) > 0 for a, c in zip(parent, change))
    ratio = f"{statistics.median(ratios):.4f}" if ratios else "-"
    return (f"median ratio change/parent {ratio}, {direction} is better; rounds won: "
            f"change {won}, parent {lost}, sign test p {sign_test(won, lost):.4g}")


def gain_rule(parent, change, direction):
    """Whether paired values show a gain of the change, as the end of a
    summary line: it won at least nine tenths of the rounds, ties
    counting for neither side, and its median is better than the
    parent's by more than the parent's q1-q3 spread."""
    sign = 1 if direction == "higher" else -1
    won = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
    needed = -(-9 * len(parent) // 10)
    q1, median, q3 = _quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    verdict = "holds" if won >= needed and gain > q3 - q1 else "does not hold"
    return (f"gain rule {verdict}: change won {won} of {len(parent)} rounds, {needed} needed; "
            f"median gain {gain:.6g}, parent q1-q3 spread {q3 - q1:.6g}")


def summary(pairs, better):
    """The lines that sum up (parent result, change result) pairs, each
    result a parsed perfbench result line: per metric, each side's median
    and quartiles, the median ratio change / parent and the rounds won,
    and whether the gain rule holds."""
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
        lines.append(f"{name:12} {_compare(parent, change, direction)}")
        lines.append(f"{name:12} {gain_rule(parent, change, direction)}")
    return lines


def digest_line(pairs):
    """One line on the digests of (parent result, change result) pairs:
    the digest when every run of both sides printed the same one, else
    each side's distinct digests in the order they came."""
    sides = [list(dict.fromkeys(r["digest"] for r in results)) for results in zip(*pairs)]
    if len(set(sides[0] + sides[1])) == 1:
        return f"digests agree: {sides[0][0]}"
    return "digests differ: " + "; ".join(
        f"{side} {' '.join(digests)}" for side, digests in zip(SIDES, sides))


def ladder_summary(pairs):
    """The lines that sum up (parent rungs, change rungs) pairs of one
    ladder family: for each size that every run reached, each side's
    median best time, the median ratio change / parent and the rounds won."""
    times = [[{r["size"]: r["best_s"] for r in rungs} for rungs in pair] for pair in pairs]
    sizes = [r["size"] for r in pairs[0][0]
             if all(r["size"] in side for pair in times for side in pair)]
    lines = [f"{len(pairs)} pairs; best time per rung in s",
             f"{'size':>6} {'parent':>11} {'change':>11}"]
    for size in sizes:
        parent, change = ([side[size] for side in sides] for sides in zip(*times))
        lines.append(f"{size:6} {statistics.median(parent):11.6g} "
                     f"{statistics.median(change):11.6g}  {_compare(parent, change, 'lower')}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(prog="ab_bench.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--ladder", metavar="FAMILY")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int, default=10)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code else 0
    trees = (args.parent, args.change)
    need = Path("scripts/bench_ladder.py") if args.ladder else Path("perfbench/run.py")
    for tree in trees:
        if not (tree / need).is_file():
            print(f"no {need} under {tree}")
            return 2
    if args.rounds < 1 or args.seconds <= 0:
        print("--rounds and --seconds must be positive")
        return 2
    if args.ladder:
        run, line = _run_ladder, _ladder_line
    else:
        better = _better()
        run, line = _run, lambda side, result: _line(side, result, better)
    pairs = []
    for k in range(args.rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        print(f"round {k + 1}: {SIDES[order[0]]} first", flush=True)
        pair = [None, None]
        for i in order:
            result, error = run(trees[i], args)
            if result is None:
                print(f"  {SIDES[i]} run failed:\n{error}")
                return 1
            pair[i] = result
            print(line(SIDES[i], result), flush=True)
        pairs.append(pair)
    if args.ladder:
        print("\n".join(ladder_summary(pairs)))
    else:
        print("\n".join(summary(pairs, better) + [digest_line(pairs)]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
