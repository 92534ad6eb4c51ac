"""tilealg benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; tilealg is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(ops_per_s, op_p50_ms, op_p90_ms, setup_s, peak_rss_mb); error_rate is
printed on the line before and is failed / attempted of the result.
Times are scaled to a fixed machine speed, gauged by a reference piece
of Python timed next to the ops (see `reference`); the unscaled figures
are printed too.
With --trace 1 they are the per-layer metrics of one traced pass over
the inputs.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5     # this process plus four fresh ones
MIN_OPS = 100         # so that ten latencies lie beyond op_p90_ms
REF_MS = 1.5          # the reference's typical time on the baseline machine
REF_EVERY = 0.05      # seconds between reference samples in a timed run
clock = time.perf_counter


def reference():
    """Fixed pure-Python work -- dicts, tuples, sorting, strings -- like
    the work of tilealg, but none of its code."""
    groups = {}
    for i in range(1500):
        groups.setdefault(i * 7919 % 1009, []).append((i, str(i)))
    ranked = sorted((len(v), k) for k, v in groups.items())
    return len("".join(str(n) for n, _ in ranked))


def time_reference():
    """Seconds that `reference` takes now, with the collector off so that
    the program's heap does not change its cost.

    The shared machine's speed drifts by up to 1.6x within seconds, and
    it moves the time of tilealg and of the reference alike.  Every time
    the benchmark reports is therefore scaled by REF_MS / (the reference's
    time at that moment): it is the time the work would take where the
    reference takes REF_MS."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu():
    """Run this process and the children it starts on the CPU it runs on
    now, so that the reference gauges the CPU that the ops run on."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})


def scaled_ms(seconds, ref_s):
    return seconds / ref_s * REF_MS


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor; below 1 only for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def run_op(workload, item, tracer=None, op_id=0):
    try:
        if tracer is None:
            return workload.op(item)
        return workload.op_traced(item, tracer, op_id)
    except Exception as exc:  # an op that raises counts as failed
        return ("raised", type(exc).__name__, str(exc))


def raised(out):
    return isinstance(out, tuple) and len(out) == 3 and out[0] == "raised"


def one_pass(workload, tracer=None):
    outs = []
    start = clock()
    for i, item in enumerate(workload.items):
        outs.append(run_op(workload, item, tracer, i))
    return outs, clock() - start


def failures(workload, outs):
    """Indices of the outputs that raised or failed their check."""
    bad = set()
    for i, (item, out) in enumerate(zip(workload.items, outs)):
        try:
            if raised(out) or not workload.check(i, item, out):
                bad.add(i)
        except Exception:  # a check that cannot run is a failed check
            bad.add(i)
    return bad


def digest(workload, outs):
    """Hash of the rendered outputs, in input order."""
    h = hashlib.sha256()
    for item, out in zip(workload.items, outs):
        text = repr(out) if raised(out) else workload.render(item, out)
        h.update(text.encode("utf-8") + b"\n")
    return h.hexdigest()[:16]


def timed_run(workload, seconds, children):
    """Whole passes over the inputs until the next pass would end further
    from `seconds` than stopping now and at least MIN_OPS ops are done
    (but no longer than twice `seconds`).  The reference is timed before
    an op whenever REF_EVERY has passed since its last sample.  Returns
    the first pass's outputs, the inputs whose output changed between
    passes, the op latencies per pass, the reference time around each
    op (the mean of the samples before and after it), the pass times
    and the peak RSS (of the children, if `children`) at the end of the
    first pass, before the latencies of later passes take memory."""
    items = workload.items
    latencies = []
    marks = []
    pass_s = []
    refs = [time_reference()]
    last_ref = clock()
    first = None
    unstable = set()
    start = clock()
    while True:
        outs = []
        row = []
        mark = []
        begin = clock()
        for item in items:
            if clock() - last_ref >= REF_EVERY:
                refs.append(time_reference())
                last_ref = clock()
            mark.append(len(refs) - 1)
            t = clock()
            outs.append(run_op(workload, item))
            row.append(clock() - t)
        pass_s.append(clock() - begin)
        latencies.append(row)
        marks.append(mark)
        if first is None:
            first = outs
            rss = peak_rss_mb(children)
        else:
            unstable.update(i for i, (a, b) in enumerate(zip(first, outs)) if a != b)
        elapsed = clock() - start
        done = len(latencies) * len(items) >= MIN_OPS
        if (done and elapsed + elapsed / len(pass_s) / 2 >= seconds) or elapsed >= 2 * seconds:
            refs.append(time_reference())
            around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
            ref_s = [[around[k] for k in mark] for mark in marks]
            return first, unstable, latencies, ref_s, pass_s, rss


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_samples(args, first):
    """Median scaled and unscaled set-up time of this process and
    SETUP_SAMPLES - 1 fresh ones."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(x["setup_s"] for x in samples),
            statistics.median(x["raw_setup_s"] for x in samples))


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def latency_metrics(op_ms):
    """ops_per_s, op_p50_ms and op_p90_ms from per-input latencies."""
    op_ms = sorted(op_ms)
    return {
        "ops_per_s": (1000 * len(op_ms) / sum(op_ms), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (percentile(op_ms, 0.9), "ms"),
    }


def end_to_end(args, workload, setup):
    first, unstable, latencies, ref_s, pass_s, rss = timed_run(
        workload, args.seconds, children=args.workload == "cli_session")
    bad = failures(workload, first) | unstable
    passes = len(pass_s)
    ops = passes * len(workload.items)
    failed = passes * len(bad)
    # Every input is timed once per pass, and its latency is the median
    # of these repetitions, scaled by the reference timed around each.
    scaled = [[scaled_ms(t, r) for t, r in zip(*rows)] for rows in zip(latencies, ref_s)]
    metrics = latency_metrics(statistics.median(op) for op in zip(*scaled))
    setup_s, raw_setup_s = setup_samples(args, setup)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    unscaled = latency_metrics(1000 * statistics.median(op) for op in zip(*latencies))
    refs = [r for row in ref_s for r in row]
    print(f"digest {digest(workload, first)}")
    print(f"timed {ops} ops in {passes} passes, {sum(pass_s):.3f} s")
    print(f"reference median {1000 * statistics.median(refs):.4f} ms, scaled to {REF_MS} ms")
    print("unscaled " + " ".join(f"{k} {v:.6g}" for k, (v, _) in unscaled.items())
          + f" setup_s {raw_setup_s:.6g}")
    return metrics, ops, failed, {"error_rate": (failed / ops, "ratio")}


def traced(args, workload):
    from tracing import Tracer

    outs0, wall0 = one_pass(workload)
    _, again = one_pass(workload)      # the first pass also warms up
    wall0 = min(wall0, again)
    tracer = Tracer().install()
    tracer.enabled = True
    outs1, wall1 = one_pass(workload, tracer)
    tracer.enabled = False
    tracer.uninstall()
    bad = failures(workload, outs0)
    bad |= {i for i, (a, b) in enumerate(zip(outs0, outs1)) if a != b}
    digest0, digest1 = digest(workload, outs0), digest(workload, outs1)
    print(f"digest {digest0} untraced, {digest1} traced")
    values = tracer.metrics(wall1)
    values.update(workload.layer_extras())
    values["trace.overhead_ratio"] = wall1 / wall0
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    tracer.write(span_path, {"workload": args.workload, "seed": args.seed,
                             "traced_wall_s": wall1, "untraced_wall_s": wall0})
    spans = len(tracer.s_name) + sum(len(c["name"]) for c in tracer.children)
    print(f"spans {spans} written to {os.path.relpath(span_path, ROOT)}")
    metrics = {k: (v, UNITS.get(k.split(".", 1)[1], "count")) for k, v in values.items()}
    failed = len(bad) + (digest0 != digest1)
    return metrics, len(workload.items), failed, {}


UNITS = {"self_s": "s", "share": "ratio", "nonzero_ratio": "ratio",
         "realize_s": "s", "solve_s": "s", "complete_s": "s", "collapse_s": "s",
         "geom_hom_s": "s", "bare_ms": "ms", "import_ms": "ms", "inproc_ms": "ms",
         "overhead_ratio": "ratio"}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tilealg", "__init__.py")):
        print(f"perfbench: no tilealg sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin_to_one_cpu()
    workload = workloads.WORKLOADS[args.workload](ROOT)
    refs = [time_reference() for _ in range(3)]
    start = clock()
    import tilealg  # noqa: F401  (timed: the import is part of set-up)
    workload.setup(args.seed, args.scale)
    raw_setup_s = clock() - start
    refs += [time_reference() for _ in range(3)]
    setup = {"setup_s": scaled_ms(raw_setup_s, statistics.median(refs)) / 1000,
             "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("shape " + json.dumps(workload.shape, sort_keys=True))
    if args.trace:
        metrics, ops, failed, extra = traced(args, workload)
    else:
        metrics, ops, failed, extra = end_to_end(args, workload, setup)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
