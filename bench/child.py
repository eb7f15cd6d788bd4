"""One workload in a fresh process: set up, then time passes.

Started by run.py, never by hand. It writes JSON lines on its standard
output: {"event": "ready"} once set-up is done (import, input generation
and the golden gate), then {"event": "result", ...} at the end. Run with
--setup-only it exits after "ready", so that run.py can time several
set-ups. Everything else it prints goes to standard error.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# An untraced run reports medians, so it times at least three passes,
# even when that overruns --seconds.
MIN_PASSES = 3


class _Untraced:
    """Stands in for the tracer in untraced passes: it holds the current
    item id and nothing else."""

    item = -1


def _passes(run_pass, budget, at_least):
    """Call run_pass while the next call is expected to end within budget
    seconds, and at least ``at_least`` times; return (result, wall
    seconds) pairs."""
    done = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        result = run_pass()
        done.append((result, perf_counter() - t0))
        elapsed = perf_counter() - start
        typical = statistics.median(t for _, t in done)
        if len(done) >= at_least and elapsed + typical > budget:
            return done


def _summary(results):
    """Attempted and failed items, failures and item latencies of a run's
    passes."""
    return {
        "items": [[it.latency for it in p.items] for p in results],
        "attempted": sum(len(p.items) for p in results),
        "failed": sum(1 for p in results for it in p.items if not it.ok),
        "failures": [f for p in results for f in p.failures],
        "terms": sum(it.terms for it in results[0].items),
    }


def _same_output(results):
    """Every pass of a seeded workload must print the same text."""
    texts = {p.text for p in results}
    return [] if len(texts) <= 1 else ["passes printed different text"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    proto = sys.stdout
    sys.stdout = sys.stderr

    def emit(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    import snakegraphs
    src = os.path.join(ROOT, "src", "snakegraphs")
    if os.path.dirname(os.path.abspath(snakegraphs.__file__)) != src:
        sys.stderr.write("snakegraphs was imported from %s, not %s\n"
                         % (snakegraphs.__file__, src))
        return 2
    from workloads import WORKLOADS, golden_gate
    import tracing

    bad = golden_gate(os.path.join(src, "fixtures"))
    if bad:
        sys.stderr.write("golden gate failed:\n  %s\n" % "\n  ".join(bad))
        return 3
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=args.out)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        emit({"event": "ready"})
        if args.setup_only:
            return 0
        record = {"event": "result", "workload": args.workload,
                  "seed": args.seed}
        if args.trace:
            record.update(_traced(workload, args))
        else:
            untraced = _Untraced()
            passes = _passes(lambda: workload.run_pass(untraced),
                             args.seconds, MIN_PASSES)
            results = [p for p, _ in passes]
            record.update(_summary(results))
            record["failures"] += _same_output(results)
            record["pass_s"] = [t for _, t in passes]
            record["wrappers"] = tracing.installed_wrappers()
        record["failures"] += workload.final_check()
        record["inputs"] = workload.record()
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit(record)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(workload, args):
    """Untraced and traced passes in turn (ABBA order) for the budget,
    then one pass under the algebra counters."""
    import tracing
    from metrics import PER_LAYER, SELFTEST_SECTIONS
    untraced = _Untraced()
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = perf_counter()
    while True:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for use_tracer in order:
            if use_tracer:
                tracer.install_spans()
            try:
                t0 = perf_counter()
                result = workload.run_pass(tracer if use_tracer else untraced)
                seconds = perf_counter() - t0
            finally:
                tracer.uninstall()
            if use_tracer:
                traced.append(((result, tracer.take_spans()), seconds))
            else:
                plain.append((result, seconds))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    counter = tracing.Tracer()
    counter.install_counters()
    try:
        counted = workload.run_pass(counter)
    finally:
        counter.uninstall()

    plain_s = statistics.median(t for _, t in plain)
    traced_s = statistics.median(t for _, t in traced)
    counts = dict(counter.counts)
    counts["overhead_frac"] = traced_s / plain_s - 1.0
    for section in SELFTEST_SECTIONS:
        counts["section:" + section] = statistics.median(
            p.sections.get(section, 0.0) for p, _ in plain)
    layers = []
    for (result, spans), _ in traced:
        counts["output_bytes"] = result.output_bytes
        counts["spans"] = len(spans)
        layers.append(tracing.per_layer(spans, counts))
    spans_path = os.path.join(args.out, "spans-%s-seed%d.jsonl"
                              % (args.workload, args.seed))
    tracing.write_spans(spans_path, [spans for (_, spans), _ in traced])

    results = ([p for p, _ in plain] + [p for (p, _), _ in traced]
               + [counted])
    summary = _summary(results)
    summary["failures"] += _same_output(results)
    per_layer = {}
    for metric, (unit, *_rest) in PER_LAYER.items():
        values = [layer[metric] for layer in layers]
        if unit in ("count", "bytes"):
            if len(set(values)) > 1:
                summary["failures"].append(
                    "%s differs between traced passes: %r" % (metric, values))
            per_layer[metric] = values[0]
        else:
            per_layer[metric] = statistics.median(values)
    summary["per_layer"] = per_layer
    summary["pass_s"] = [t for _, t in plain]
    summary["traced_pass_s"] = [t for _, t in traced]
    summary["spans_file"] = os.path.relpath(spans_path, ROOT)
    return summary


if __name__ == "__main__":
    sys.exit(main())
