"""The snakegraphs benchmark.

    python3 bench/run.py [--workload selftest|wide-snakes|long-arcs|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Runs each workload in a fresh child process (closed loop, one client:
one process, one thread), from the sources under src/ of the checkout
that holds this file. Every timed output is checked; a wrong output, a
golden mismatch or a failed selftest section makes the run exit 1.

With --trace 0 it prints the end-to-end metrics of bench/metrics.py; the
set-up is timed in several fresh processes and reported as the median.
With --trace 1 it prints the per-layer metrics of a traced run: spans
wrapped around the program's public functions at run time (see
tracing.py), written to bench/out/. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 7
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def child_env():
    """The environment of every child: sources from this checkout only,
    a fixed hash seed, no bytecode written into the tree, and no
    SNAKE_SELFTEST_TRIALS, which would shrink the selftest."""
    env = dict(os.environ)
    env.pop("SNAKE_SELFTEST_TRIALS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, deadline, setup_only=False):
    """Start one child; return (set-up seconds, result record or None).
    Set-up runs from the start of the process to its "ready" line."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        tail = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or not ready.strip():
        raise RunFailed("%s child exited with code %s before its result"
                        % (args.workload, code))
    if json.loads(ready)["event"] != "ready":
        raise RunFailed("child sent %r instead of ready" % ready)
    if setup_only:
        return setup_s, None
    lines = tail.strip().splitlines()
    if not lines:
        raise RunFailed("%s child sent no result" % args.workload)
    return setup_s, json.loads(lines[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def source_digest():
    digest = hashlib.sha256()
    base = os.path.join(SRC, "snakegraphs")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args):
    return {"seed": args.seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit(),
            "src_sha256": source_digest(), "run_seconds": args.seconds}


def end_to_end(record, setups):
    pass_s = statistics.median(record["pass_s"])
    # Every pass runs the same items, so an item's latency is its median
    # over the passes; the percentiles are taken over the items.
    items = [statistics.median(times) for times in zip(*record["items"])]
    samples = sum(len(p) for p in record["items"])
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "item_p90_ms": nearest_rank(items, 90) * 1e3,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    extra = {"item_p50_ms": nearest_rank(items, 50) * 1e3,
             "failed_frac": record["failed"] / record["attempted"]}
    if record["terms"]:
        extra["terms_per_s"] = record["terms"] / pass_s
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "pass_s": "median of %d passes" % len(record["pass_s"]),
        "item_p50_ms": "nearest rank of %d items, %d samples"
                       % (len(items), samples),
        "item_p90_ms": "nearest rank of %d items, %d samples"
                       % (len(items), samples),
        "terms_per_s": "%d terms a pass" % record["terms"],
        "failed_frac": "%d of %d failed" % (record["failed"],
                                            record["attempted"]),
    }
    return values, extra, notes


def run_workload(args, deadline):
    """One workload: its metrics and the record written to bench/out."""
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(run_child(args, deadline, setup_only=True)[0])
    setup_s, record = run_child(args, deadline)
    setups.append(setup_s)
    failures = list(record["failures"])
    if record.get("wrappers"):
        failures.append("untraced run left wrappers installed: %s"
                        % ", ".join(record["wrappers"]))
    if args.trace:
        metrics = {m: (v, PER_LAYER[m][0])
                   for m, v in record["per_layer"].items()}
        lines = [(m, v, u, "") for m, (v, u) in metrics.items()]
    else:
        values, extra, notes = end_to_end(record, setups)
        metrics = {m: (v, END_TO_END[m][0]) for m, v in values.items()}
        lines = [(m, v, u, notes.get(m, "")) for m, (v, u) in metrics.items()]
        lines += [(m, v, REPORTED_ONLY[m], notes[m] + ", not gated")
                  for m, v in extra.items()]
    record["setup_s"] = setups
    record["environment"] = environment(args)
    name = "run-%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                          args.trace)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for metric, value, unit, note in lines:
        print("%-12s %-36s %14.6g %-6s %s"
              % (args.workload, metric, value, unit, note))
    for failure in failures:
        print("%-12s FAILED: %s" % (args.workload, failure))
    return metrics, record["attempted"], record["failed"], failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "snakegraphs", "__init__.py")):
        sys.stderr.write("no sources at %s; run from a full checkout\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment(args)
    print("# seed=%(seed)d python=%(python)s nproc=%(nproc)s "
          "commit=%(commit)s src_sha256=%(src_sha256)s" % env)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, failures = {}, 0, 0, []
    for workload in chosen:
        one = argparse.Namespace(**vars(args))
        one.workload = workload
        try:
            got, tried, bad, why = run_workload(one, deadline)
        except RunFailed as exc:
            sys.stderr.write("%s\n" % exc)
            return 1
        prefix = "" if len(chosen) == 1 else workload + "/"
        metrics.update({prefix + m: {"value": v, "unit": u}
                        for m, (v, u) in got.items()})
        attempted += tried
        failed += bad
        failures += why
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
