"""Self-test of the benchmark itself.

    python3 bench/check.py [--workload NAME ...]

For each workload it checks that:

  * BENCHMARK.json names the metrics and units of bench/metrics.py;
  * a traced run reports every per-layer metric, and each layer metric
    meant for this workload (its ``on`` list) is non-zero;
  * two traced runs with the same seed give identical exact counts, and
    a run with another seed gets other inputs and passes every check;
  * an untraced run installs no wrapper.

It runs the workloads at --seconds 1: one pass per phase of a traced
run, three passes in an untraced run. Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("snakecore.matchings", "snakecore.height_calls", "algebra.mono_new",
         "algebra.terms_out", "mpath.steps")


def fail(message):
    sys.stderr.write("check failed: %s\n" % message)
    sys.exit(1)


def bench(workload, seed, trace):
    """Run the benchmark once; return (metrics, run record)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        fail("%s seed %d trace %d exited %d:\n%s%s"
             % (workload, seed, trace, done.returncode, done.stdout,
                done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail("%s seed %d trace %d was not correct" % (workload, seed, trace))
    name = "run-%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(HERE, "out", name), encoding="utf-8") as fh:
        record = json.load(fh)
    return {m: v["value"] for m, v in result["metrics"].items()}, record


def check_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if declared != {m: u for m, (u, _) in END_TO_END.items()}:
        fail("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if declared != {m: spec[0] for m, spec in PER_LAYER.items()}:
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from metrics.WORKLOADS")


def check_workload(workload):
    first, first_record = bench(workload, 1, 1)
    if set(first) != set(PER_LAYER):
        fail("%s traced run reports %s" % (workload, sorted(first)))
    idle = [m for m, (_, _, on, _) in PER_LAYER.items()
            if workload in on and not first[m] > 0]
    if idle:
        fail("%s: layer metrics read 0: %s" % (workload, ", ".join(idle)))
    again, _ = bench(workload, 1, 1)
    for metric in EXACT:
        if first[metric] != again[metric]:
            fail("%s: %s differs between two seed-1 runs: %r, %r"
                 % (workload, metric, first[metric], again[metric]))
    _, other = bench(workload, 2, 1)
    if other["inputs"] == first_record["inputs"]:
        fail("%s: seeds 1 and 2 gave the same inputs" % workload)
    _, untraced = bench(workload, 1, 0)
    if untraced["wrappers"]:
        fail("%s: untraced run left wrappers: %s"
             % (workload, untraced["wrappers"]))
    print("%-12s ok: layers non-zero, exact counts repeat, seeds differ, "
          "no wrappers untraced" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args()
    check_declarations()
    for workload in args.workload:
        check_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
