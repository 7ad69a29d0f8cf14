"""PyMAO benchmark: one seeded workload, untraced or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload optimize_cold --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off; ``--trace 1`` is the separate traced run that reports its
per-layer metrics.  ``--workload all`` runs every workload in turn, each
in its own interpreter.  Both check the outputs.  Every metric is printed by
name with its unit and sample count, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every check passed, 1 when one
failed, and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

SETUP_REPEATS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, tear it down and "
                             "print the set-up time (what setup_s takes "
                             "the median of)")
    return parser.parse_args(argv)


def time_setup(args) -> list:
    """Reference-speed set-up times, each measured inside a fresh
    interpreter that only sets the workload up (``--setup-only``).

    The interpreters share a bytecode cache under ``.bench_work``, which
    a first, discarded one fills, so that no timed one compiles the
    program: whether a checkout holds bytecode, or may write it, then
    does not change the time.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(common.WORK,
                                                            "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(1 + SETUP_REPEATS):
        out = subprocess.run(command, check=True, cwd=common.ROOT, env=env,
                             stdout=subprocess.PIPE, text=True).stdout
        times.append(json.loads(out.splitlines()[-1])["setup_s"])
    return times[1:]


def setup_only(args) -> int:
    """Import the program, set the workload up and tear it down; print
    the reference-speed time of the import and set-up.

    The interpreter's own start-up is not timed: it is not the
    program's, and process creation does not scale with the calibration
    loop.  Calibrations are taken in this process just before and after.
    """
    before = statistics.median(common.calibrate() for _ in range(3))
    start = time.perf_counter()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    raw = time.perf_counter() - start
    after = statistics.median(common.calibrate() for _ in range(3))
    workload.close()
    print(json.dumps({"setup_s": common.to_ref(raw, before, after),
                      "raw_s": raw}))
    return 0


def run_all(args) -> int:
    """Every workload in turn; the worst exit code."""
    from workloads import WORKLOADS

    codes = []
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        codes.append(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=common.ROOT).returncode)
    return max(codes)


def record_counters(workload: str, seed: int, counters: dict,
                    report: common.Report) -> None:
    """Work counters must repeat exactly on one seed and one code state.

    The first traced run of (workload, seed, code digest) records them;
    every later one compares against that record.
    """
    from workloads import code_digest

    directory = os.path.join(common.WORK, "counters")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-%s.json"
                        % (workload, seed, code_digest()))
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        report.check(previous == counters,
                     "work counters differ from an earlier run on this "
                     "seed: %s vs %s" % (counters, previous))
    else:
        with open(path, "w") as handle:
            json.dump(counters, handle, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.prepare_environment()
    if args.setup_only:
        return setup_only(args)
    import layers
    from workloads import WORKLOADS

    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    report = common.Report()
    if args.trace:
        workload.setup()
        try:
            per_layer = workload.trace(report)
            workload.check(report)
        finally:
            workload.close()
        # A layer the workload does not exercise, or a probe that belongs
        # to another workload, reads 0.
        for name, unit in layers.PER_LAYER:
            report.put(name, per_layer.get(name, 0.0), unit)
        counters = {name: per_layer[name] for name in layers.WORK_COUNTERS}
        for name in ("code_size_ratio", "kernel_cycles", "tuned_cycles"):
            counters[name] = report.metrics[name]["value"]
        record_counters(args.workload, args.seed, counters, report)
        wanted = spec["per_layer"]
    else:
        setup_times = time_setup(args)
        workload.setup()
        try:
            workload.measure(args.seconds, report)
            workload.check(report)
        finally:
            workload.close()
        report.put("setup_s", statistics.median(setup_times), "s",
                   len(setup_times), "reference seconds")
        report.put("success_rate",
                   (report.attempted - report.failed) / report.attempted,
                   "ratio", report.attempted,
                   "error_rate=%.4f" % (report.failed / report.attempted))
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in report.metrics]
    report.check(not missing, "metrics not measured: %s" % missing)
    metrics = {}
    for m in wanted:
        if m["name"] in report.metrics:
            value = report.metrics[m["name"]]
            metrics[m["name"]] = value
            print("%-40s %16.6g %-9s %s" % (m["name"], value["value"],
                                            value["unit"],
                                            report.notes[m["name"]]))
    correct = not report.failures
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
