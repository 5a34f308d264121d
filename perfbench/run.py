#!/usr/bin/env python3
"""Host-time benchmark of the simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload fig6|trace-eval|fuzz-lockstep|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds perfbench/ (which compiles
the simulator from src/) as a Release build under .bench_build/, runs the
driver for one workload, checks its outputs and determinism, and prints
the metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (tracing off); with --trace 1 they are the
per-layer ones of a traced run. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True

import benchlib  # noqa: E402

REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False when it cannot be."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "sim",
                                       "simulator.hh")):
        log("perfbench: no simulator sources under %s/src"
            % REPO_ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=env)
        except OSError as e:
            log("perfbench: cannot run %s: %s" % (cmd[0], e))
            return False
        if done.returncode != 0:
            log(done.stdout)
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def host_fingerprint(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "commit": git_commit(),
    }


def git_commit():
    """The commit checked out, read from the checkout's own .git directory
    (nothing outside the checkout is read); "unknown" without one."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_driver(workload, seed, seconds, trace):
    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-trace%d" % (workload, trace))
    cmd = [DRIVER, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--out", stem + ".json",
           "--spans", stem + ".spans.json", "--work-dir", runs]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if subprocess.run(cmd).returncode != 0:
        log("perfbench: driver failed: %s" % " ".join(cmd))
        return None, None
    with open(stem + ".json") as f:
        raw = json.load(f)
    spans = []
    if trace:
        with open(stem + ".spans.json") as f:
            spans = json.load(f)
    return raw, spans


def unit_of(name):
    for table in (benchlib.END_TO_END, benchlib.PER_LAYER,
                  benchlib.REPORTED_EXTRA):
        if name in table:
            return table[name][0]
    raise KeyError(name)


def measure(workload, seed, seconds, trace):
    """One workload: returns (result dict, record for the results file)."""
    raw, spans = run_driver(workload, seed, seconds, trace)
    if raw is None:
        return None, None
    attempted, failed, messages = benchlib.check_run(raw)
    for m in messages[:10]:
        log("perfbench: FAILED: %s" % m)
    if trace:
        values = benchlib.per_layer_metrics(raw, spans)
        published = list(benchlib.PER_LAYER)
    else:
        values = benchlib.end_to_end_metrics(raw)
        published = list(benchlib.END_TO_END)
    host = host_fingerprint(raw)
    print("%s (seed %s, %d passes, %s): host %s"
          % (workload, raw["seed"], len(raw["passes"]),
             "traced" if trace else "untraced",
             json.dumps(host, sort_keys=True)))
    for name, value in values.items():
        print("  %-34s %16.6g %s" % (name, value, unit_of(name)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)}
                    for name in published},
    }
    record = {"workload": workload, "seed": raw["seed"], "trace": trace,
              "host": host, "time": time.time(), "result": result,
              "all_metrics": values, "failures": messages[:50]}
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=benchlib.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                    help="input seed (default: 42 for the canonical "
                         "programs, 0xd1ff for fuzz-lockstep)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="host time measured per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must not be negative")

    if not build():
        return 1
    workloads = (benchlib.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    results = {}
    for w in workloads:
        result, record = measure(w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[w] = result
        with open(os.path.join(BUILD_DIR, "results.jsonl"), "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): v
                        for w, r in results.items()
                        for name, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
