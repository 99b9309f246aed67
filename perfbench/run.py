#!/usr/bin/env python3
"""The dislock benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload analyze_corpus --seed 1 \
        --seconds 10 --trace 0

Run from the root of a dislock source tree. It builds `dislock`,
`dislock_serve` and the benchmark's load generator (perfbench/probe,
which links no dislock code) under .bench_build/, and for --trace 1 the
in-process layer timer (perfbench/probe, linked against the dislock
libraries) as well. It generates
every input from --seed, checks every verdict against the input's known
answer, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (tracing off); with --trace 1 they are
the per-layer ones from a traced run. Exits 1 on a failed op (a wrong
verdict among them), 2 on usage errors, 3 when the tree cannot be built.
See perfbench/RATIONALE.md for what each workload is for.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
         "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "read_p50_ms": "ms", "write_p50_ms": "ms", "decided_frac": "ratio"}


class Env:
    """Paths and helpers shared by the workloads of one run."""

    def __init__(self, root, workload):
        self.root = root
        self.build = os.path.join(root, ".bench_build", "perfbench")
        self.dislock = os.path.join(self.build, "dislock", "tools", "dislock")
        self.serve_bin = os.path.join(self.build, "dislock", "tools",
                                      "dislock_serve")
        self.probe_bin = os.path.join(self.build, "probe", "perfbench_probe")
        self.loadgen_bin = os.path.join(self.build, "probe",
                                        "perfbench_loadgen")
        self.work = os.path.join(self.build, "work", "%s-%d" %
                                 (workload, os.getpid()))

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def info(self, line):
        print(line, flush=True)

    def loadgen(self, cpu_s, ops, p50_ms, threads, connections):
        """Reports the load generator's own CPU per op against the
        program's median latency, and its thread and connection count."""
        per_op = cpu_s * 1000.0 / ops
        self.info("loadgen cpu_ms_per_op=%.4f share_of_p50=%.3f threads=%d "
                  "connections=%d nproc=%d" %
                  (per_op, per_op / p50_ms, threads, connections,
                   os.cpu_count() or 1))

    def probe(self, args):
        out = subprocess.run([self.probe_bin] + args, check=True,
                             capture_output=True, text=True).stdout
        return [json.loads(line) for line in out.splitlines() if line]

    def repeat_check(self, workload, seed, counts):
        """Compares this run's repeating counts with an earlier traced run
        of the same seed in this checkout; False when they differ."""
        path = os.path.join(self.build, "counts", "%s-%d.json" %
                            (workload, seed))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            with open(path) as f:
                earlier = json.load(f)
            if earlier != counts:
                self.info("COUNTS DIFFER from an earlier run of seed %d: %s"
                          % (seed, earlier))
                return False
            return True
        with open(path, "w") as f:
            json.dump(counts, f)
        return True


def build(env, traced):
    """Configures and builds the tools and the load generator from the
    tree at env.root, and the layer probe when `traced`; a no-op when up
    to date."""
    if not (os.path.isfile(os.path.join(env.root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(env.root, "src"))):
        raise BuildError("no dislock source tree at " + env.root)
    os.makedirs(env.build, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    log_path = os.path.join(env.build, "build.log")
    tools = os.path.join(env.build, "dislock")
    probe_dir = os.path.join(env.build, "probe")
    # (build dir, configure command, build targets), in build order.
    builds = [
        (tools, ["cmake", "-S", env.root, "-B", tools,
                 "-DCMAKE_BUILD_TYPE=Release", "-DDISLOCK_BUILD_TESTS=OFF",
                 "-DDISLOCK_BUILD_BENCHMARKS=OFF",
                 "-DDISLOCK_BUILD_EXAMPLES=OFF"],
         ["--target", "dislock", "dislock_serve"]),
        (probe_dir, ["cmake", "-S",
                     os.path.join(env.root, "perfbench", "probe"),
                     "-B", probe_dir, "-DCMAKE_BUILD_TYPE=Release",
                     "-DDISLOCK_SOURCE_DIR=" + env.root,
                     "-DDISLOCK_BUILD_DIR=" + tools],
         ["--target", "perfbench_loadgen"] +
         (["perfbench_probe"] if traced else [])),
    ]
    with open(os.path.join(env.build, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for build_dir, configure, targets in builds:
            steps = [["cmake", "--build", build_dir, "-j", jobs] + targets]
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                steps.insert(0, configure)
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  stdin=subprocess.DEVNULL).returncode != 0:
                    with open(log_path) as f:
                        tail = f.read()[-2000:]
                    raise BuildError("%s failed:\n%s" % (" ".join(step),
                                                          tail))


class BuildError(Exception):
    pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = Env(os.getcwd(), args.workload)
    try:
        build(env, args.trace == 1)
    except BuildError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 3
    shutil.rmtree(env.work, ignore_errors=True)
    os.makedirs(env.work)
    timed, traced = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            run, values = traced(env, args.seed, args.seconds)
            metrics = layers.fill(values)
        else:
            run, values = timed(env, args.seed, args.seconds)
            metrics = {k: {"value": float(values[k]), "unit": UNITS[k]}
                       for k in UNITS}
    finally:
        shutil.rmtree(env.work, ignore_errors=True)
    for error in run.errors:
        print("FAILED: %s" % error, file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
