#!/usr/bin/env python3
"""Builds and runs the ropus end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke      # every workload briefly, both modes
    python3 perfbench/run.py --selftest   # the benchmark's own tests

Run from anywhere inside a checkout of the repository. The first run builds
the ropus libraries with the repository's own CMakeLists (Release, tests,
benches and examples off) and then the benchmark package in this directory,
all under .bench_build/ at the repository root; later runs only rebuild
what changed.

The last line of stdout is the summary the benchmark contract asks for:
{"correct", "attempted", "failed", "metrics"}. The full result, with the
run's fingerprint (config and host), is written to .bench_build/results/ and
can be aggregated or compared with compare.py. Exit status is 0 when the
benchmark ran (the summary says whether outputs were correct), non-zero
when it could not be built or run.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ROPUS_BUILD = os.path.join(BUILD, "ropus")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")
STATE = os.path.join(BUILD, "state")
LIB_TARGETS = ["ropus_serve", "ropus_faultsim", "ropus_failover",
               "ropus_workload"]
WORKLOADS = ["failover_sweep", "faultsim_campaign", "faultsim_recorded",
             "serve_session"]
# A run must end within 180 s; the binary bounds its own loop well inside.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def jobs():
    return str(max(1, min(3, os.cpu_count() or 1)))


def step(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        sys.stderr.write(tail)
        raise BenchError("build step failed: " + " ".join(cmd))


def build():
    """Builds the ropus libraries, then the benchmark; returns binary paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("ropus sources not found next to perfbench/ "
                         "(need CMakeLists.txt and src/ at " + ROOT + ")")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(ROPUS_BUILD, "CMakeCache.txt")):
        log("configuring ropus (first run builds; this takes a few minutes)")
        step(["cmake", "-S", ROOT, "-B", ROPUS_BUILD,
              "-DCMAKE_BUILD_TYPE=Release", "-DROPUS_BUILD_TESTS=OFF",
              "-DROPUS_BUILD_BENCH=OFF", "-DROPUS_BUILD_EXAMPLES=OFF"],
             build_log)
    step(["cmake", "--build", ROPUS_BUILD, "-j", jobs(), "--target"]
         + LIB_TARGETS, build_log)
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BENCH_BUILD,
              "-DCMAKE_BUILD_TYPE=Release", "-DROPUS_BUILD_DIR=" + ROPUS_BUILD,
              "-DROPUS_SOURCE_DIR=" + ROOT], build_log)
    step(["cmake", "--build", BENCH_BUILD, "-j", jobs()], build_log)
    return (os.path.join(BENCH_BUILD, "perfbench"),
            os.path.join(BENCH_BUILD, "perfbench_selftest"))


def cmake_cache_value(key):
    try:
        with open(os.path.join(ROPUS_BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_identity():
    files_dir = os.path.join(ROPUS_BUILD, "CMakeFiles")
    try:
        for entry in sorted(os.listdir(files_dir)):
            path = os.path.join(files_dir, entry, "CMakeCXXCompiler.cmake")
            if os.path.isfile(path):
                with open(path) as f:
                    text = f.read()
                cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
                ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)',
                                text)
                if cid and ver:
                    return cid.group(1) + " " + ver.group(1)
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_fingerprint():
    return {
        "cpu_model": cpu_model(),
        "nproc": str(os.cpu_count()),
        "compiler": compiler_identity(),
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "git_describe": git_describe(),
    }


def summary_line(result):
    """The four-key line the benchmark contract asks for."""
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    })


def validate(result):
    for key in ("correct", "attempted", "failed", "metrics", "config"):
        if key not in result:
            raise BenchError("result lacks " + key)
    if result["attempted"] < 1:
        raise BenchError("result attempted no ops")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            raise BenchError("metric %s has no numeric value" % name)


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    # Relative to the checkout root (the binary's working directory): the
    # serve socket lives in the state directory, and a Unix-domain socket
    # path must stay under ~108 bytes however deep the checkout is.
    state = os.path.relpath(os.path.join(STATE, "%s-%d" % (workload, os.getpid())),
                            ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--state-dir", state]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("benchmark run timed out")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError("benchmark exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])
    validate(result)
    result["host"] = host_fingerprint()
    return result


def save(result):
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%s-trace%s-%d.json" % (result["workload"], result["seed"],
                                           result["trace"], time.time_ns())
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


def smoke(binary):
    """Every workload briefly in both modes; fails on any incorrect result."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_binary(binary, workload, 1, 1, trace, smoke=True)
            status = "ok" if result["correct"] else "INCORRECT"
            log("smoke %s trace=%d: %s, %d ops, %d metrics"
                % (workload, trace, status, result["attempted"],
                   len(result["metrics"])))
            ok = ok and result["correct"] and result["failed"] == 0
    return ok


def selftest(selftest_binary):
    if subprocess.run([selftest_binary]).returncode != 0:
        return False
    tests = os.path.join(HERE, "tests")
    return subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           tests, "-p", "test_*.py"]).returncode == 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not (args.smoke or args.selftest or args.workload):
        p.error("--workload is required")
    try:
        binary, selftest_binary = build()
        if args.selftest:
            return 0 if selftest(selftest_binary) else 1
        if args.smoke:
            return 0 if smoke(binary) else 1
        result = run_binary(binary, args.workload, args.seed, args.seconds,
                            args.trace)
        save(result)
    except (BenchError, ValueError, OSError) as e:
        log("error: %s" % e)
        return 2
    for failure in result.get("check_failures", []):
        log("check failed: " + failure)
    print(summary_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
