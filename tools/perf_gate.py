#!/usr/bin/env python3
"""The performance gate: paired perfbench runs of two commits.

    python3 tools/perf_gate.py <base-ref> <head-ref>

Both refs are checked out as detached git worktrees in a temporary directory,
removed again on exit, so uncommitted edits and earlier results cannot leak
into either side; each side builds perfbench from its own checkout. For every
workload in BENCHMARK.json the gate runs PAIRS pairs of

    perfbench/run.py --workload W --seed k --seconds <run_seconds> --trace 0

with the same seed k on both sides and the side that runs first alternating
from pair to pair (ABBA). Each side's results are kept in
.bench_build/perf_gate/{base,head}/ of this checkout; `compare.py aggregate`
prints each side's medians and spreads (IQR / median), then `compare.py
compare` gives the verdict against the bounds in BENCHMARK.json.

A benchmark change (BENCHMARK.json or anything under perfbench/) makes the
base not comparable, so no pairs run. Such a change must come alone: beside
it the diff may touch only documentation (*.md) and .gitignore, which cannot
change what the benchmark measures; anything else would go unmeasured.

Exit status:
  0  no regression; or the benchmark changed alone and no pairs ran
  1  a run failed to build or finish, or was incorrect; the head failed a
     larger share of its operations than the base on some workload; or
     compare.py found a regression
  2  compare.py refused (fingerprints differ); a ref does not resolve; or the
     benchmark changed together with other code
"""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perf_gate")
SIDES = ("base", "head")
# Enough runs per side for compare.py's quartiles; 40 runs of 16 s take about
# 18 minutes with both builds on a 4-vCPU host.
PAIRS = 5


class GateError(Exception):
    pass


def log(msg):
    print("perf_gate: " + msg, flush=True)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise GateError("git %s: %s" % (" ".join(args), proc.stderr.strip()))
    return proc.stdout.strip()


def benchmark_path(path):
    return path == "BENCHMARK.json" or path.startswith("perfbench/")


def inert_path(path):
    """A path whose change cannot alter what the benchmark measures."""
    return path.endswith(".md") or path == ".gitignore"


def run_pairs(trees, workloads, seconds):
    for workload in workloads:
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                log("%s seed %d: %s" % (workload, seed, side))
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", "0"]
                proc = subprocess.Popen(cmd, cwd=trees[side],
                                        start_new_session=True)
                try:
                    status = proc.wait()
                except BaseException:
                    # Take run.py's build or benchmark down with it, so
                    # nothing writes into the worktree being removed.
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    raise
                if status != 0:
                    raise GateError("%s could not run %s at seed %d"
                                    % (side, workload, seed))


def load(side):
    results = []
    for path in sorted(glob.glob(os.path.join(OUT, side, "*.json"))):
        with open(path) as f:
            results.append(json.load(f))
    return results


def check_runs(workloads):
    """1 if a run was incorrect or the head failed a larger share, else 0."""
    results = {side: load(side) for side in SIDES}
    status = 0
    for side in SIDES:
        for r in results[side]:
            if not r["correct"]:
                log("INCORRECT: %s %s seed %s: %s"
                    % (side, r["workload"], r["seed"],
                       "; ".join(r.get("check_failures", []))))
                status = 1
    for workload in workloads:
        share = {}
        for side in SIDES:
            rs = [r for r in results[side] if r["workload"] == workload]
            share[side] = (sum(r["failed"] for r in rs)
                           / max(1, sum(r["attempted"] for r in rs)))
        if share["head"] > share["base"]:
            log("MORE FAILURES: %s fails %.4g of its ops at head, %.4g at base"
                % (workload, share["head"], share["base"]))
            status = 1
    return status


def gate(base, head, tmp):
    trees = {}
    for side, sha in zip(SIDES, (base, head)):
        trees[side] = os.path.join(tmp, side)
        git("worktree", "add", "--detach", trees[side], sha)
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    run_pairs(trees, workloads, spec["run_seconds"])

    shutil.rmtree(OUT, ignore_errors=True)
    for side in SIDES:
        shutil.copytree(os.path.join(trees[side], ".bench_build", "results"),
                        os.path.join(OUT, side))
    if check_runs(workloads):
        return 1
    compare = [sys.executable,
               os.path.join(trees["head"], "perfbench", "compare.py")]
    for side in SIDES:
        log("%s runs (%s):" % (side, base if side == "base" else head))
        subprocess.run(compare + ["aggregate", os.path.join(OUT, side)])
    return subprocess.run(compare + ["compare", "--base",
                                     os.path.join(OUT, "base"), "--head",
                                     os.path.join(OUT, "head")]).returncode


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # SIGTERM (a cancelled CI job) unwinds like an error, so the worktrees go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        base, head = (git("rev-parse", "--verify", ref + "^{commit}")
                      for ref in argv)
        paths = git("diff", "--name-only", base, head).splitlines()
    except GateError as e:
        log(str(e))
        return 2
    if any(benchmark_path(p) for p in paths):
        log("BENCHMARK.json or perfbench/ differ between %s and %s: the base "
            "is not comparable, so no pairs run" % (argv[0], argv[1]))
        unmeasured = [p for p in paths
                      if not benchmark_path(p) and not inert_path(p)]
        if unmeasured:
            log("refused: a benchmark change must come alone, but this diff "
                "also changes " + ", ".join(unmeasured))
            return 2
        return 0
    tmp = tempfile.mkdtemp(prefix="perf_gate-")
    try:
        return gate(base, head, tmp)
    except GateError as e:
        log("error: " + str(e))
        return 1
    finally:
        for side in SIDES:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            os.path.join(tmp, side)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
