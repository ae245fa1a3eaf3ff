#!/usr/bin/env python3
"""Aggregates and compares perfbench results, refusing mismatched runs.

    python3 perfbench/compare.py aggregate [RESULT_FILE_OR_DIR ...]
    python3 perfbench/compare.py compare --base DIR --head DIR

Results are the JSON files run.py writes to .bench_build/results/. Each
carries a fingerprint: the run's config (workload, apps, weeks, trials or
script, threads, calibration kernel and its nominal duration) and its host
(CPU model, nproc, compiler, build type, git describe). Results are
aggregated or compared only when their fingerprints agree in everything but
git describe; the seed is the run's input and is expected to vary.

`aggregate` prints, per workload and metric, the median and the quartile
spread (IQR / median, from statistics.quantiles(n=4)). `compare` prints, per
workload and end-to-end metric, the base and head medians, the change in the
metric's "worse" direction and the verdict against the bound in
BENCHMARK.json. Exit status: 0 no regression, 1 a regression, 2 refused.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_RESULTS = os.path.join(ROOT, ".bench_build", "results")
# Config keys that describe the run's inputs or outputs, not its setup.
NOT_FINGERPRINT = {"seed", "default_seed_digest"}


class Refused(Exception):
    pass


def load(paths):
    results = []
    for path in paths or [DEFAULT_RESULTS]:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
                  if f.endswith(".json")] if os.path.isdir(path) else [path])
        for f in files:
            with open(f) as fh:
                results.append(json.load(fh))
    return results


def fingerprint(result):
    """Everything two comparable results must share."""
    fp = {"trace": str(result["trace"])}
    for key, value in result.get("config", {}).items():
        if key not in NOT_FINGERPRINT:
            fp["config." + key] = value
    for key, value in result.get("host", {}).items():
        if key != "git_describe":
            fp["host." + key] = value
    return fp


def check_same(results, what):
    first = fingerprint(results[0])
    for r in results[1:]:
        fp = fingerprint(r)
        if fp != first:
            keys = sorted(k for k in set(fp) | set(first)
                          if fp.get(k) != first.get(k))
            raise Refused("%s: fingerprints differ in %s" % (what, ", ".join(keys)))


def group(results):
    groups = {}
    for r in results:
        groups.setdefault((r["workload"], int(r["trace"])), []).append(r)
    return groups


def spread(values):
    """(median, q1, q3, IQR / median) with statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def aggregate(results):
    for (workload, trace), rs in sorted(group(results).items()):
        check_same(rs, "%s trace=%d" % (workload, trace))
        incorrect = sum(1 for r in rs if not r["correct"])
        print("%s trace=%d: %d runs, %d incorrect" % (workload, trace, len(rs),
                                                     incorrect))
        for name in rs[0]["metrics"]:
            values = metric_values(rs, name)
            med, q1, q3, rel = spread(values)
            unit = rs[0]["metrics"][name]["unit"]
            print("  %-40s %-9s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "iqr/median %.4f" % (name, unit, med, q1, q3, rel))
    return 0


def compare(base, head):
    limits = bounds()
    base_groups, head_groups = group(base), group(head)
    status = 0
    for key in sorted(set(base_groups) & set(head_groups)):
        workload, trace = key
        if trace != 0:
            continue
        b, h = base_groups[key], head_groups[key]
        check_same(b + h, workload)
        print("%s (%d base runs, %d head runs)" % (workload, len(b), len(h)))
        for name, spec in limits.items():
            bv, hv = metric_values(b, name), metric_values(h, name)
            if not bv or not hv:
                continue
            bmed, _, _, brel = spread(bv)
            hmed = statistics.median(hv)
            worse = (hmed - bmed) / bmed if spec["better"] == "lower" \
                else (bmed - hmed) / bmed
            if worse > spec["bound"]:
                verdict, status = "REGRESSION", 1
            elif brel > spec["bound"]:
                verdict = "unresolved (base spread %.3f > bound)" % brel
            else:
                verdict = "ok"
            print("  %-12s base %-12.6g head %-12.6g worse by %+.4f "
                  "(bound %.2f): %s" % (name, bmed, hmed, worse, spec["bound"],
                                        verdict))
    return status


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("aggregate")
    a.add_argument("paths", nargs="*")
    c = sub.add_parser("compare")
    c.add_argument("--base", required=True)
    c.add_argument("--head", required=True)
    args = p.parse_args(argv)
    try:
        if args.cmd == "aggregate":
            return aggregate(load(args.paths))
        return compare(load([args.base]), load([args.head]))
    except Refused as e:
        print("compare.py: refused: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
