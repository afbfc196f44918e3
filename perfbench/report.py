#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py --seeds 1-10

For each workload and seed it runs ``run.py`` for BENCHMARK.json's
``run_seconds``, untraced (mode 0) and traced (mode 1), then prints each
metric by name with its unit, the number of runs, the median and the
quartiles over runs, and the spread (interquartile range over median, the
figure BENCHMARK.json bounds).  It also prints the failed fraction of
operations with its base, known failures included, and the tracing overhead:
traced ``trace.wall_ref`` minus untraced ``wall_ref``, and the same for the raw
pass time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, mode):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": mode,
            "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def print_table(title, series, bounds=None):
    print(f"  {title}")
    print(f"    {'metric':46s} {'unit':6s} {'runs':>4s} {'samples':>7s} "
          f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, (unit, values, samples) in series.items():
        med, q1, q3, spread = summary(values)
        bound = (bounds or {}).get(name)
        flag = " !" if bound is not None and spread > bound else ""
        print(f"    {name:46s} {unit:6s} {len(values):4d} {samples:7d} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else format(bound, '.2f'):>6s}{flag}")


def collect(records, key):
    """metric -> (unit, values over runs, samples per run) from one kind of line."""
    series = {}
    for rec in records:
        metrics = rec["result"]["metrics"] if key == "result" else rec["detail"]["metrics"]
        for name, m in metrics.items():
            unit, values, samples = series.setdefault(name, (m["unit"], [], 0))
            values.append(m["value"])
            series[name] = (unit, values, max(samples, m.get("n", rec["detail"]["passes"])))
    return series


def report(records, bounds):
    for workload in WORKLOADS:
        plain = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        runs = plain + traced
        print(f"\n== {workload}  (seeds {sorted({r['seed'] for r in runs})})")
        print(f"  machine: {json.dumps(runs[0]['detail']['machine'])}")
        print(f"  working set: {json.dumps(runs[0]['detail']['working_set'])}")
        print_table("end-to-end (BENCHMARK.json)", collect(plain, "result"), bounds)
        print_table("end-to-end (this workload)", collect(plain, "detail"))
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(round(r["detail"]["metrics"]["fail_frac"]["value"]
                           * r["result"]["attempted"]) for r in runs)
        unexpected = sum(r["result"]["failed"] for r in runs)
        print(f"  fail_frac: {failed}/{attempted} = {failed / attempted:.4f} "
              f"over {len(runs)} runs, {unexpected} of them not known failures; "
              f"correct in {sum(r['result']['correct'] for r in runs)}/{len(runs)}")
        for msg in sorted({f for r in runs for f in r["detail"]["failures"]}):
            print(f"    {msg}")
        print_table("per-layer (traced runs)", collect(traced, "result"))

        def med(runs, key, name):
            return statistics.median(r[key]["metrics"][name]["value"] for r in runs)
        base = med(plain, "result", "wall_ref")
        with_trace = med(traced, "result", "trace.wall_ref")
        raw = med(traced, "detail", "pass_s") - med(plain, "detail", "pass_s")
        print(f"  tracing overhead: {with_trace - base:+.4f} ref per pass "
              f"({(with_trace - base) / base:+.1%} of untraced wall_ref); "
              f"raw pass_s {raw:+.4f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-5", help="e.g. 1,2,3 or 1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    records = []
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            for mode in (0, 1):
                rec = run_once(workload, seed, bench["run_seconds"], mode)
                records.append(rec)
                print(f"ran {workload} seed {seed} trace {mode}: "
                      f"{json.dumps(rec['result']['metrics'])[:160]}", file=sys.stderr)
    report(records, bounds)


if __name__ == "__main__":
    main()
