"""Record the reference digests and the run-to-run spread of the benchmark.

Usage::

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline [--runs 10] [--seconds 35] [--workload NAME ...]

``digests`` runs every invocation the workloads and the ``--holdout`` draw
can make, once each, and writes ``perfbench/digests.json``: the reference
answers ``run.py`` checks every output against.  Only record them from code
whose test suite passes.

``baseline`` runs ``run.py`` once per seed 1..runs on each workload, prints
every end-to-end metric's median, quartiles and interquartile spread (as a
share of the median, the rule ``BENCHMARK.json``'s bounds are held to), runs
each workload once more traced, and writes all of it with the machine facts
to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run as bench

BASELINE = bench.HERE / "baseline.json"


def record_digests() -> int:
    sys.path.insert(0, str(bench.SRC))
    from qlab import registry

    invocations = [argv for invs in bench.WORKLOADS.values() for argv in invs]
    invocations += [
        ["verify", r, "--order", str(bench.HOLDOUT_ORDER), "--jobs", "1"]
        for r in registry.all_row_ids()
        if r not in bench.HOLDOUT_EXCLUDED
    ]
    env = bench.child_env()
    checker = bench.Checker({})
    problems = [p for p in checker.prepare(invocations) if p]
    if problems:
        print(f"refusing to record digests: {problems}", file=sys.stderr)
        return 1
    digests = {}
    for argv in invocations:
        inv, _ = bench.run_cli(argv, env, traced=False)
        problem = checker.verdict(inv)
        if problem:
            print(f"refusing to record {bench.digest_key(argv)}: {problem}", file=sys.stderr)
            return 1
        digests[bench.digest_key(argv)] = bench.digest(argv, inv.stdout)
        print(f"{inv.wall:7.2f} s  {bench.digest_key(argv)}")
    bench.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med, "values": values}


def record_baseline(workloads, runs: int, seconds: int) -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {
        "machine": bench.machine_facts(seed=0),
        "seconds": seconds,
        "seeds": list(range(1, runs + 1)),
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        outs = [bench_once(workload, seed, seconds, 0) for seed in range(1, runs + 1)]
        entry = {
            "attempted": sum(o["attempted"] for o in outs),
            "failed": sum(o["failed"] for o in outs),
            "end_to_end": {},
        }
        for name in bounds:
            s = spread([o["metrics"][name]["value"] for o in outs])
            entry["end_to_end"][name] = s
            ok = s["iqr_frac"] < bounds[name] / 3
            steady &= ok
            print(
                f"{workload:<11} {name:<12} median {s['median']:.4g}  "
                f"iqr/median {s['iqr_frac']:.3f}  bound {bounds[name]}  {'ok' if ok else 'WIDE'}",
                flush=True,
            )
        traced = bench_once(workload, 1, seconds, 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["failed"] += traced["failed"]
        entry["attempted"] += traced["attempted"]
        print(f"{workload:<11} wrong verdicts {entry['failed']} of {entry['attempted']}", flush=True)
        result["workloads"][workload] = entry
    BASELINE.write_text(json.dumps(result, indent=2) + "\n")
    return 0 if steady else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("digests")
    p = sub.add_parser("baseline")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS))
    args = parser.parse_args()
    if args.what == "digests":
        return record_digests()
    seconds = args.seconds or json.loads((bench.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return record_baseline(args.workload or list(bench.WORKLOADS), args.runs, seconds)


if __name__ == "__main__":
    sys.exit(main())
