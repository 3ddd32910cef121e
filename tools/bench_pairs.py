#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, reduced.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload W [--workload W ...] --seed S [--seed S ...] \\
        --pairs N --out BENCH_fleetbench.json
    python3 tools/bench_pairs.py --check BENCH_fleetbench.json

DIR is the root of a full checkout; each side builds and runs its own
sources (fleetbench/run.py builds into DIR/.bench_build). For every
workload and seed the script runs N pairs of
`python3 fleetbench/run.py --workload W --seed S --trace 0`, one per
side, alternating which side goes first (odd pairs run the parent
first). Each run is itself the median of its repetitions.

The output records, per workload and seed and per end-to-end metric of
BENCHMARK.json: each side's median and quartiles over its runs,
change_over_parent (change median / parent median), the number of pairs
the change won (strictly better, by the metric's direction) and tied,
plus host and source provenance. The file is written from this one
invocation, over every requested workload and seed.

--check validates a file against this schema and exits 1 on the first
problem.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 fleetbench/run.py --workload W --seed S --trace 0"
METHOD = ("alternating parent/change pairs (odd pairs run the parent "
          "first); each run is one fleetbench/run.py invocation, itself "
          "the median of its repetitions; quartiles are over the runs of "
          "one side (statistics.quantiles, inclusive method)")
SIDES = ("parent", "change")
SOURCE_KEYS = ("git_sha", "source_hash")
HOST_KEYS = ("nproc", "threads", "hardware_threads", "compiler",
             "build_type")
STATS = ("q1", "median", "q3")


def fail(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(root, workload, seed):
    """One fleetbench run on the checkout at `root`: (provenance,
    result) from its '# key: value' lines and final JSON line."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(root / ".bench_build"))
    cmd = [sys.executable, "fleetbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                          capture_output=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{root}: fleetbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    provenance = {}
    for line in lines:
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            provenance[key] = value
    return provenance, json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return dict.fromkeys(STATS, values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def reduce_pairs(runs, specs, seed):
    """Reduce [(parent_result, change_result)] to one workload entry."""
    entry = {"seed": seed, "pairs": len(runs),
             "correct": all(r["correct"] for pair in runs for r in pair),
             "failed": sum(r["failed"] for pair in runs for r in pair),
             "metrics": {}}
    for spec in specs:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        parent_q = quartiles(parent)
        change_q = quartiles(change)
        ratio = (change_q["median"] / parent_q["median"]
                 if parent_q["median"] else None)
        entry["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "parent": parent_q,
            "change": change_q, "change_over_parent": ratio,
            "change_wins": wins, "ties": ties}
    return entry


def measure(args):
    roots = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    for side, root in roots.items():
        if not (root / "fleetbench" / "run.py").is_file():
            fail(f"--{side} {root}: not a checkout with fleetbench/")
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    specs = benchmark["end_to_end"]

    sources = {}
    host = None
    entries = {}
    for workload in args.workload:
        for seed in args.seed:
            runs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    prov, result = run_once(roots[side], workload, seed)
                    pair[side] = result
                    sources[side] = {k: prov.get(k, "unknown")
                                     for k in SOURCE_KEYS}
                    if side == "change":
                        host = {k: prov.get(k, "unknown")
                                for k in HOST_KEYS}
                    print(f"{workload} seed {seed} pair {i + 1} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                     result["metrics"].items()),
                          file=sys.stderr, flush=True)
                runs.append((pair["parent"], pair["change"]))
            entries.setdefault(workload, []).append(
                reduce_pairs(runs, specs, seed))

    for k in ("nproc", "threads", "hardware_threads"):
        if host[k].isdigit():
            host[k] = int(host[k])
    host["cpu"] = cpu_model()
    record = {"benchmark": "fleetbench (BENCHMARK.json)",
              "command": COMMAND, "method": METHOD,
              **{side: sources[side] for side in SIDES},
              "host": host, "workloads": entries}
    problem = check_record(record)
    if problem:
        fail(f"refusing to write a malformed record: {problem}")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


def check_record(record):
    """The first schema problem in `record`, or None."""
    for key in ("benchmark", "command", "method"):
        if not isinstance(record.get(key), str):
            return f"missing string '{key}'"
    for side in SIDES:
        src = record.get(side)
        if not isinstance(src, dict) or any(
                not isinstance(src.get(k), str) for k in SOURCE_KEYS):
            return f"'{side}' needs string {', '.join(SOURCE_KEYS)}"
    host = record.get("host")
    if not isinstance(host, dict) or any(
            k not in host for k in HOST_KEYS + ("cpu",)):
        return "'host' needs " + ", ".join(HOST_KEYS + ("cpu",))
    workloads = record.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return "'workloads' must be a non-empty object"
    for workload, entries in workloads.items():
        if not isinstance(entries, list) or not entries:
            return f"{workload}: needs a non-empty list of seeds"
        for e in entries:
            where = f"{workload} seed {e.get('seed')}"
            if not isinstance(e.get("seed"), int):
                return f"{where}: 'seed' must be an integer"
            pairs = e.get("pairs")
            if not isinstance(pairs, int) or pairs < 1:
                return f"{where}: 'pairs' must be a positive integer"
            if not isinstance(e.get("correct"), bool):
                return f"{where}: 'correct' must be a boolean"
            if not isinstance(e.get("failed"), int):
                return f"{where}: 'failed' must be an integer"
            metrics = e.get("metrics")
            if not isinstance(metrics, dict) or not metrics:
                return f"{where}: 'metrics' must be a non-empty object"
            for name, m in metrics.items():
                problem = check_metric(m, pairs)
                if problem:
                    return f"{where} {name}: {problem}"
    return None


def check_metric(m, pairs):
    if not isinstance(m, dict):
        return "must be an object"
    if m.get("better") not in ("lower", "higher"):
        return "'better' must be 'lower' or 'higher'"
    if not isinstance(m.get("unit"), str):
        return "'unit' must be a string"
    if not isinstance(m.get("bound"), (int, float)):
        return "'bound' must be a number"
    for side in SIDES:
        q = m.get(side)
        if not isinstance(q, dict) or any(
                not isinstance(q.get(k), (int, float)) for k in STATS):
            return f"'{side}' needs numeric {', '.join(STATS)}"
        if not q["q1"] <= q["median"] <= q["q3"]:
            return f"'{side}' quartiles out of order"
    ratio = m.get("change_over_parent")
    if ratio is not None and not isinstance(ratio, (int, float)):
        return "'change_over_parent' must be a number or null"
    wins, ties = m.get("change_wins"), m.get("ties")
    if not isinstance(wins, int) or not isinstance(ties, int):
        return "'change_wins' and 'ties' must be integers"
    if wins < 0 or ties < 0 or wins + ties > pairs:
        return "'change_wins' + 'ties' exceeds 'pairs'"
    return None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", metavar="FILE")
    parser.add_argument("--parent", metavar="DIR")
    parser.add_argument("--change", metavar="DIR")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default="BENCH_fleetbench.json")
    args = parser.parse_args()
    if args.check:
        try:
            record = json.loads(Path(args.check).read_text())
        except (OSError, ValueError) as error:
            fail(f"{args.check}: {error}")
        problem = check_record(record)
        if problem:
            fail(f"{args.check}: {problem}")
        return
    if not (args.parent and args.change and args.workload and args.seed):
        parser.error("--parent, --change, --workload and --seed are "
                     "required unless --check is given")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    measure(args)


if __name__ == "__main__":
    main()
