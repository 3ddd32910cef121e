#!/usr/bin/env python3
"""The repo benchmark: one command for every workload and metric.

    python3 fleetbench/run.py --workload NAME --seed N [--seconds S]
                              [--trace 0|1]

Run from the root of a checkout. The first call builds the fleet
libraries and the workload driver (fleetbench/workload.cc) with CMake
into $CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench).
Each benchmark run then starts the driver several times, each time in a
fresh process with its own empty jit cache, until --seconds have passed
(at least three times; a traced run at least once untraced and once
traced). Every output is checked against
Application::golden, and every simulated number must replay
bit-identically across the repetitions. Host timings are reported as
medians.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics, computed from
the spans the traced repetitions record around each layer call. The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
A full record (provenance, per-repetition data) and the last trace are
written under the build directory. See fleetbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_fig7", "chip_rtljit", "serve_open_loop")
JIT_WORKLOADS = ("chip_rtljit", "serve_open_loop")
MIN_REPS = 3
MIN_TRACED_REPS = 1
MAX_REPS = 8
RUN_BUDGET_S = 165.0  # one run must end within 180 s, build excluded

# Span names that are calls into a layer (trace.coverage counts these).
LAYER_SPANS = ("compile", "system.build", "system.run", "baseline.simt",
               "serve.build", "serve.submit", "serve.pump",
               "serve.shutdown")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"fleetbench: {msg}")
    sys.exit(code)


def nproc():
    """CPUs this process may run on, as nproc(1) counts them."""
    return len(os.sched_getaffinity(0))


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "fleetbench"


def build(out):
    jobs = str(min(4, nproc()))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "fleetbench_workload"])
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # compiler scratch files
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "fleetbench_workload"


def run_driver(cmd, env, timeout):
    """Run one repetition in its own process group; kill it (and any
    jit compiler it started) if it overruns."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"repetition overran its {timeout:.0f} s budget")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"workload driver exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_rep(binary, args, threads, work, index, traced, timeout):
    jit = work / f"jit-{index}"
    shutil.rmtree(jit, ignore_errors=True)
    jit.mkdir(parents=True)
    env = dict(os.environ, FLEET_JIT_CACHE_DIR=str(jit), TMPDIR=str(work))
    env.pop("FLEET_JIT_DISABLE", None)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--threads", str(threads)]
    spans_path = work / f"spans-{index}.jsonl"
    if traced:
        cmd += ["--spans", str(spans_path)]
    rep = run_driver(cmd, env, timeout)
    rep["traced"] = traced
    rep["jit_artifacts"] = len(list(jit.glob("*.so")))
    shutil.rmtree(jit)
    if traced:
        with open(spans_path) as f:
            rep["spans"] = [json.loads(line) for line in f]
    return rep


def run_reps(binary, args, threads, work):
    start = time.monotonic()
    reps = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        n_traced = sum(r["traced"] for r in reps)
        enough = (len(reps) - n_traced >= MIN_REPS if not args.trace else
                  min(n_traced, len(reps) - n_traced) >= MIN_TRACED_REPS)
        elapsed = time.monotonic() - start
        # Stop at the repetition boundary nearest to --seconds.
        if enough and (elapsed + 0.5 * longest >= args.seconds
                       or len(reps) >= MAX_REPS
                       or elapsed + 1.5 * longest > RUN_BUDGET_S):
            return reps
        t0 = time.monotonic()
        reps.append(run_rep(binary, args, threads, work, len(reps), traced,
                            max(1.0, RUN_BUDGET_S + 10 - elapsed)))
        longest = max(longest, time.monotonic() - t0)


def replay_signature(rep):
    """Everything that must be identical across repetitions."""
    keys = ("workload", "seed", "threads", "attempted", "failed",
            "mismatched", "rejected", "jit_artifacts")
    return json.dumps([rep["sim"], [rep[k] for k in keys]], sort_keys=True)


def percentile(sorted_values, q):
    """Nearest-rank percentile, as the workload driver computes it."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values),
                      math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def end_to_end(reps):
    """Gated metrics. Host time is on the process CPU clock: on a shared
    VM the wall clock also counts hypervisor steal (README.md)."""
    sim = reps[0]["sim"]
    host = [r["host"] for r in reps]
    return {
        "setup_s": (median(h["setup_cpu_s"] for h in host), "s"),
        "cpu_s": (median(h["wall_cpu_s"] for h in host), "s"),
        "jobs_per_cpu_s": (
            median(sim["jobs"] / h["wall_cpu_s"] for h in host), "1/s"),
        "peak_rss_mb": (median(h["peak_rss_mb"] for h in host), "MB"),
        "sim_bytes_per_cycle": (sim["sim_bytes_per_cycle"], "B/cycle"),
        "fig7_gbps_rel_err": (sim["fig7_gbps_rel_err"], "ratio"),
        "sim_job_p50_cycles": (sim["sim_job_p50_cycles"], "cycles"),
        "sim_job_p99_cycles": (sim["sim_job_p99_cycles"], "cycles"),
    }


def span_totals(spans):
    totals = {}
    durations = {"serve.pump": [], "serve.submit": []}
    for s in spans:
        d = (s["end_ns"] - s["start_ns"]) * 1e-9
        totals[s["name"]] = totals.get(s["name"], 0.0) + d
        if s["name"] in durations:
            durations[s["name"]].append(d)
    for v in durations.values():
        v.sort()
    return totals, durations


def coverage(spans):
    """Share of the measured phase covered by layer-call spans."""
    measures = [(s["start_ns"], s["end_ns"]) for s in spans
                if s["name"] == "bench.measure"]
    layers = sorted((s["start_ns"], s["end_ns"]) for s in spans
                    if s["name"] in LAYER_SPANS)
    total = sum(e - b for b, e in measures)
    covered = 0
    for mb, me in measures:
        cursor = mb
        for b, e in layers:
            b, e = max(b, cursor), min(e, me)
            if e > b:
                covered += e - b
                cursor = e
    return covered / total if total else 0.0


def per_layer(reps):
    sim = reps[0]["sim"]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    rows = []
    for r in traced:
        totals, durations = span_totals(r["spans"])
        rows.append((totals, durations, coverage(r["spans"])))

    def span_s(name):
        return median(t.get(name, 0.0) for t, _, _ in rows)

    def span_pct_us(name, q):
        return median(percentile(d[name], q) * 1e6 for _, d, _ in rows)

    run_s = span_s("system.run")
    simt_s = span_s("baseline.simt")
    wall = [r["host"] for r in untraced]
    return {
        "wall_s": (median(h["wall_s"] for h in wall), "s"),
        "setup_wall_s": (median(h["setup_s"] for h in wall), "s"),
        "jobs_per_s": (median(sim["jobs"] / h["wall_s"] for h in wall),
                       "1/s"),
        "compile.s": (span_s("compile"), "s"),
        "system.build_s": (span_s("system.build"), "s"),
        "system.run_s": (run_s, "s"),
        "system.pu_mcycles_per_s": (
            sim["pu_cycles"] / run_s / 1e6 if run_s else 0.0, "Mcycles/s"),
        "system.sim_cycles": (sim["sim_cycles"], "cycles"),
        "rtl.jit_artifacts": (reps[0]["jit_artifacts"], "count"),
        "baseline.simt_s": (simt_s, "s"),
        "baseline.simt_lane_vcycles_per_s": (
            sim["simt_lane_vcycles"] / simt_s if simt_s else 0.0, "1/s"),
        "baseline.simt_warp_insts": (sim["simt_warp_insts"], "count"),
        "dram.bus_utilization": (sim["dram_bus_utilization"], "ratio"),
        "dram.avg_read_queue_depth": (sim["dram_avg_read_queue_depth"],
                                      "entries"),
        "memctl.input_starved_cycles": (sim["memctl_input_starved_cycles"],
                                        "cycles"),
        "memctl.output_blocked_cycles": (
            sim["memctl_output_blocked_cycles"], "cycles"),
        "runtime.queue_wait_cycles_mean": (
            sim["runtime_queue_wait_cycles_mean"], "cycles"),
        "runtime.service_cycles_mean": (sim["runtime_service_cycles_mean"],
                                        "cycles"),
        "runtime.slot_occupancy": (sim["runtime_slot_occupancy"], "ratio"),
        "serve.build_s": (span_s("serve.build"), "s"),
        "serve.pump_s": (span_s("serve.pump"), "s"),
        "serve.pumps": (sim["serve_pumps"], "count"),
        "serve.pump_p50_us": (span_pct_us("serve.pump", 0.50), "us"),
        "serve.pump_p99_us": (span_pct_us("serve.pump", 0.99), "us"),
        "serve.submit_p99_us": (span_pct_us("serve.submit", 0.99), "us"),
        "serve.release_lag_cycles": (sim["serve_release_lag_cycles"],
                                     "cycles"),
        "serve.rejected": (sim["serve_rejected"], "count"),
        "cluster.device_jobs_min": (sim["cluster_device_jobs_min"],
                                    "count"),
        "cluster.device_jobs_max": (sim["cluster_device_jobs_max"],
                                    "count"),
        "bench.gen_s": (span_s("bench.gen"), "s"),
        "bench.check_s": (span_s("bench.check"), "s"),
        "bench.latency_samples": (sim["latency_samples"], "count"),
        "trace.coverage": (median(c for _, _, c in rows), "ratio"),
        "trace.overhead_frac": (
            median(r["host"]["wall_cpu_s"] for r in traced) /
            median(r["host"]["wall_cpu_s"] for r in untraced), "ratio"),
    }


def source_hash():
    """Hash of the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "fleetbench") for p in
                   (ROOT / d).rglob("*") if p.is_file()
                   and p.suffix in (".cc", ".h", ".txt", ".py"))
    files.append(ROOT / "bench" / "bench_common.h")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build_type(out):
    cache = out / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"fleet sources not found under {ROOT}/src: run from the "
             "root of a full checkout", 2)

    out = build_dir()
    binary = build(out)
    threads = min(4, nproc())
    work = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reps = run_reps(binary, args, threads, work)
    finally:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        spans = sorted(work.glob("spans-*.jsonl"))
        if spans:
            shutil.copy(spans[-1], traces /
                        f"{args.workload}-seed{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)

    if not all(r["release_build"] for r in reps):
        fail("refusing to report numbers from a build without NDEBUG")
    if args.workload in JIT_WORKLOADS and reps[0]["jit_artifacts"] == 0:
        fail("the rtljit backend compiled nothing (jit unavailable?)")

    replayed = len({replay_signature(r) for r in reps}) == 1
    if not replayed:
        log("fleetbench: simulated numbers differ between repetitions of "
            "the same seed (a determinism break):")
        for r in reps:
            log(json.dumps(r["sim"], sort_keys=True))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] + r["mismatched"] + r["rejected"]
                 for r in reps)
    correct = replayed and failed == 0

    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "repetitions": len(reps),
        "traced_repetitions": sum(r["traced"] for r in reps),
        "git_sha": git_sha(), "source_hash": source_hash(),
        "nproc": nproc(), "threads": reps[0]["threads"],
        "hardware_threads": reps[0]["hardware_threads"],
        "compiler": reps[0]["compiler"],
        "build_type": build_type(out),
        "release_build": reps[0]["release_build"],
        "error_rate": failed / attempted,
        "latency_samples": reps[0]["sim"]["latency_samples"],
    }
    for key, value in provenance.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    results = out / "results"
    results.mkdir(exist_ok=True)
    record = dict(provenance, correct=correct,
                  metrics={k: v[0] for k, v in metrics.items()},
                  repetitions=[{k: v for k, v in r.items() if k != "spans"}
                               for r in reps])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
