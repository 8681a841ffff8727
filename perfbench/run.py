#!/usr/bin/env python3
"""The repository benchmark: build the driver, run a workload, report.

One run of one workload (the BENCHMARK.json command):

    python3 perfbench/run.py --workload warm_matrix --seed 1 \\
        --seconds 28 --trace 0

builds perfbench_driver from this checkout (Release, into
.bench_build/perfbench), runs fresh driver processes -- one per
iteration, each in a private work directory -- until --seconds are
spent, checks every report, and prints one JSON line last:

    {"correct": true, "attempted": 208, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the run's
iterations, host times scaled by host_scales and host_speed); --trace
1 reports the per-layer metrics of one traced iteration, plus its
overhead against an untraced one. The host and build stamp is printed
on the line before the result.

Steadiness mode runs each workload N times with seeds 1..N and prints
median, quartiles and CV per end-to-end metric, flagging any whose
spread (IQR / median) exceeds its BENCHMARK.json bound:

    python3 perfbench/run.py --steady 5 [--workload NAME ...]
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
PROBE = BUILD / "perfbench_probe"

WORKLOADS = ("cold_simpoint", "warm_matrix", "service_matrix",
             "shard_matrix")
MATRIX = ("warm_matrix", "service_matrix", "shard_matrix")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

MECHANISMS = ("TP", "VC", "SP", "Markov", "FVC", "DBCP", "TKVC", "TK",
              "CDP", "CDPSP", "TCP", "GHB")

PER_LAYER = {
    "trace.simpoint_s": "s",
    "trace.generate_s": "s",
    "trace.publish_s": "s",
    "trace.map_s": "s",
    "trace.windows_generated": "count",
    "trace.windows_mapped": "count",
    "trace.arena_mb": "MiB",
    "cpu.ns_per_instr": "ns/instr",
    "mem.icache.ns_per_instr": "ns/instr",
    "mem.sdram.ns_per_instr": "ns/instr",
    "cpu.lockstep_speedup": "x",
    "cpu.group_p50_ms": "ms",
    "cpu.group_p80_ms": "ms",
    "cpu.ladder_closure": "ratio",
    **{f"mech.{m}.ns_per_instr": "ns/instr" for m in MECHANISMS},
    "mem.l1d.miss_ratio": "ratio",
    "mem.l2.miss_ratio": "ratio",
    "mem.dram.row_hit_ratio": "ratio",
    "mem.dram.queue_stalls": "count",
    "mem.l1d.mshr_full_stalls": "count",
    "mech.prefetch_accuracy": "ratio",
    "mech.prefetch_drop_ratio": "ratio",
    "core.plan_s": "s",
    "core.lockstep_group_mean": "count",
    "core.store_put_us": "us",
    "core.store_load_s": "s",
    "core.store_merge_s": "s",
    "core.report_s": "s",
    "service.leases": "count",
    "service.tasks_per_lease": "count",
    "service.first_result_s": "s",
    "service.worker_idle_frac": "ratio",
    "service.orchestration_s": "s",
    "shard.imbalance": "ratio",
    "shard.merge_s": "s",
    "trace_overhead_frac": "ratio",
    "task_fail_ratio": "ratio",
}

# A driver process that outlives this is killed with its helpers.
ITERATION_TIMEOUT_S = 170
# Set-up samples per run: at least SETUP_SAMPLES, topped up with
# --setup-only driver runs for at most SETUP_TOPUP_S seconds, and for
# SETUP_CHEAP_S seconds in any case (a sub-millisecond set-up gets
# dozens of samples).
SETUP_SAMPLES = 5
SETUP_TOPUP_S = 4.0
SETUP_CHEAP_S = 1.0
# Repetitions of the host-speed probe before each iteration (about
# 0.1 s each), and the probe time host times are scaled to.
PROBE_REPS = 3
PROBE_REF_S = 0.1


class BenchError(Exception):
    """The benchmark could not measure (build, crash, timeout)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; exits nonzero when the
    repository sources are not there to build from."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    # One target per call: the first regenerates a stale build system.
    for target in ("perfbench_driver", "perfbench_probe"):
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        target, "-j", jobs],
                       check=True, stdout=sys.stderr)


def kill_group(pgid):
    """SIGKILL every process left in @pgid; True if there were any."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


_iteration = 0


def drive(workload, seed, *flags, keep=False):
    """Run one driver process in a fresh work directory and return its
    JSON sample (plus the report bytes under "report_bytes")."""
    global _iteration
    _iteration += 1
    workdir = BUILD / "runs" / f"{os.getpid()}-{_iteration}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--workdir", os.path.relpath(workdir, ROOT), *flags]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload}: driver timed out")
    finally:
        strays = kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: driver exited {proc.returncode}")
    sample = json.loads(out.decode().strip().splitlines()[-1])
    sample["strays"] = sample.get("strays", 0) + int(strays)
    if "report" in sample:
        sample["report_bytes"] = (ROOT / sample["report"]).read_bytes()
        sample["task_times"] = task_times(workdir)
        if keep:
            sample["workdir"] = str(workdir)
    if not keep:
        shutil.rmtree(workdir, ignore_errors=True)
    return sample


def read_events(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def task_times(workdir):
    """Seconds each piece of the sweep's work took in one iteration,
    keyed by (stream, what the piece is), from the progress streams.

    A simulating process works through its share of the plan in an
    order fixed by the plan, so in its own stream (the in-process
    sweep, each shard) the time between two consecutive timed events
    is one piece: a trace materialization, a lockstep group, a run.
    The service daemon's stream interleaves two workers, and a run
    event carries seconds since its lease started; each lease's runs
    are consecutive work of one worker."""
    times = {}
    daemon = workdir / "daemon.progress"
    if daemon.is_file():
        events = read_events(daemon)
        leases = [e for e in events if e.get("event") == "lease"]
        done = {e["task"]: e["elapsed_s"] for e in events
                if e.get("event") == "run"}
        for lease in leases:
            tasks = range(lease["first"], lease["first"] + lease["tasks"])
            prev = 0.0
            for t in sorted((t for t in tasks if t in done), key=done.get):
                times[(daemon.name, "run", t)] = done[t] - prev
                prev = done[t]
        return times
    for path in sorted(workdir.glob("sweep.progress*")):
        prev, seen = 0.0, {}
        for e in read_events(path):
            if "elapsed_s" not in e:
                continue
            key = (path.name, e["event"], e.get("task"), e.get("bench"))
            seen[key] = seen.get(key, 0) + 1
            times[key + (seen[key],)] = e["elapsed_s"] - prev
            prev = e["elapsed_s"]
    return times


def host_scales(samples):
    """Per iteration, the share of its time the host would have taken
    at its fastest: the busiest stream's work, each piece at its
    fastest time among the run's iterations, over the busiest stream's
    work as the iteration took it. (Shards split the plan statically,
    so the busiest one sets the sweep time; the service balances its
    leases, so its one stream holds both workers' pieces.)

    This shared host has slow phases of a few seconds, when the same
    piece of work takes up to half again as long; a run's medians
    still move with how many of them it met. Scaling each iteration's
    times by its share leaves what the program itself costs."""
    common = set.intersection(*(set(s["task_times"]) for s in samples))

    def busiest(seconds):
        per_stream = {}
        for k in common:
            per_stream[k[0]] = per_stream.get(k[0], 0.0) + seconds(k)
        return max(per_stream.values(), default=0.0)

    fastest = busiest(lambda k: min(s["task_times"][k] for s in samples))
    scales = []
    for s in samples:
        spent = busiest(lambda k: s["task_times"][k])
        scales.append(fastest / spent if spent > 0 else 1.0)
    return scales


def probe():
    """Seconds per repetition of the fixed host-speed probe."""
    out = subprocess.run([str(PROBE), str(PROBE_REPS)], check=True,
                         stdout=subprocess.PIPE, timeout=60).stdout
    return json.loads(out.decode())["probe_s"]


def host_speed(probes):
    """How much faster than the reference the host ran during a run:
    PROBE_REF_S over the fastest probe repetition of the run.

    Between minutes the host's speed steps between levels some 5-15%
    apart, so one run's fastest pieces of work (host_scales) still
    differ from another's; the probe, timed in the same minutes, steps
    with them."""
    return PROBE_REF_S / min(probes)


def expected_digests():
    return json.loads((HERE / "expected.json").read_text())


def digest_gate(workload, seed, report, expected, seen):
    """Whether @report is the right report for (@workload, @seed).

    expected.json pins the md5 of every report: the cold workload's
    depends on seed % 16 and the matrix workloads' on seed % 64, and
    all three matrix workloads must agree byte for byte. @seen holds
    digests already produced in this process, so repeated iterations
    must also agree with each other."""
    digest = hashlib.md5(report).hexdigest()
    family = "matrix" if workload in MATRIX else workload
    period = 64 if family == "matrix" else 16
    want = expected.get(family, {}).get(str(seed % period))
    want = want or seen.setdefault((family, seed), digest)
    return digest == want


def check(sample, expected, seen):
    """Failed-cell count of one iteration: quarantined, missing and
    oracle-mismatched cells, or every task when the report digest or
    the process hygiene check fails."""
    failed = sample["quarantined"] + sample["missing"] + \
        sample["oracle_failed"]
    if sample["strays"]:
        log(f"{sample['workload']}: {sample['strays']} stray process(es)")
        failed = sample["tasks"]
    if not digest_gate(sample["workload"], sample["seed"],
                       sample["report_bytes"], expected, seen):
        log(f"{sample['workload']} seed {sample['seed']}: report digest "
            "mismatch")
        failed = sample["tasks"]
    return failed


def end_to_end(workload, seed, seconds):
    """Iterate until @seconds are spent; medians of the samples."""
    expected, seen = expected_digests(), {}
    samples, attempted, failed, probes = [], 0, 0, []
    start = time.monotonic()
    while True:
        probes += probe()
        s = drive(workload, seed)
        attempted += s["tasks"]
        failed += check(s, expected, seen)
        samples.append(s)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(samples) > seconds:
            break
    probes += probe()
    setups = [s["setup_s"] for s in samples]
    topup = time.monotonic()
    while True:
        spent = time.monotonic() - topup
        if spent > SETUP_TOPUP_S or \
                (len(setups) >= SETUP_SAMPLES and spent > SETUP_CHEAP_S):
            break
        setups.append(drive(workload, seed, "--setup-only")["setup_s"])
    med = statistics.median
    speed = host_speed(probes)
    scales = [k * speed for k in host_scales(samples)]
    sweeps = [s["sweep_s"] * k for s, k in zip(samples, scales)]
    log(f"{workload}: sweep_s as measured " + ", ".join(
        f"{s['sweep_s']:.4g}" for s in samples) + "; host scales " +
        ", ".join(f"{k:.3f}" for k in scales) + f"; host speed {speed:.3f}")
    metrics = {
        "setup_s": med(setups) * speed,
        "sweep_s": med(sweeps),
        "sim_minstr_per_s": med(s["instructions"] / 1e6 / t
                                for s, t in zip(samples, sweeps)),
        "cpu_s": med(s["cpu_s"] * k for s, k in zip(samples, scales)),
        "peak_rss_mb": med(s["peak_rss_mb"] for s in samples),
    }
    return samples[0]["stamp"], attempted, failed, metrics, len(samples)


def per_layer(workload, seed):
    """One untraced and one traced iteration: the traced one's layer
    metrics, its overhead against the untraced one."""
    expected, seen = expected_digests(), {}
    plain = drive(workload, seed)
    traced = drive(workload, seed, "--trace")
    attempted = plain["tasks"] + traced["tasks"]
    failed = check(plain, expected, seen) + check(traced, expected, seen)
    log("self time per span name (s): " + ", ".join(
        f"{k}={v:.4g}" for k, v in sorted(traced["self_s"].items(),
                                         key=lambda kv: -kv[1])))
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = \
        (traced["sweep_s"] - plain["sweep_s"]) / plain["sweep_s"]
    metrics["task_fail_ratio"] = failed / attempted
    return traced["stamp"], attempted, failed, metrics


def result_line(attempted, failed, metrics, units):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(workloads, runs, seconds):
    """Steadiness mode: @runs runs per workload, seeds 1..@runs."""
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    report, flagged = {}, []
    for w in workloads:
        values = {k: [] for k in END_TO_END}
        for seed in range(1, runs + 1):
            _, attempted, failed, metrics, n = end_to_end(w, seed, seconds)
            log(f"{w} seed {seed}: {n} iteration(s), failed {failed}/"
                f"{attempted}, " + ", ".join(
                    f"{k}={v:.4g}" for k, v in metrics.items()))
            for k, v in metrics.items():
                values[k].append(v)
        report[w] = {}
        for k, vs in values.items():
            q1, q2, q3 = quartiles(vs)
            cv = statistics.pstdev(vs) / statistics.mean(vs)
            spread = (q3 - q1) / q2
            report[w][k] = {"median": q2, "q1": q1, "q3": q3, "cv": cv,
                            "spread": spread, "bound": bounds[k]}
            mark = ""
            if spread > bounds[k]:
                mark = "  SPREAD > BOUND"
                flagged.append(f"{w}/{k}")
            print(f"{w:15s} {k:17s} median {q2:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  cv {cv:6.2%}  spread {spread:6.2%}  "
                  f"bound {bounds[k]:.0%}{mark}")
    print(json.dumps({"steady": report, "flagged": flagged}))
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        build()
        if args.steady:
            return steady(args.workload or WORKLOADS, args.steady,
                          args.seconds)
        if not args.workload or len(args.workload) != 1:
            ap.error("name exactly one --workload")
        workload = args.workload[0]
        if args.trace:
            stamp, attempted, failed, metrics = per_layer(workload,
                                                          args.seed)
            units = PER_LAYER
        else:
            stamp, attempted, failed, metrics, _ = end_to_end(
                workload, args.seed, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"stamp": stamp}))
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
