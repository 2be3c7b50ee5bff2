#!/usr/bin/env python3
"""iotls benchmark: four in-process workloads, each run in its own process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper_batch, fleet_stream, daemon_epochs, ct_log (NOTES.md says
what each measures and why). The first run builds perfbench/ and the
iotls_audit tool from the sources into .bench_build/perfbench.

--trace 0 prints the end-to-end metrics: setup_s, latency_p50_ms,
latency_tail_ms, throughput_per_s, peak_rss_mb and ok_share. --trace 1
repeats the workload with spans recorded around every layer call and
prints the per-layer metrics.

Every run checks the program's outputs outside the timed region; a
mismatch prints the result with "correct": false and exits 1. The last
line of stdout is always the JSON result; everything before it is the
human-readable report (metrics with sample counts, provenance, checks).
A full record of each run, provenance included, is written under
.bench_build/results/ for compare.py.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"

# Units per process are fixed by --seconds alone (never by elapsed time),
# so every run of a workload does the same work and peak RSS compares.
# per_s is the unit rate calibrated on a 4-vCPU host; traced runs use
# trace_units, alternating plain and traced units.
WORKLOADS = {
    "paper_batch": {"per_s": 4.0, "min_units": 10, "warmup": 2,
                    "trace_units": 8},
    "fleet_stream": {"per_s": 0.4, "min_units": 3, "warmup": 1,
                     "trace_units": 2},
    # A unit is a replay of ~104 epochs; warm-up counts epochs of the first.
    "daemon_epochs": {"per_s": 0.15, "min_units": 2, "warmup": 5,
                      "trace_units": 2},
    # Proof cost grows with the log, so a traced run grows it as far.
    "ct_log": {"per_s": 15.0, "min_units": 100, "warmup": 2,
               "trace_units": None},
}

PAPER_REPORTS = ["table02", "table03", "table04", "table05",
                 "certs", "chains", "issuers", "ct"]

# latency_tail_ms is the sample with exactly this many samples beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs_level():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return nproc, max(1, min(nproc, 4))


def run_checked(cmd, timeout, capture_output=False, **kw):
    """Run cmd to completion and return it. On timeout its whole process
    group (perfbench forks) is killed and reaped. Temporary files (the
    compiler's, say) stay inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    if capture_output:
        kw.update(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc = subprocess.Popen(cmd, env=dict(os.environ, TMPDIR=tmp),
                            start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"timed out after {timeout:.0f}s: {' '.join(cmd)}")
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build(jobs, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no iotls sources at {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    logpath = os.path.join(BUILD_DIR, "build.log")
    with open(logpath, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs),
                      "--target", "perfbench", "iotls_audit"])
        for cmd in steps:
            proc = run_checked(cmd, max(1, deadline - time.monotonic()),
                               stdout=out, stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                out.flush()
                with open(logpath) as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    perfbench = os.path.join(BUILD_DIR, "perfbench")
    audit = os.path.join(BUILD_DIR, "iotls-tools", "iotls_audit")
    for path in (perfbench, audit):
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return perfbench, audit


def cmake_cache(key):
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def compiler_id():
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, timeout=30)
        return proc.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return compiler or "unknown"


def source_digest():
    """SHA-256 over every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def tail_percentile(samples):
    """(label, value) of the highest percentile with TAIL_BEYOND samples
    beyond it. With fewer than 2 * TAIL_BEYOND samples that percentile
    would sit at or below the median, so the upper quartile is reported;
    the slowest of a handful of samples swings too much to bound."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        rank = max(1, -(-3 * n // 4))  # nearest-rank p75
        return f"p75 of {n} samples (too few for a tail)", xs[rank - 1]
    rank = n - TAIL_BEYOND  # nearest-rank, 1-based
    return f"p{100.0 * rank / n:.4g} of {n} samples", xs[rank - 1]


def audit_gate(audit, workdir, deadline):
    """paper_batch's documents must equal iotls_audit --report=NAME --jobs=1."""
    checks = []
    for name in PAPER_REPORTS:
        proc = run_checked(
            [audit, f"--report={name}", "--jobs=1",
             os.path.join(workdir, "events.csv"),
             os.path.join(workdir, "devices.csv")],
            max(1, deadline - time.monotonic()), capture_output=True)
        with open(os.path.join(workdir, "docs", f"{name}.json"), "rb") as f:
            ours = f.read()
        ok = proc.returncode == 0 and proc.stdout == ours
        checks.append({"name": f"paper_batch.audit_identity.{name}", "ok": ok,
                       "detail": "in-process pass vs iotls_audit --jobs=1"})
    return checks


def end_to_end(raw):
    units = raw["unit_ms"]
    metrics = {
        "setup_s": (statistics.median(raw["setup_ms"]) / 1000.0, "s",
                    f"median of {len(raw['setup_ms'])} set-ups"),
        "latency_p50_ms": (statistics.median(units), "ms",
                           f"{len(units)} samples"),
    }
    label, value = tail_percentile(units)
    metrics["latency_tail_ms"] = (value, "ms", label)
    metrics["throughput_per_s"] = (
        raw["work"] / (raw["timed_ms"] / 1000.0), "1/s",
        f"{raw['work']:.0f} over {raw['timed_ms'] / 1000.0:.3f} s")
    metrics["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024.0, "MB",
                              "VmHWM of the workload process")
    metrics["ok_share"] = (raw["ok"] / raw["attempted"], "share",
                           f"{raw['ok']}/{raw['attempted']}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = WORKLOADS[args.workload]
    nproc, jobs = jobs_level()
    units = max(spec["min_units"], round(args.seconds * spec["per_s"]))
    if args.trace and spec["trace_units"]:
        units = spec["trace_units"]

    start = time.monotonic()
    # The first run in a checkout builds; later runs find the build done.
    first_build = not os.path.isfile(os.path.join(BUILD_DIR, "perfbench"))
    deadline = start + (850 if first_build else 170)
    perfbench, audit = build(jobs, deadline)

    workdir = os.path.join(BUILD_ROOT, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        common = [f"--workload={args.workload}", f"--seed={args.seed}",
                  f"--dir={workdir}"]
        proc = run_checked([perfbench, "prepare", *common],
                           max(1, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("input generation failed")
        cmd = [perfbench, "run", *common, f"--jobs={jobs}",
               f"--units={units}", f"--warmup={spec['warmup']}"]
        if args.trace:
            cmd.append("--trace")
        proc = run_checked(cmd, max(1, deadline - time.monotonic()),
                           capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"workload run failed:\n{proc.stderr[-4000:]}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        checks = list(raw["checks"])
        if args.workload == "paper_batch":
            checks += audit_gate(audit, workdir, deadline)
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(workdir, "trace.json"),
                        os.path.join(traces, f"{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(c["ok"] for c in checks)
    if args.trace:
        metrics = {name: (m["value"], m["unit"], "traced units")
                   for name, m in raw["layers"].items()}
    else:
        metrics = end_to_end(raw)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "warmup_units": spec["warmup"],
        "nproc": nproc,
        "jobs": jobs,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler_id(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"{args.workload}: {len(raw['unit_ms'])} timed samples, "
          f"{spec['warmup']} warm-up unit(s) discarded")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} ({note})")
    for c in checks:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"  {sum(c['ok'] for c in checks)}/{len(checks)} correctness checks passed")

    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    record = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "raw": raw,
        "checks": checks,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}-{os.getpid()}.json"),
              "w") as f:
        json.dump(record, f, indent=1)

    attempted = len(raw["unit_ms"]) + len(raw["traced_unit_ms"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
