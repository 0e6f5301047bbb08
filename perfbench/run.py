#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/ (which
compiles the macross library from src/) into .bench_build/perfbench,
runs the benchmark's self-tests, and runs one workload in a private
directory under .bench_build that holds the run's empty native object
cache, tuning cache and temp files and is removed at exit. The
workload's report goes to standard output; its last line is the result
JSON: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when the run completed and every output checked out;
1 when an output was wrong or an operation failed (the result line is
still printed); 2 when the build, the self-tests or the run itself
failed (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve_warm", "stream_native", "stream_parallel")
# A run must end within 180 s once built; keep a margin.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (first time) and build; returns the build directory."""
    bdir = BUILD / "perfbench"
    log = BUILD / "perfbench-build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "-j", jobs],
    ]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir


def selftest(bdir):
    r = subprocess.run([str(bdir / "perfbench_selftest")], cwd=bdir,
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("self-tests failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def source_digest():
    """sha256 over src/ and perfbench/ (the checkout need not be a git
    repository)."""
    h = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")]
    for p in sorted(files):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def last_untraced_path(args, digest):
    """Where the untraced result of this exact run is kept: the same
    workload, seed and seconds on the same sources."""
    return (BUILD / "perfbench-last" /
            f"{args.workload}-{args.seed}-{args.seconds}-{digest}.json")


def tracing_overhead(path, lines):
    """Compare a traced run's end-to-end numbers with the untraced run
    of the same workload, seed, seconds and sources, when there is one."""
    traced = [l for l in lines if l.startswith("perfbench e2e ")]
    if not path.exists() or not traced:
        return ["perfbench: no untraced run with this workload, seed, "
                "seconds and sources to compare the traced run against"]
    base = json.loads(path.read_text())
    now = json.loads(traced[-1][len("perfbench e2e "):])
    out = []
    for name in ("throughput_eps", "latency_p50_us"):
        if name in base and name in now and base[name]["value"]:
            change = now[name]["value"] / base[name]["value"] - 1.0
            out.append(f"perfbench: tracing overhead: {name} "
                       f"{change * 100:+.1f}% against the untraced run")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bdir = build()
    selftest(bdir)
    digest = source_digest()

    run_dir = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = dict(os.environ)
    for sub, var in (("cache", "MACROSS_CACHE_DIR"), ("tmp", "TMPDIR"),
                     ("tune", "MACROSS_TUNE_CACHE_DIR")):
        (run_dir / sub).mkdir(mode=0o700, parents=True)
        env[var] = str(run_dir / sub)
    (BUILD / "traces").mkdir(exist_ok=True)
    cmd = [str(bdir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--equalizer", str(ROOT / "examples/programs/equalizer.str"),
           "--cache-dir", env["MACROSS_CACHE_DIR"],
           "--trace-out", str(BUILD / "traces" / f"{args.workload}.json"),
           "--commit", git_commit(),
           "--source-digest", digest]
    try:
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (proc.returncode not in (0, 1) or not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}):
        report = lines[:-1] if isinstance(result, dict) else lines
        print("\n".join(report))
        fail(f"{args.workload} exited {proc.returncode} without a result")
    want = expected_metrics(bool(args.trace))
    if want is not None and list(result["metrics"]) != want:
        fail(f"result metrics {list(result['metrics'])} are not "
             f"BENCHMARK.json's {want}")

    print("\n".join(lines[:-1]))
    last = last_untraced_path(args, digest)
    if args.trace:
        print("\n".join(tracing_overhead(last, lines)))
    elif result["correct"]:
        last.parent.mkdir(exist_ok=True)
        last.write_text(json.dumps(result["metrics"]))
    print(lines[-1], flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
