#!/usr/bin/env python3
"""Build and run one workload of the HexaMesh end-to-end benchmark.

    python3 hmbench/run.py --workload sweep_fig7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds the
`hmbench` driver (and the `hm` library it measures) in Release mode under
.bench_build/ (or $CARGO_TARGET_DIR, relative to the checkout); later calls
only re-run the incremental build. The driver's report goes to stdout and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
where the metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). Build output goes to stderr. See
hmbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "hmbench")
WORKLOADS = ["sweep_fig7", "search_tempering", "serve_mixed", "latency_scale"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"hmbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", bdir, "--target", "hmbench",
                        "-j", jobs], check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    exe = os.path.join(bdir, "hmbench")
    if not os.path.exists(exe):
        fail(f"build produced no driver at {exe}")
    return exe


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="run the traced path and print its reference.txt "
                         "lines for this seed instead of the report")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no HexaMesh sources next to {BENCH_DIR}; run from a checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")

    work = os.path.join(bdir, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ref", os.path.join(BENCH_DIR, "reference.txt"),
           "--work-dir", os.path.relpath(work, ROOT),
           "--commit", git_commit()]
    if args.record:
        cmd.append("--record")
    # The driver starts no processes of its own, so stopping it stops all
    # of its threads; we always wait for it to end, also when stopped.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s and was stopped")
    lines = out.decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or args.record:
        sys.stdout.write("".join(line + "\n" for line in lines))
        if proc.returncode != 0:
            print(f"hmbench: driver exited with {proc.returncode}",
                  file=sys.stderr)
        return proc.returncode
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(select_metrics(result, args.trace)))
    return 0


def select_metrics(result, trace):
    """Narrows the driver's metrics to BENCHMARK.json's gated lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and not trace:
            fail(f"driver did not report {m['name']}")
        if got is None:
            # A layer this workload does not exercise.
            print(f"  {m['name']:<30} {'0':>14} {m['unit']:<6} "
                  "[n/a on this workload]")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
