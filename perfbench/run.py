#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own cargo package
(perfbench/Cargo.toml); it is built offline into $CARGO_TARGET_DIR
(default .bench_build). Each workload runs in a fresh process, so its
peak RSS is its own. The last line of standard output is one JSON result
object; with `--workload all` it merges every workload's metrics under
`<workload>.<metric>` names. A host fingerprint (nproc, CPU model, rustc,
source revision) is printed before the results.

Exit status: 0 when every correctness gate passed, 1 when one failed,
2 on bad arguments or a refused environment, 3 when the build failed,
4 when a workload ran out of time.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["live_lease_churn", "replay_contended_stack", "numa_serving_1024"]
# Every workload process must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary and return its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if res.returncode != 0:
        log(f"build failed with status {res.returncode}")
        return None
    return os.path.join(ROOT, target, "release", "lr-perfbench")


def command_output(cmd):
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the simulator and benchmark sources (for checkouts
    that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_digest": source_digest(),
    }


def run_workload(binary, workload, args):
    """Run one workload in its own process. Returns (status, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(HERE, "out", f"spans-{workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4, None
    lines = out.splitlines()
    result = None
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    return proc.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    args.seed %= 1 << 64  # the binary takes an unsigned 64-bit seed

    binary = build()
    if binary is None:
        return 3
    print("host " + json.dumps(fingerprint(), sort_keys=True), flush=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status, results = 0, {}
    for w in workloads:
        st, result = run_workload(binary, w, args)
        if result is None:
            return st or 4
        status = max(status, st)
        results[w] = result
    if len(results) == 1:
        merged = next(iter(results.values()))
    else:
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(merged), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
