#!/usr/bin/env python3
"""End-to-end benchmark of hgmatch: build, generate, serve, measure, check.

    python3 perfbench/run.py --workload enum_heavy --seed 1 --seconds 25 --trace 0

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
generates the workload's inputs from the seed (untimed), runs the timed
window against an in-process loopback MatchServer and prints every metric
with its unit. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Exits non-zero without printing a result when the build, the generator or
the run fails, or when a run repeats an earlier run's seed but its exact
counts (core.* over the layer set, net.bytes_per_query) differ.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enum_heavy", "repeat_mix")
DEADLINE_S = 175  # every step together, build excluded


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", build_dir, "-j",
                         str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hgbench")


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_determinism(out_dir, key, fingerprint):
    """Two runs with one seed must agree exactly on the counts."""
    path = os.path.join(out_dir, "fingerprints", key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        diff = {k: (earlier.get(k), v) for k, v in fingerprint.items()
                if earlier.get(k) != v}
        if diff:
            fail(f"DETERMINISM CHECK FAILED for {key}: "
                 f"earlier vs now {json.dumps(diff)}")
        return "repeat matched"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(fingerprint, f, sort_keys=True)
    return "first run of this seed"


def run_step(cmd, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before " + cmd[1])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[1]} did not finish in time")
    if proc.returncode != 0:
        fail(f"{cmd[1]} exited with {proc.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    if not os.path.exists(os.path.join(ROOT, "src", "core", "hgmatch.h")):
        fail(f"hgmatch sources not found under {ROOT}/src")

    digest = source_digest()  # before building: what this run measures
    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(root, "perfbench-out")
    work = os.path.join(root, "perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    result_path = os.path.join(out_dir, f"result-{tag}.json")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", work]
    try:
        run_step([binary, "gen"] + common, deadline)
        run_cmd = [binary, "run"] + common + ["--trace", str(args.trace),
                                              "--out", result_path]
        if args.trace:
            run_cmd += ["--spans",
                        os.path.join(out_dir, f"spans-{tag}.jsonl")]
        run_step(run_cmd, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(result_path) as f:
        result = json.load(f)
    env = dict(result["env"], git_sha=git_sha(), source_sha256=digest)
    key = f"{tag}-s{args.seconds}-{digest[:16]}"
    env["determinism"] = check_determinism(out_dir, key,
                                           result["fingerprint"])

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    for name, value in sorted(env.items()):
        print(f"env.{name} = {value}")
    for name, value in result["fingerprint"].items():
        print(f"count {name} = {value}")
    for section in ("metrics", "report"):
        for name, m in result[section].items():
            print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
