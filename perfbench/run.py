#!/usr/bin/env python3
"""Builds and runs the EActors end-to-end benchmark.

    python3 perfbench/run.py --workload smc_ring --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is compiled from the checkout's own sources (perfbench/
CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the checkout root. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Before passing
the result through, the metric names are checked against BENCHMARK.json.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git commit when available, else a digest of the source tree."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.cpp")):
        fail("no EActors sources next to the benchmark; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "eabench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if argv == ["--self-test"]:
        binary = build()
        sys.exit(subprocess.run([binary, "--self-test"],
                                timeout=RUN_TIMEOUT_S).returncode)
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    binary = build()
    cmd = [binary] + argv + ["--source", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args["--trace"] != "0")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail("metric names or units differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(want.items()))}", 4)


if __name__ == "__main__":
    main(sys.argv[1:])
