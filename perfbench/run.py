#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload build-s2 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles ../src) into the directory
named by $CARGO_TARGET_DIR, default .bench_build; later runs only re-check
the build. The binary's stdout is passed through: a context line, a human
table, and last a JSON object with "correct", "attempted", "failed" and
"metrics". With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list; a mismatch exits non-zero.
See perfbench/README.md for what each workload and metric means.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the benchmark binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "sp_e2e_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "sp_e2e_bench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for directory in (ROOT / "src", HERE):
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work), "--commit", source_id()],
            stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish within {BINARY_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    lines = result.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if result.returncode != 0:
        fail(f"benchmark binary exited with {result.returncode}")
    try:
        final = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {lines[-1]!r}")
    if list(final.get("metrics", {})) != expected:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(final.get('metrics', {})) ^ set(expected))}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
