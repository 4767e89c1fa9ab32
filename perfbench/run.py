#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--jobs <n>]

perfbench is configured with CMake into .bench_build/ (Release) on the
first call and rebuilt incrementally afterwards; build output goes to
stderr.  perfbench's own output (metric table, provenance record, and the
JSON summary as the last line) goes to stdout unchanged.  Exits non-zero
without a summary when the simulator sources or the build are missing.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def configured_here():
    """True when .bench_build/ was configured from this perfbench/ directory
    (a checkout copied elsewhere carries a cache CMake refuses to reuse)."""
    try:
        cache = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return False
    return f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in cache


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)


def git_sha():
    """HEAD's commit id when the checkout is a git work tree, else ''."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the sources perfbench is built from (path and bytes)."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "bench" / "bench_common.hpp"]
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--jobs", type=int, default=0,
                        help="smoke size: jobs per run (default: the "
                             "workload's own size)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}", 2)
    build()
    if not BINARY.is_file():
        fail("perfbench binary missing after build", 3)

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--jobs", str(args.jobs),
               "--git-sha", git_sha() or "none",
               "--source-digest", source_digest()]
    # perfbench measures for --seconds, or for its minimum of three
    # repetitions when they take longer; this only stops a hung build
    # product.
    timeout_s = 2 * args.seconds + 120
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {timeout_s:g} s", 4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
