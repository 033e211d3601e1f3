#!/usr/bin/env python3
"""Build (on first use) and run the pipeline performance ledger.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. The scaguard libraries and the pipebench
binary are built from source into .bench_build/ (CMake, RelWithDebInfo);
build output goes to stderr, so the last line of stdout is the binary's
JSON result. The exit code is the binary's: 0 only when every output
check passed.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "pipebench")
BUILD = os.path.join(ROOT, ".bench_build")


def cached_source(cache_path):
    with open(cache_path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("pipebench: the scaguard sources (src/) are missing")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and cached_source(cache) != SOURCE:
        shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "pipebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "pipebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("pipebench: build failed: %s" % e)
    work_dir = os.path.join(BUILD, "work-%d" % os.getpid())
    try:
        done = subprocess.run([binary] + sys.argv[1:] +
                              ["--work-dir", work_dir])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
