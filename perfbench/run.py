#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the program from ../src)
in Release mode under .bench_build/perfbench; later calls only re-check the
build. The arguments go to the benchmark binary unchanged; its last line of
standard output is the JSON result, and its exit code is returned. Full
results and traced-run spans are written under .bench_build/results.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840


def _quiet(cmd, timeout):
    """Runs cmd with its output kept off stdout; returns (ok, output)."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        return False, f"{' '.join(cmd)}: timed out after {timeout} s\n{e.output or ''}"
    except OSError as e:
        return False, f"{cmd[0]}: {e}\n"
    return p.returncode == 0, p.stdout


def build():
    """Configures (once) and builds the benchmark; returns an error text or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        ok, out = _quiet(cmd, BUILD_TIMEOUT_S)
        if not ok:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry the configure next time
            return out
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    ok, out = _quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)
    return None if ok else out


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def run_binary(args, timeout=175):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        p = subprocess.run([BINARY, *args, "--out", RESULTS], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return 1, ""
    return p.returncode, p.stdout


def main():
    error = build()
    if error is not None:
        sys.stderr.write(error)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    code, out = run_binary(sys.argv[1:])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
