#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload disk-mirror --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set, else to .bench_build,
both relative to the repository root (Release, CMake).  Build output goes to
standard error; standard output is the benchmark's own, whose last line is
the JSON result.  Exits non-zero, printing no result, when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("disk-mirror", "files-erasure", "reconfig")
HUGE_PAGES = "glibc.malloc.hugetlb=1"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure and build rds_perfbench; return the binary path."""
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(bdir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "rds_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "rds_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--ops", type=int, default=0,
                   help="fixed number of operations instead of --seconds")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1 or a.ops < 0:
        p.error("seed and ops must be >= 0, seconds >= 1")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)
    # Back malloc's heap with transparent huge pages where the kernel grants
    # them on request.  On a VM the cost of a page walk depends on how the
    # host backs each run's memory, which otherwise shifts whole runs.
    env = dict(os.environ, GLIBC_TUNABLES=HUGE_PAGES)
    print(f"# malloc: GLIBC_TUNABLES={HUGE_PAGES}")
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--ops", str(a.ops), "--out", out],
        cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
