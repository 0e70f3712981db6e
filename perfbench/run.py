#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Configures and builds
perfbench/ (which compiles the repo's `cohesion` library from src/ with
the root CMakeLists.txt's flags) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload. The
binary's last stdout line is the result object; see perfbench/README.md.
Exits non-zero, printing no result, when the tree cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(build_dir: Path) -> Path:
    """Configure and build the benchmark binary (a no-op once built)."""
    cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_dir / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed:", err)
        return 1
    work_dir = build_dir / "work"
    return subprocess.run([str(binary),
                           "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--work-dir", str(work_dir)]).returncode


if __name__ == "__main__":
    sys.exit(main())
