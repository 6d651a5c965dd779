#!/usr/bin/env python3
"""IF-frame -> pose + mesh serving benchmark.

Builds the harness (perfbench/CMakeLists.txt, compiled from ../src) into
the build directory on first use, then runs one workload:

    python3 perfbench/run.py --workload live-paper --seed 1 --seconds 10 --trace 0

Build output goes to stderr, so the last line of stdout is the harness's
JSON result.  The exit code is the harness's: 0 on success, 1 when a
delivered pose or mesh differs from its reference, 2 on any other error.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170


def build_dir() -> Path:
    # CARGO_TARGET_DIR names the scratch build directory when set; a
    # relative value is taken from the repository root.
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "mmhand").is_dir():
        sys.exit("perfbench: library sources (src/mmhand) not found next to "
                 "perfbench/; run from a full checkout")
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "mmhand_perfbench"],
                   check=True, stdout=sys.stderr)
    return out / "mmhand_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # The library reads MMHAND_* settings (threads, SIMD ISA, serve spec,
    # observability sinks) from the environment; the benchmark pins its
    # own, so inherited ones must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MMHAND_")}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
