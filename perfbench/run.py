#!/usr/bin/env python3
"""Build and run vpsim's host-performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mtvp_long --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the vpsim library from
src/ plus the benchmark) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed.
Build output goes to stderr. The benchmark's own output, ending in one
JSON line, goes to stdout. Workloads: mtvp_long, figure_sweep,
sampled_long. --trace 1 reports per-layer metrics instead of the
end-to-end ones and writes its spans under <build dir>/spans/.

Between iterations a child process times a walk of dependent loads
over 64 MiB (host.ref_load_ns). The host's load latency drifts over
minutes, and mtvp_long's and figure_sweep's speed with it, so those two
scale their end-to-end times to a host on which such a load takes
100 ns; sampled_long reports times as measured. Every run prints the
host's reading and its kips as measured.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mtvp_long", "figure_sweep", "sampled_long")


def build(root, build_dir):
    """Configure (once) and build the benchmark; return the binary path."""
    src = os.path.join(root, "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the root of a vpsim checkout "
              "(src/ not found)", file=sys.stderr)
        return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    sys.stdout.flush()
    return subprocess.run([binary,
                           "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--root", root,
                           "--out-dir", build_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
