#!/usr/bin/env python3
"""Build and run the ringnet benchmark.

    python3 ringbench/run.py --workload udp-ordered|udp-groups|sim-100k \
        --seed N --seconds S --trace 0|1

Configures and builds ringbench/ (which compiles the ringnet library from
the source tree around it) into the build directory, then runs the
`ringbench` binary and passes its output through. The binary's last stdout
line is the JSON result. The build directory is $CARGO_TARGET_DIR when set
(relative paths are taken from the repository root), else .bench_build.
The traced run (--trace 1) also writes its spans to
<build>/spans/<workload>-seed<N>.tsv.

Exit status: the binary's, or non-zero without a result line when the
source tree is missing, the build fails or the run times out.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("udp-ordered", "udp-groups", "sim-100k")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"ringbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ringnet source tree at {ROOT}", 2)
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "ringbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            res = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if res.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    binary = bdir / "ringbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    bdir = build_dir()
    binary = build(bdir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", 3)
    sys.stdout.write(out)
    if proc.returncode != 0:
        fail(f"ringbench exited with status {proc.returncode}",
             proc.returncode)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
