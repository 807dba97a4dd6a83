#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary from the checkout's sources (perfbench/CMakeLists.txt,
the library's own flags) and runs one workload:

    python3 perfbench/run.py --workload train|evaluate|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR (a path
relative to the checkout) or .bench_build; checkpoints and trace files go to
<build>/perfbench/work. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is one JSON result object. The exit code is
the benchmark's (non-zero when an output check failed), or 2 when the checkout
cannot be built.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODEL = BENCH_DIR / "model" / "mocc_s7_b60_r2.bin"


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "core" / "offline_trainer.h").is_file():
        sys.exit("perfbench: no library sources under %s/src; run from a full checkout"
                 % ROOT)
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "mocc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return out / "mocc_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["train", "evaluate", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    out = build_dir()
    binary = build(out)
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([str(binary), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", repr(args.seconds),
                           "--trace", args.trace, "--work-dir", str(work),
                           "--model", str(MODEL)], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
