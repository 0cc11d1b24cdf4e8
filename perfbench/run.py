#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one benchmark workload.

    python3 perfbench/run.py --workload paper-flow --seed 11 --seconds 15 --trace 0

Run it from the repository root. The build lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is
incremental, so only the first run compiles. Build output goes to stderr,
which keeps the benchmark's JSON result the last line of stdout. Every other
option (--size, --reference-dir, --work-dir, --write-references) is passed
through to the binary; see perfbench/README.md.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build():
    bdir = build_dir()
    if not any((bdir / f).exists() for f in ("Makefile", "build.ninja")):
        step(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", "4"])
    return bdir


def main():
    bdir = build()
    cmd = [str(bdir / "perfbench"),
           "--reference-dir", str(HERE / "reference"),
           "--work-dir", str(bdir / "work")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
