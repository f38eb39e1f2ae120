#!/usr/bin/env python3
"""Builds the benchmark from the checked-out sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest|query> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); cargo's own
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Traced runs also write their spans, one TSV file
per run, to `<target dir>/perfbench-traces/`.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--trace-out", str(target / "perfbench-traces")]
    return subprocess.run([str(target / "release" / "salsa-perfbench"), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
