#!/usr/bin/env python3
"""Builds and runs the ADVM loop benchmark.

    python3 loopbench/run.py --workload <cold_fuzz|warm_daemon|audit_matrix> \
        --seed <n> --seconds <s> --trace <0|1>

--trace 0 runs `loopbench` (end-to-end metrics, tracing off); --trace 1
runs `loopbench-ledger` (the traced replay and per-layer ledger). The
binary is built from source first, into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root); build output goes to stderr.
The run's last stdout line is its result. See README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    binary = "loopbench-ledger" if trace == "1" else "loopbench"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("loopbench: building %s failed" % binary, file=sys.stderr)
        return build.returncode
    return subprocess.run([os.path.join(target, "release", binary)] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
