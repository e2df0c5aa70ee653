#!/usr/bin/env python3
"""Build and run the hac serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 10 --trace 0

Builds the release `hacc` binary and the benchmark package (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark
with the given arguments. Its last stdout line is the JSON result; the
exit code is the benchmark's (0 correct, 1 correctness mismatch,
2 run failed). Nothing is printed on stdout when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Environment that changes how the serving stack behaves; the benchmark
# measures the defaults.
SCRUB = ("HAC_FAULT_PLAN", "HAC_CHAOS_PLAN", "HAC_OPS_PER_MS")


def cargo_build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def main():
    env = {k: v for k, v in os.environ.items() if k not in SCRUB}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    built = (cargo_build(env, os.path.join(ROOT, "Cargo.toml"), "--bin", "hacc")
             and cargo_build(env, os.path.join(HERE, "Cargo.toml")))
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join(target, "release", "hac-perfbench")
    hacc = os.path.join(target, "release", "hacc")
    args = [bench, *sys.argv[1:], "--hacc", hacc,
            "--out", os.path.join(HERE, "results")]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
