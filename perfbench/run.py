#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds against the repository's crates by
path, into $CARGO_TARGET_DIR (default: .bench_build). Workloads:
migrate-full, recycle-journaled and fleet-aware (see BENCHMARK.json).

The last line of standard output is the JSON result. The exit status is
the benchmark's: 0 when every correctness gate passed, 1 when one failed,
2 when the benchmark could not be built or was called wrongly; a build
failure prints no result.

The benchmark process runs with MALLOC_ARENA_MAX=1. The daemons start a
thread per job, and with glibc's default per-thread arenas the memory a
finished job freed can stay resident in another arena: runs of the same
workload read 83 MiB or 147 MiB of peak RSS depending on which arena a
thread drew. One arena makes peak_rss_mib track what the program holds.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    """First line of a command's output, or 'unknown'."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_REV"] = capture(["git", "rev-parse", "--short=12", "HEAD"])
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["MALLOC_ARENA_MAX"] = "1"
    binary = os.path.join(ROOT, target, "release", "perfbench")
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
