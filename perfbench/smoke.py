#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (4 MiB VMs, an 8-host fleet).

    python3 perfbench/smoke.py

Run from the root of a checkout; takes well under a minute once built.
For every workload it checks that an untraced run prints every
end-to-end metric of BENCHMARK.json and a traced run every per-layer
metric, each with the unit BENCHMARK.json gives and a finite value; that
a corrupted expected value trips the correctness gate, and in a traced
daemon run the replay-fidelity gate (exit 1, correct false, no metrics);
and that a malformed call exits 2. It also runs the
benchmark crate's unit tests.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    """Runs the benchmark at tiny size; returns (exit code, result or None)."""
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0.5", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stdout + p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL {what}")

    for w in bench["workloads"]:
        name = w["name"]
        for trace, table in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, r, log = run("--workload", name, "--seed", "7", "--trace", trace)
            what = f"{name} --trace {trace}"
            expect(code == 0 and r is not None and r["correct"], f"{what}: clean run passes\n{log}")
            if r is None:
                continue
            expect(r["attempted"] >= 1 and r["failed"] == 0, f"{what}: attempted/failed")
            metrics = r["metrics"]
            for m in table:
                got = metrics.get(m["name"])
                expect(got is not None, f"{what}: prints {m['name']}")
                if got is None:
                    continue
                expect(got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']} != {m['unit']}")
                v = got["value"]
                expect(isinstance(v, (int, float)) and math.isfinite(v), f"{what}: {m['name']} finite")
                if trace == "0":
                    expect(v > 0, f"{what}: {m['name']} is never 0 ({v})")
            expect(set(metrics) == {m["name"] for m in table}, f"{what}: no extra metrics")

        # Untraced, the corrupted value is a job's expected bytes (daemons)
        # or the first report (fleet); traced, it is a replay-fidelity
        # expectation (daemons) or the untraced report (fleet).
        for trace in ("0", "1"):
            what = f"{name} --trace {trace} --corrupt-expected"
            code, r, log = run("--workload", name, "--seed", "7", "--trace", trace, "--corrupt-expected")
            expect(code == 1, f"{what}: exits 1 (got {code})\n{log}")
            expect(r is not None and not r["correct"] and r["failed"] >= 1 and not r["metrics"],
                   f"{what}: reports correct=false, failed>=1, no metrics")
            if trace == "1" and name != "fleet-aware":
                expect("replay fidelity" in log, f"{what}: the replay-fidelity gate trips\n{log}")

    code, r, _ = run("--workload", "no-such-workload", "--seed", "1", "--trace", "0")
    expect(code == 2 and r is None, "unknown workload exits 2 without a result")
    code, r, _ = run("--workload", bench["workloads"][0]["name"], "--seed", "x", "--trace", "0")
    expect(code == 2 and r is None, "malformed seed exits 2 without a result")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    expect(tests.returncode == 0, f"unit tests pass\n{tests.stdout}{tests.stderr}")

    if failures:
        print(f"smoke: {len(failures)} check(s) failed")
        return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
