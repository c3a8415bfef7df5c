"""Self-test of the benchmark at tiny sizes (about two minutes; not part of the test suite).

Usage: python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit in both modes, that another seed passes its invariant checks, that a
corrupted reference is reported as a failure, and that without the
program's sources the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = bench("--workload", workload, "--seed", "0", "--trace", str(trace))
            assert result is not None, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (workload, trace, result)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def check_other_seed() -> None:
    for workload in ("solve-large", "sweep-demo"):
        proc, result = bench("--workload", workload, "--seed", "7", "--trace", "0")
        assert result is not None and result["correct"], (workload, proc.stderr)
        print(f"ok   {workload} seed 7 passes its invariant checks")


def check_corrupted_reference() -> None:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as f:
        refs = json.load(f)
    refs["solve-large"]["tiny"]["steps"] += 1
    refs["sweep-demo"]["tiny"]["region_md5"] = "0" * 32
    refs["verify"]["tiny"]["suites_passed"] += 1
    path = os.path.join(SCRATCH, "corrupted.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(refs, f)
    for workload in ("solve-large", "sweep-demo", "verify"):
        proc, result = bench("--workload", workload, "--seed", "0", "--trace", "0", "--references", path)
        assert result is not None, (workload, proc.stderr)
        assert not result["correct"] and result["failed"] >= 1, (workload, result)
        assert result["metrics"]["pass_ratio"]["value"] < 1.0, (workload, result)
        print(f"ok   {workload}: corrupted reference reported as a failure")


def check_without_sources() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = bench("--workload", "verify", "--seed", "0", "--trace", "0",
                         cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without sources: exit {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(SCRATCH)
    try:
        check_metrics(spec)
        check_other_seed()
        check_corrupted_reference()
        check_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
