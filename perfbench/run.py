"""Benchmark of the qgd1d command line: one workload, one seed, one result.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--references FILE]

Run it from anywhere; it benchmarks the sources in `src/` next to this
directory.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it records the machine and software facts of the run.
See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

TIME_LIMIT_S = 170.0
SETUP_PROBES = {"full": 3, "tiny": 2}


class BenchError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--references", default=os.path.join(HERE, "references.json"),
                        help="seed-0 reference results (JSON)")
    return parser.parse_args(argv)


def _spawn(cmd, deadline: float, env=None) -> str:
    """Run cmd in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(cmd[1])} did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[1])} exited with code {proc.returncode}")
    return out


def _metric_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def _commit():
    """The checkout's commit when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qgd1d")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


def _cache_sizes() -> dict:
    sizes = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10).stdout.strip()
            sizes[level.lower()] = int(out) if out.isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            sizes[level.lower()] = None
    return sizes


def run(args) -> tuple[dict, dict]:
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    units = _metric_units()
    with open(args.references, encoding="utf-8") as f:
        reference = json.load(f)[args.workload][args.size]

    out_dir = os.path.join(work, "out")
    config = workloads.make_config(args.workload, args.seed, args.size, out_dir)
    config_path = None
    if config is not None:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(config, f, indent=2)

    probes = [json.loads(_spawn([sys.executable, os.path.join(HERE, "probe_setup.py"), SRC]
                                + ([config_path] if config_path else []), deadline))
              for _ in range(SETUP_PROBES[args.size])]

    plan = {
        "workload": args.workload,
        "argv": workloads.argv(args.workload, config_path, out_dir),
        "out_dir": out_dir,
        "work_dir": work,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": reference if args.seed == 0 else None,
        "workers": workloads.SWEEP_WORKERS if args.workload == "sweep-demo" else 1,
        "src": SRC,
    }
    plan_path, result_path = os.path.join(work, "plan.json"), os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    env = dict(os.environ)
    env.pop("QGD1D_WORKERS", None)
    if args.workload == "sweep-demo":
        env["QGD1D_WORKERS"] = str(workloads.SWEEP_WORKERS)
    _spawn([sys.executable, os.path.join(HERE, "runner.py"), plan_path, result_path], deadline, env)
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)

    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    # Times are scaled to the machine's nominal speed (calibration.py).
    scale = result["speed_scale"]
    wall = statistics.median(result["walls"]) * scale
    if args.trace:
        values = dict(result["layers"])
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["cli.config_s"] = statistics.median(p["config_s"] for p in probes)
        wanted = units["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p["import_s"] + p["config_s"] for p in probes) * scale,
            "cell_steps_per_s": result["cell_steps"] / wall,
            "cpu_s": statistics.median(result["cpus"]) * scale,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "pass_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        }
        wanted = units["end_to_end"]
    if set(values) != set(wanted):
        raise BenchError(f"metrics {sorted(set(values) ^ set(wanted))} do not match BENCHMARK.json")

    facts = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "iterations": len(result["walls"]),
        "wall_s_unscaled": statistics.median(result["walls"]),
        "calibration_s": result["calibration_s"], "speed_scale": scale,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "caches_bytes": _cache_sizes(), **result["versions"],
        "commit": _commit(), "src_sha256": _src_sha256(),
        "csv_rows_unparseable": result["csv_rows_unparseable"],
    }
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    return facts, summary


def main(argv=None) -> int:
    # Turn SIGTERM into an exit that runs the clean-up of children and scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "qgd1d", "__init__.py")):
        print(f"error: no qgd1d sources under {SRC}", file=sys.stderr)
        return 2
    try:
        facts, summary = run(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("facts: " + json.dumps(facts))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
