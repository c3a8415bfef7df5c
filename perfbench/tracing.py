"""In-memory tracer that wraps qgd1d's layers from outside the package.

`Tracer.install` wraps every public function of the layer modules in a span
and every public method (and the constructor) of their classes in a counter,
and patches each wrapper in wherever the original is looked up: in every
qgd1d module namespace and in module-level dicts such as the scheme table.
`uninstall` restores the originals, so untraced commands run unpatched code.

A span records name, start, end, its parent span and one detail: the node
count of a stepper's state, or the path an output function writes.  Spans
and counters both count the calls made while a stepper span is open, which
gives exact per-step call counts.

Spans stay in memory.  Sweep cells that run in forked pool workers inherit
the patches; each worker summarises the spans of one cell when the cell ends
and appends that summary to a spool file, which `collect` merges with the
runner process's own summary.
"""

from __future__ import annotations

import enum
import functools
import glob
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("gas", "mesh", "regularization", "schemes", "spectral", "experiments", "output", "cli")

# The pool's unit of work is private in qgd1d.experiments, but it is what a
# worker runs per sweep cell.
CELL = "experiments._run_cell"

# Return values kept in the runner process for the output checks.
KEEP = {"schemes.run_simulation", "experiments.classify_run",
        "experiments.sweep_region", "experiments.compare_transition"}


def is_step(name: str) -> bool:
    return name.startswith("schemes.step")


def _node_count(args) -> int:
    """Nodes a stepper call advances: its state's mesh size, or the size of
    the array it is given first."""
    if not args:
        return 0
    mesh = getattr(args[0], "mesh", None)
    return int(mesh.n) if mesh is not None else int(getattr(args[0], "size", 0))


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self._patches: list[tuple[object, object, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent, detail]
        self.open: list[int] = []
        self.step_counts: Counter = Counter()
        self.in_step = 0
        self.in_cell = 0
        self.runs: list[dict] = []           # one summary per run_simulation
        self.results: dict[str, list] = defaultdict(list)

    # -- wrappers ----------------------------------------------------------

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.in_step:
                tracer.step_counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn):
        tracer = self
        step = is_step(name)
        keeps_path = name.startswith("output.")

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tracer.in_step:
                tracer.step_counts[name] += 1
            detail = None
            if step:
                detail = _node_count(args)
                tracer.in_step += 1
            elif keeps_path and args and isinstance(args[0], str):
                detail = args[0]
            rec = [name, 0.0, 0.0, tracer.open[-1] if tracer.open else -1, detail]
            tracer.open.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.open.pop()
                if step:
                    tracer.in_step -= 1
            if name == "schemes.run_simulation":
                tracer._record_run(result)
            if name in KEEP and os.getpid() == tracer.owner:
                tracer.results[name].append(result)
            return result

        return spanned

    def _cell(self, name: str, fn):
        tracer = self
        spanned = self._span(name, fn)

        @functools.wraps(fn)
        def cell(*args, **kwargs):
            worker = os.getpid() != tracer.owner
            if worker:
                tracer.reset()           # drop what the fork copied from the runner
            tracer.in_cell += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer.in_cell -= 1
                if worker:
                    tracer._spool()
                    tracer.reset()

        return cell

    def _record_run(self, traj) -> None:
        import numpy as np

        diag = traj.diagnostics
        self.runs.append({
            "nodes": int(traj.snapshots[0][1].mesh.n),
            "steps": int(traj.steps),
            "overflow": bool(traj.overflow),
            "min_rho": float(np.min(diag.min_rho)),
            "finite": bool(np.all(np.isfinite(diag.mass)) and np.all(np.isfinite(diag.max_abs_u))),
            "in_cell": self.in_cell > 0,
        })

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"qgd1d.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                label = f"{layer}.{name}"
                if inspect.isfunction(obj):
                    if label == CELL:
                        wrappers[obj] = self._cell(label, obj)
                    elif not name.startswith("_"):
                        wrappers[obj] = self._span(label, obj)
                elif (inspect.isclass(obj) and not name.startswith("_")
                      and not issubclass(obj, (enum.Enum, BaseException))):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                            tag = label if attr == "__init__" else f"{label}.{attr}"
                            self._patch(obj, attr, self._count(tag, fn))
        for mod in [importlib.import_module("qgd1d")] + modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, name, wrappers[value])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if inspect.isfunction(entry) and entry in wrappers:
                            self._patch(value, key, wrappers[entry])

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        durations = defaultdict(list)
        self_s = defaultdict(float)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        output_s = {"csv": 0.0, "svg": 0.0}
        step_ns_per_cell = []
        cell_steps = 0
        for i, (name, start, end, parent, detail) in enumerate(self.spans):
            duration = end - start
            durations[name].append(duration)
            self_s[name] += duration - children[i]
            if is_step(name) and detail:
                step_ns_per_cell.append(duration / detail * 1e9)
                cell_steps += detail
            outermost = parent < 0 or not self.spans[parent][0].startswith("output.")
            if name.startswith("output.") and outermost:
                kind = "svg" if name.endswith("_svg") else os.path.splitext(detail or "")[1].lstrip(".")
                if kind in output_s:
                    output_s[kind] += duration
        return {
            "durations": dict(durations),
            "self_s": dict(self_s),
            "step_counts": dict(self.step_counts),
            "step_ns_per_cell": step_ns_per_cell,
            "cell_steps": cell_steps,
            "output_s": output_s,
            "runs": self.runs,
        }

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(self.summary()) + "\n")

    def collect(self) -> dict:
        """The runner's summary merged with every summary spooled by workers."""
        merged = self.summary()
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as f:
                for line in f:
                    _merge(merged, json.loads(line))
        return merged


def _merge(into: dict, part: dict) -> None:
    for name, values in part["durations"].items():
        into["durations"].setdefault(name, []).extend(values)
    for key in ("self_s", "step_counts", "output_s"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["step_ns_per_cell"].extend(part["step_ns_per_cell"])
    into["cell_steps"] += part["cell_steps"]
    into["runs"].extend(part["runs"])
