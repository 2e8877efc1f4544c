"""Span tracer for the zicopula package, installed from outside the program.

`Tracer.install` wraps every public function of every package module, both
where it is defined and at every other module-level binding of the same
object (``from .marginals import positive_pdf`` in zibt_model, the command
table in cli), so calls between modules are seen. Each call records one span
(id, parent id, operation id, name, start, end) in memory; `write_spans`
dumps them once at the end. `uninstall` restores the original objects.

Self time of a span is its duration minus the durations of its direct child
spans. Inclusive time of a function counts only its outermost active call.
A few hooks derive counts from argument sizes and results (kernel
evaluations, rows per mvn_logpdf call, exact-zero orthant estimates, CLI
bytes read and written); they only read arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _kernel_evals(args, kwargs, result, counters):
    m = args[0] if args else kwargs["m"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    counters["marginals.kernel_evals"] += int(np.size(x)) * int(np.size(m.kde_centers))


def _mvn_rows(args, kwargs, result, counters):
    x = np.asarray(args[0] if args else kwargs["x"])
    counters["stat_core.mvn_logpdf.rows"] += 1 if x.ndim == 1 else int(x.shape[0])


def _orthant_zero(args, kwargs, result, counters):
    counters["stat_core.mvn_orthant_mc.zeros"] += int(result.estimate == 0.0)


def _read_path(args, kwargs, result, counters):
    counters["cli.bytes_read"] += _file_size(args[0] if args else kwargs["path"])


def _written_path(args, kwargs, result, counters):
    counters["cli.bytes_written"] += _file_size(args[0] if args else kwargs["path"])


def _ingest_io(args, kwargs, result, counters):
    ns = args[0]
    counters["cli.bytes_read"] += _file_size(getattr(ns, "raw", None))
    counters["cli.bytes_written"] += _file_size(getattr(ns, "out_train", None))
    counters["cli.bytes_written"] += _file_size(getattr(ns, "out_test", None))


HOOKS = {
    "marginals.positive_pdf": _kernel_evals,
    "marginals.positive_cdf": _kernel_evals,
    "stat_core.mvn_logpdf": _mvn_rows,
    "stat_core.mvn_orthant_mc": _orthant_zero,
    "cli.read_data_csv": _read_path,
    "cli.load_model": _read_path,
    "cli.save_model": _written_path,
    "cli.write_scores_csv": _written_path,
    "cli.cmd_ingest_credit": _ingest_io,
}


PACKAGE = "zicopula"


class Tracer:
    """In-memory span recorder for the package; install, run, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        pkg = importlib.import_module(PACKAGE)
        names = sorted(info.name for info in pkgutil.iter_modules(pkg.__path__))
        return [importlib.import_module(f"{PACKAGE}.{n}") for n in names]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers and wrappers[id(value)][0] is value:
                            self._patched.append((obj, key, value))
                            obj[key] = wrappers[id(value)][1]

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def _wrap(self, func, qualname: str):
        hook = HOOKS.get(qualname)
        perf = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        depth = self._depth

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [span_id, 0]
            stack.append(frame)
            depth[qualname] += 1
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[qualname] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[span_id] = (span_id, parent, self.op_id, qualname, start, end)
                self.calls[qualname] += 1
                self.self_time[qualname] += (dur - frame[1]) * 1e-9
                if depth[qualname] == 0:
                    self.inclusive[qualname] += dur * 1e-9
            if hook is not None:
                hook(args, kwargs, result, self.counters)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def layer_self_time(self, module: str) -> float:
        prefix = module + "."
        return sum((v for k, v in self.self_time.items() if k.startswith(prefix)), 0.0)

    def write_spans(self, path) -> None:
        """Write every span as one CSV line: id,parent,op,name,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span))
                fh.write("\n")
