"""Span recording around the public functions of the heislab modules.

The traced run installs a ``Tracer`` in the benchmark's own process, runs
the workload's argv lists through ``heislab.cli.run`` and then removes it.
Every public function of the eight modules is replaced, at every binding
site (module globals, names imported with ``from ... import``, and
module-level dispatch tables), by a wrapper that records one span per
call: name, start, end, parent, thread, and whether it raised.  Work
counts (rows, computed bytes, used/attempted samples) are taken from the
arguments and the result after the span has ended.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the thread that installed the tracer as parent;
for ``invert verify --threads 2`` that is ``inversion.verify_inversion``.

A layer's self time is its span's duration minus the union of its child
spans' intervals (children on worker threads overlap, hence the union).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

MODULES = ("algebra", "hlie", "hgroup", "inversion", "finite_metric", "distortion", "cli", "util")

# Called once per matrix entry when a CSV is written: a span per call would
# cost more than the call, so these are counted and their time stays in the
# caller's self time.
COUNT_ONLY = frozenset({"util.format_float"})


def _arrays(value):
    """The ndarrays held by an argument or result (arrays, tuples, metric spaces)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            if isinstance(item, np.ndarray):
                yield item
    elif isinstance(getattr(value, "dist", None), np.ndarray):
        yield value.dist


def _shape_counts(args, kwargs, result):
    """rows: leading dimension of the first array argument (else of the result);
    bytes: computed from the shapes of every array argument and result."""
    inputs = [a for v in itertools.chain(args, kwargs.values()) for a in _arrays(v)]
    outputs = list(_arrays(result))
    first = inputs or outputs
    rows = int(first[0].shape[0]) if first and first[0].ndim else 0
    nbytes = sum(int(a.size) * a.itemsize for a in inputs + outputs)
    return rows, nbytes, 0, 0


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _samples_counts(fn, args, kwargs, result):
    return _bound(fn, args, kwargs)["samples"], 0, 0, 0


def _verify_counts(fn, args, kwargs, result):
    samples = _bound(fn, args, kwargs)["samples"]
    return samples, 0, result.pairs_used, samples


def _quasimobius_counts(fn, args, kwargs, result):
    samples = _bound(fn, args, kwargs)["samples"]
    # each sampled quadruple is also evaluated with its middle pair swapped
    return samples, 0, result.statistics["quadruples_used"], 2 * samples


def _regularity_counts(fn, args, kwargs, result):
    per_radius = result.statistics["per_radius"]
    drawn = result.samples * len(per_radius)
    return drawn, 0, sum(r["hits"] for r in per_radius), drawn


def _quadruple_counts(fn, args, kwargs, result):
    _, nbytes, _, _ = _shape_counts(args, kwargs, result)
    return int(_bound(fn, args, kwargs)["quads"].shape[0]), nbytes, 0, 0


def _json_counts(fn, args, kwargs, result):
    return 0, len(result.encode("utf-8")), 0, 0


SPECIAL_COUNTS = {
    "hlie.check_h_type": _samples_counts,
    "hlie.check_j2": _samples_counts,
    "inversion.verify_inversion": _verify_counts,
    "distortion.estimate_quasimobius": _quasimobius_counts,
    "distortion.estimate_regularity": _regularity_counts,
    "distortion.cross_ratio_rows": _quadruple_counts,
    "util.canonical_json": _json_counts,
}


def empty_row() -> dict:
    return dict(calls=0, failed=0, self_s=0.0, rows=0, bytes=0, used=0, attempted=0)


class Tracer:
    """Records spans of wrapped heislab functions; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, failed, thread, rows, bytes, used, attempted)
        self.counts = {}  # calls of COUNT_ONLY functions
        self.binding_sites = {}  # qualified name -> number of rebound references
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = None
        self._root_stack = None
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the eight modules at every binding site."""
        modules = {m: importlib.import_module(f"heislab.{m}") for m in MODULES}
        containers = []
        for mod in modules.values():
            namespace = vars(mod)
            containers.append(namespace)
            containers.extend(v for k, v in namespace.items()
                              if isinstance(v, dict) and k != "__builtins__")
        self._root_thread = threading.get_ident()
        self._root_stack = self._stack()
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn) or \
                        getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn)
                sites = 0
                for container in containers:
                    for key, value in list(container.items()):
                        if value is fn:
                            container[key] = wrapper
                            self._restore.append((container, key, fn))
                            sites += 1
                self.binding_sites[name] = sites

    def uninstall(self) -> None:
        for container, key, fn in reversed(self._restore):
            container[key] = fn
        self._restore.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            counts = self.counts
            counts[name] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        special = SPECIAL_COUNTS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._root_thread and self._root_stack:
                parent = self._root_stack[-1]
            else:
                parent = 0
            span_id = next(self._ids)
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                if failed:
                    spans.append((span_id, parent, name, start, end, True,
                                  threading.get_ident(), 0, 0, 0, 0))
            counts = special(fn, args, kwargs, result) if special else \
                _shape_counts(args, kwargs, result)
            spans.append((span_id, parent, name, start, end, False,
                          threading.get_ident(), *counts))
            return result
        return traced

    # -- analysis -----------------------------------------------------------

    def layer_table(self) -> dict:
        """Per function: calls, failed, self_s, rows, bytes, used, attempted."""
        children = {}
        for span in self.spans:
            children.setdefault(span[1], []).append((span[3], span[4]))
        table = {}
        for span_id, _, name, start, end, failed, _, rows, nbytes, used, attempted in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            row = table.setdefault(name, empty_row())
            row["calls"] += 1
            row["failed"] += int(failed)
            row["self_s"] += (end - start) - covered
            row["rows"] += rows
            row["bytes"] += nbytes
            row["used"] += used
            row["attempted"] += attempted
        for name, calls in self.counts.items():
            table[name] = dict(empty_row(), calls=calls)
        return table

    def worker_parents(self) -> set:
        """Names of the parents of spans opened first on a worker thread."""
        by_id = {span[0]: span for span in self.spans}
        names = set()
        for span in self.spans:
            parent = by_id.get(span[1])
            if span[6] != self._root_thread and (parent is None or parent[6] == self._root_thread):
                names.add(parent[2] if parent else None)
        return names
