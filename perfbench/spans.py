"""Span tracing of realrank2 from outside the package.

`Tracer.installed()` replaces the public functions listed in TARGETS with
wrappers that record one span per call: name, start, end, parent span,
request id, thread and an optional work count.  A function is replaced in
every realrank2 module that binds it (`exact_rank`, for one, is imported
into `exactsolve`, `tensors` and `tableaux`), so calls through any binding
are seen.  Spans stay in memory; `write` stores them when the run ends.

The scan pool's executor is swapped for one that copies the submitting
thread's context into each task, so spans opened in `scan_path` worker
threads keep `scan_path` as their parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


def _blocks(args, result) -> int:
    return len(result.values)


def _entries(args, result) -> int:
    return int(np.size(args[0]))


def _generators(args, result) -> int:
    return len(result)


# (module, function, work count from (args, result))
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "main", None),
    ("certify", "certify_border_rank2", None),
    ("certify", "certify_symmetric", None),
    ("hyperdet", "all_subhyperdets", _blocks),
    ("tensors", "numeric_rank", _entries),
    ("tensors", "exact_matrix_rank", _entries),
    ("exactsolve", "exact_rank", None),
    ("exactsolve", "solve_exact", None),
    ("decompose", "decompose_rank2", None),
    ("binary_forms", "classify_binary_form", None),
    ("binary_forms", "tau_sigma_ideal_report", None),
    ("tableaux", "quadric_basis", _generators),
    ("space_curve", "scan_path", None),
    ("space_curve", "classify_point", None),
    ("space_curve", "solve_secants", None),
    ("space_curve", "plucker_map", None),
    ("multipoly", "resultant", None),
    ("multipoly", "det_bareiss", None),
    ("unipoly", "real_roots", None),
    ("unipoly", "poly_gcd", None),
)

PACKAGE = "realrank2"
# the scan pool: present while scan_path fans samples out to threads
EXECUTOR_TARGET = ("space_curve", "ThreadPoolExecutor")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    request: int | None
    name: str
    start: int
    end: int
    thread: int
    count: int | None
    shape: tuple[int, ...] | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def _modules(package: str) -> dict[str, object]:
    """The package's loaded modules by short name; the package itself by its name."""
    prefix = package + "."
    mods = {name[len(prefix):]: mod for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None}
    if package in sys.modules:
        mods[package] = sys.modules[package]
    return mods


class _ContextExecutor(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records spans around realrank2's layer boundaries while installed.

    The patch plan is made once, from the modules loaded at construction;
    `installed()` only swaps attributes, so it is cheap to enter per job.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.bindings: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar("span", default=None)
        self._request: contextvars.ContextVar[int | None] = contextvars.ContextVar("request", default=None)
        self._patches: list[tuple[object, str, object, object]] = []
        modules = _modules(PACKAGE)
        for mod_name, fn_name, count in TARGETS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(modules.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, count)
            self.bindings[name] = []
            for where, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))
                        self.bindings[name].append(where)
        mod = modules.get(EXECUTOR_TARGET[0])
        if mod is not None and getattr(mod, EXECUTOR_TARGET[1], None) is ThreadPoolExecutor:
            self._patches.append((mod, EXECUTOR_TARGET[1], ThreadPoolExecutor, _ContextExecutor))

    def _wrap(self, fn, name: str, count: Callable | None):
        spans, ids, current, request = self.spans, self._ids, self._current, self._request

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                current.reset(token)
                shape = args[0].shape if args and isinstance(args[0], np.ndarray) else None
                n = None
                if count is not None and result is not None:
                    try:
                        n = count(args, result)
                    except (AttributeError, TypeError):
                        pass  # the result no longer has the counted form
                spans.append(Span(sid, current.get(), request.get(), name, start, end,
                                  threading.get_ident(), n, shape))
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them on exit."""
        try:
            for mod, attr, _, wrapper in self._patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original, _ in reversed(self._patches):
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def request(self, rid: int):
        token = self._request.set(rid)
        try:
            yield
        finally:
            self._request.reset(token)

    def write(self, path, request_names: Iterable[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"requests": list(request_names), "missing": self.missing,
                                     "bindings": self.bindings}) + "\n")
            for s in self.spans:
                handle.write(json.dumps([s.sid, s.parent, s.request, s.name, s.start, s.end,
                                         s.thread, s.count, s.shape]) + "\n")


# ------------------------------------------------------------------ analysis

def _union_length(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children from worker threads can overlap each other; the union counts
    shared time once, clipped to the parent's own interval.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(parent.sid, []).append((lo, hi))
    return {s.sid: s.duration - _union_length(children.get(s.sid, [])) for s in spans}


def ancestors(span: Span, by_id: dict[int, Span]) -> Iterable[Span]:
    node = by_id.get(span.parent)
    while node is not None:
        yield node
        node = by_id.get(node.parent)


PER_LAYER = (
    ("cli.requests", "count", "higher"), ("cli.self_ms", "ms", "lower"),
    ("certify.calls", "count", "lower"), ("certify.calls_per_request", "calls/request", "lower"),
    ("certify.self_ms", "ms", "lower"),
    ("hyperdet.calls", "count", "lower"), ("hyperdet.blocks", "count", "lower"),
    ("hyperdet.busy_ms", "ms", "lower"), ("hyperdet.ns_per_block", "ns", "lower"),
    ("tensors.rank_calls", "count", "lower"), ("tensors.rank_entries", "count", "lower"),
    ("tensors.numeric_rank_ms", "ms", "lower"), ("tensors.exact_rank_ms", "ms", "lower"),
    ("exactsolve.calls", "count", "lower"), ("exactsolve.busy_ms", "ms", "lower"),
    ("decompose.calls", "count", "lower"), ("decompose.self_ms", "ms", "lower"),
    ("binary_forms.calls", "count", "lower"), ("binary_forms.self_ms", "ms", "lower"),
    ("tableaux.calls", "count", "lower"), ("tableaux.generators", "count", "higher"),
    ("tableaux.busy_ms", "ms", "lower"),
    ("space_curve.scan_calls", "count", "higher"), ("space_curve.classify_calls", "count", "lower"),
    ("space_curve.classify_per_scan", "calls/scan", "lower"),
    ("space_curve.solve_secants_self_ms", "ms", "lower"), ("space_curve.plucker_ms", "ms", "lower"),
    ("multipoly.resultant_calls", "count", "lower"), ("multipoly.resultant_ms", "ms", "lower"),
    ("multipoly.det_bareiss_calls", "count", "lower"), ("multipoly.det_bareiss_ms", "ms", "lower"),
    ("unipoly.real_roots_calls", "count", "lower"), ("unipoly.real_roots_ms", "ms", "lower"),
    ("unipoly.gcd_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def layer_metrics(spans: list[Span], overhead_share: float) -> dict[str, float]:
    """The per-layer metrics of PER_LAYER, from one traced pass."""
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(*names: str) -> list[Span]:
        return [s for n in names for s in named.get(n, [])]

    def count(*names: str) -> int:
        return len(of(*names))

    def ms(values: Iterable[int]) -> float:
        return sum(values) / 1e6

    def busy_ms(*names: str) -> float:
        # outermost spans among `names` only, so nested calls count once
        return ms(s.duration for s in of(*names)
                  if not any(a.name in names for a in ancestors(s, by_id)))

    def self_ms(*names: str) -> float:
        return ms(own[s.sid] for s in of(*names))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    certify = ("certify.certify_border_rank2", "certify.certify_symmetric")
    certifying = {s.request for s in of(*certify)}
    hyperdet = of("hyperdet.all_subhyperdets")
    blocks = sum(s.count or 0 for s in hyperdet)
    hyperdet_busy = busy_ms("hyperdet.all_subhyperdets")
    scans = count("space_curve.scan_path")
    in_scan = sum(1 for s in of("space_curve.classify_point")
                  if any(a.name == "space_curve.scan_path" for a in ancestors(s, by_id)))
    return {
        "cli.requests": count("cli.main"),
        "cli.self_ms": self_ms("cli.main"),
        "certify.calls": count(*certify),
        "certify.calls_per_request": ratio(count(*certify), len(certifying)),
        "certify.self_ms": self_ms(*certify),
        "hyperdet.calls": len(hyperdet),
        "hyperdet.blocks": blocks,
        "hyperdet.busy_ms": hyperdet_busy,
        "hyperdet.ns_per_block": ratio(hyperdet_busy * 1e6, blocks),
        "tensors.rank_calls": count("tensors.numeric_rank", "tensors.exact_matrix_rank"),
        "tensors.rank_entries": sum(s.count or 0 for s in of("tensors.numeric_rank",
                                                             "tensors.exact_matrix_rank")),
        "tensors.numeric_rank_ms": busy_ms("tensors.numeric_rank"),
        "tensors.exact_rank_ms": busy_ms("tensors.exact_matrix_rank"),
        "exactsolve.calls": count("exactsolve.exact_rank", "exactsolve.solve_exact"),
        "exactsolve.busy_ms": busy_ms("exactsolve.exact_rank", "exactsolve.solve_exact"),
        "decompose.calls": count("decompose.decompose_rank2"),
        "decompose.self_ms": self_ms("decompose.decompose_rank2"),
        "binary_forms.calls": count("binary_forms.classify_binary_form",
                                    "binary_forms.tau_sigma_ideal_report"),
        "binary_forms.self_ms": self_ms("binary_forms.classify_binary_form",
                                        "binary_forms.tau_sigma_ideal_report"),
        "tableaux.calls": count("tableaux.quadric_basis"),
        "tableaux.generators": sum(s.count or 0 for s in of("tableaux.quadric_basis")),
        "tableaux.busy_ms": busy_ms("tableaux.quadric_basis"),
        "space_curve.scan_calls": scans,
        "space_curve.classify_calls": count("space_curve.classify_point"),
        "space_curve.classify_per_scan": ratio(in_scan, scans),
        "space_curve.solve_secants_self_ms": self_ms("space_curve.solve_secants"),
        "space_curve.plucker_ms": busy_ms("space_curve.plucker_map"),
        "multipoly.resultant_calls": count("multipoly.resultant"),
        "multipoly.resultant_ms": busy_ms("multipoly.resultant"),
        "multipoly.det_bareiss_calls": count("multipoly.det_bareiss"),
        "multipoly.det_bareiss_ms": busy_ms("multipoly.det_bareiss"),
        "unipoly.real_roots_calls": count("unipoly.real_roots"),
        "unipoly.real_roots_ms": busy_ms("unipoly.real_roots"),
        "unipoly.gcd_ms": busy_ms("unipoly.poly_gcd"),
        "trace.overhead_share": overhead_share,
    }
