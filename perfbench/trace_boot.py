"""Run one grcodes CLI job with every layer boundary traced.

Usage: python perfbench/trace_boot.py JOB_ID OUT.npz -- <grcodes cli arguments>

The public callables of each grcodes module are wrapped before
``grcodes.cli.main(argv)`` runs.  Every wrapped call is counted; a span
opens where a call crosses from one layer into another, and at the
functions a ``*_s`` metric names.  Span stacks are thread-local, and a
thread-pool task runs in a span of the submitting layer whose parent is
the submitting span.  Spans stay in memory and are written to OUT.npz
when the job exits; the report on stdout is untouched.
"""
from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import json
import sys
import threading
from array import array
from time import thread_time_ns

import numpy as np

from spans import LAYERS, MEMOS, TIMED_FUNCTIONS

# value classes: their constructors run once per arithmetic result, and the
# operation that built them is already counted
_VALUE_CLASSES = ("GaloisRingElement", "CyclotomicInteger", "RootAccumulator")
_DUNDERS = frozenset(("__init__", "__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                      "__rsub__", "__neg__", "__pow__", "__eq__"))


class _ThreadSpans:
    """One thread's span stack and span columns; only its own thread writes it."""

    __slots__ = ("base", "layer", "current", "parent", "fid", "t0", "t1", "counts", "memos")

    def __init__(self, number: int, n_funcs: int):
        self.base = number << 32  # span id = thread number << 32 | row
        self.layer = None
        self.current = -1
        self.parent = array("q")
        self.fid = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts = [0] * n_funcs
        self.memos: dict[str, list[int]] = {}

    def open(self, fid: int, layer: str, parent: int) -> int:
        row = len(self.t0)
        self.parent.append(parent)
        self.fid.append(fid)
        self.t0.append(thread_time_ns())
        self.t1.append(0)
        self.layer, self.current = layer, self.base | row
        return row

    def close(self, row: int, layer, current: int) -> None:
        self.t1[row] = thread_time_ns()
        self.layer, self.current = layer, current


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.names: list[str] = []
        self.threads: list[_ThreadSpans] = []
        self.memo_metrics: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def state(self) -> _ThreadSpans:
        try:
            return self._local.st
        except AttributeError:
            with self._lock:
                st = _ThreadSpans(len(self.threads), len(self.names))
                self.threads.append(st)
            self._local.st = st
            return st

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        fid = len(self.names)
        self.names.append(name)
        timed = name in TIMED_FUNCTIONS
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.counts[fid] += 1
            if st.layer == layer and not timed:
                return fn(*args, **kwargs)
            outer = st.layer, st.current
            row = st.open(fid, layer, st.current)
            try:
                return fn(*args, **kwargs)
            finally:
                st.close(row, *outer)

        return wrapper

    def adopt(self, fn):
        """Run fn, on a pool thread, in a span that is a child of the caller's span."""
        caller = self.state()
        layer, parent = caller.layer, caller.current
        if layer is None:
            return fn
        fid = self.names.index(f"{layer}.<pool task>")
        state = self.state

        def task(*args, **kwargs):
            st = state()
            st.counts[fid] += 1
            outer = st.layer, st.current
            row = st.open(fid, layer, parent)
            try:
                return fn(*args, **kwargs)
            finally:
                st.close(row, *outer)

        return task

    def probe(self, metric: str, cls, method: str, memo: str) -> None:
        """Count calls of a memoised method, and the calls that found their entry.

        A call found its entry when it left the memo dict the same size; a
        concurrent insert from another thread can misfile one call.
        """
        fn = cls.__dict__[method]
        self.memo_metrics.add(metric)
        state = self.state

        @functools.wraps(fn)
        def probed(obj, *args, **kwargs):
            before = len(getattr(obj, memo))
            result = fn(obj, *args, **kwargs)
            tally = state().memos.setdefault(metric, [0, 0])
            tally[0] += len(getattr(obj, memo)) == before
            tally[1] += 1
            return result

        setattr(cls, method, probed)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"grcodes.{layer}") for layer in LAYERS}
        self.names.extend(f"{layer}.<pool task>" for layer in LAYERS)
        # memo probes go under the layer wrappers; a method that no longer
        # consults its memo gets no probe, and its ratio is reported absent
        for metric, sites in MEMOS.items():
            for layer, cls_name, method, memo in sites:
                fn = getattr(modules[layer], cls_name).__dict__.get(method)
                if inspect.isfunction(fn) and memo in fn.__code__.co_names:
                    self.probe(metric, getattr(modules[layer], cls_name), method, memo)
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self.wrap(obj, layer, f"{layer}.{attr}"))
        # rebind every reference to a wrapped function, in every grcodes module
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "grcodes" or mod_name.startswith("grcodes."):
                for attr, obj in list(vars(module).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(module, attr, hit[1])
        suites = modules["verify"].SUITES
        for key, (title, fn) in list(suites.items()):
            hit = replaced.get(id(fn))
            if hit is not None and hit[0] is fn:
                suites[key] = (title, hit[1])
        submit = concurrent.futures.ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer.adopt(fn), *args, **kwargs)

        concurrent.futures.ThreadPoolExecutor.submit = traced_submit

    def _wrap_class(self, cls, layer: str) -> None:
        wrap_init = cls.__name__ not in _VALUE_CLASSES and not hasattr(cls, "__dataclass_fields__")
        seen = {}
        for attr, member in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if attr == "__init__" and not wrap_init:
                continue
            kind = type(member)
            fn = member.__func__ if kind in (staticmethod, classmethod) else member
            if not inspect.isfunction(fn):
                continue  # properties and plain attributes
            # aliases such as __rmul__ = __mul__ share one wrapper and one count
            if id(fn) not in seen:
                seen[id(fn)] = self.wrap(fn, layer, f"{layer}.{fn.__qualname__}")
            wrapped = seen[id(fn)]
            setattr(cls, attr, kind(wrapped) if kind in (staticmethod, classmethod) else wrapped)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        sizes = [len(st.t0) for st in self.threads]
        offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        parent = np.concatenate([np.frombuffer(st.parent, dtype=np.int64) for st in self.threads])
        has_parent = parent >= 0
        rows = np.where(has_parent, offsets[parent >> 32] + (parent & 0xFFFFFFFF), -1)
        counts: dict[str, int] = {}
        memos = {metric: [0, 0] for metric in self.memo_metrics}
        for st in self.threads:
            for fid, calls in enumerate(st.counts):
                if calls:
                    counts[self.names[fid]] = counts.get(self.names[fid], 0) + calls
            for metric, (hits, calls) in st.memos.items():
                memos[metric][0] += hits
                memos[metric][1] += calls
        meta = {"job_id": self.job_id, "names": self.names, "counts": counts, "memos": memos}
        np.savez(
            path,
            parent=rows,
            thread=np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
            fid=np.concatenate([np.frombuffer(st.fid, dtype=np.int32) for st in self.threads]),
            t0=np.concatenate([np.frombuffer(st.t0, dtype=np.int64) for st in self.threads]),
            t1=np.concatenate([np.frombuffer(st.t1, dtype=np.int64) for st in self.threads]),
            meta=np.array(json.dumps(meta)),
        )


def load(path: str) -> dict:
    """Read a dump back as the mapping ``spans.aggregate`` takes."""
    with np.load(path) as data:
        trace = {key: data[key] for key in ("parent", "thread", "fid", "t0", "t1")}
        meta = json.loads(str(data["meta"]))
    trace.update(meta)
    return trace


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    job_id, out, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(job_id)
    tracer.install()
    cli = importlib.import_module("grcodes.cli")
    status = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
