"""In-memory span recorder that wraps every function of a package's modules.

Each call of a wrapped function records one span: its name, start and end
(``time.perf_counter`` seconds), the span open on the same thread when it
started (its parent, or -1) and the thread.  A span's self time is its
duration minus the part of that interval its child spans cover.

Spans stay in memory until :meth:`SpanRecorder.dump` writes them out.
"""

import functools
import math
import sys
import threading
import time
import types
from array import array

import numpy as np

__all__ = ["SpanRecorder", "metric_values"]


class SpanRecorder:
    """Wraps every module-level function binding under ``package``.

    A function bound in several modules (``kchain.eigengate.build_eigengate``
    and ``kchain.driving.build_eigengate``) gets one shared wrapper, so all
    its calls land under one name, ``<module without package>.<qualname>``.
    ``hooks`` maps such a name to ``hook(args, kwargs, result)``; its return
    value is kept as the span's tag.
    """

    def __init__(self, package: str, hooks=None, clock=time.perf_counter):
        self.package = package
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.names = []
        self.name_id = array("l")
        self.parent = array("l")
        self.thread = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tags = {}
        self.hook_errors = 0
        self._ids = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    # ------------------------------------------------------------ wrapping

    def _owned(self, module_name: str) -> bool:
        return module_name == self.package or module_name.startswith(self.package + ".")

    def span_name(self, fn) -> str:
        module = fn.__module__[len(self.package) + 1:]
        return f"{module}.{fn.__qualname__}" if module else fn.__qualname__

    def install(self) -> None:
        """Replace every package function binding with a recording wrapper."""
        wrappers = {}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not self._owned(module_name):
                continue
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType) or not self._owned(fn.__module__):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                setattr(module, attr, wrappers[fn])
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def has(self, name: str) -> bool:
        """Whether a function of that span name was found and wrapped."""
        return name in self._ids

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span now; returns its id.  Wrappers call this."""
        stack = self._stack()
        with self._lock:
            sid = len(self.start)
            self.name_id.append(self._intern(name))
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(threading.get_ident())
            self.start.append(math.nan)
            self.end.append(math.nan)
        stack.append(sid)
        self.start[sid] = self.clock()
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack().pop()

    def _wrap(self, fn):
        name = self.span_name(fn)
        self._intern(name)
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                try:
                    self.tags[sid] = hook(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors += 1
            return result

        return wrapper

    # ------------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list:
        """Self seconds of every span, indexed by span id."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        children = {}
        for sid, pid in enumerate(parent):
            if pid >= 0:
                children.setdefault(pid, []).append(sid)
        for pid, kids in children.items():
            lo_p, hi_p = start[pid], end[pid]
            covered = 0.0
            run_lo = run_hi = None
            for kid in sorted(kids, key=start.__getitem__):
                lo, hi = max(start[kid], lo_p), min(end[kid], hi_p)
                if hi <= lo:
                    continue
                if run_hi is None or lo > run_hi:
                    if run_hi is not None:
                        covered += run_hi - run_lo
                    run_lo, run_hi = lo, hi
                else:
                    run_hi = max(run_hi, hi)
            if run_hi is not None:
                covered += run_hi - run_lo
            own[pid] -= covered
        return own

    def totals(self) -> dict:
        """name -> (total self seconds, calls), for every wrapped name."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for sid, own in enumerate(self.self_times()):
            nid = self.name_id[sid]
            self_s[nid] += own
            calls[nid] += 1
        return {name: (self_s[i], calls[i]) for i, name in enumerate(self.names)}

    def ancestor(self, sid: int, name: str):
        """Nearest enclosing span of the given name, or None."""
        target = self._ids.get(name)
        pid = self.parent[sid]
        while pid >= 0:
            if self.name_id[pid] == target:
                return pid
            pid = self.parent[pid]
        return None

    def spans_of(self, name: str) -> list:
        nid = self._ids.get(name)
        return [sid for sid, n in enumerate(self.name_id) if n == nid]

    def dump(self, path) -> None:
        """Write every span as columns of a numpy .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.dtype(self.name_id.typecode)),
            parent=np.frombuffer(self.parent, dtype=np.dtype(self.parent.typecode)),
            thread=np.frombuffer(self.thread, dtype=np.dtype(self.thread.typecode)),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def metric_values(recorder: SpanRecorder, names, ops: int, derived=None):
    """Per-op values of per-layer metrics, and the names that are absent.

    ``<func>.self_s`` and ``<func>.calls`` come from the recorder's totals;
    ``derived`` maps other names to ``(func, total)``.  A metric whose
    function was not found (renamed or removed) reads 0 and is listed as
    absent instead of failing the run.
    """
    derived = derived or {}
    totals = recorder.totals()
    values, absent = {}, []
    for name in names:
        if name in derived:
            func, total = derived[name]
        else:
            func, _, kind = name.rpartition(".")
            if kind not in ("self_s", "calls"):
                raise ValueError(f"no rule for per-layer metric {name!r}")
            total = totals.get(func, (0.0, 0))[0 if kind == "self_s" else 1]
        if func is not None and not recorder.has(func):
            absent.append(name)
            total = 0.0
        values[name] = float(total) / max(ops, 1)
    return values, absent
