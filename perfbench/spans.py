"""In-memory span recorder for the traced benchmark run.

Each wrapped call records one span: name, start, end, parent span, the
query and the operation (attack, search or CLI call) it belongs to, the
scope (workload or layer probe) and the exception type it ended with, if
any. Spans live in flat typed arrays while the run is going and are
analysed and written out when it ends.

Wrappers are installed on every attribute that holds the original
callable: the defining module, every proxilab module that from-imported
it, and the class for methods.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter

import numpy as np

SCOPE_WORKLOAD = 0
SCOPE_PROBE = 1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.errors: list[str] = [""]
        self._error_ids: dict[str, int] = {"": 0}
        self.name = array("H")
        self.parent = array("i")
        self.qid = array("i")
        self.op = array("i")
        self.scope = array("b")
        self.err = array("B")
        self.t0 = array("d")
        self.t1 = array("d")
        # (name id, scope, main thread) -> [sum of hook values, calls]
        self.hooks: dict[tuple[int, int, bool], list[float]] = {}
        self.cur_qid = -1
        self.cur_op = -1
        self.cur_scope = SCOPE_WORKLOAD
        self._n_queries = 0
        self._remote_parent = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self.child_cost = 0.0  # wrapper seconds one child span adds to its parent's self time

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _error_id(self, exc: BaseException) -> int:
        key = type(exc).__name__
        eid = self._error_ids.get(key)
        if eid is None:
            eid = self._error_ids[key] = len(self.errors)
            self.errors.append(key)
        return eid

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, nid: int, st: list[int]) -> int:
        if st:
            parent = st[-1]
        elif threading.current_thread() is threading.main_thread():
            parent = -1
        else:
            parent = self._remote_parent  # server thread serving the open client call
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.qid.append(self.cur_qid)
            self.op.append(self.cur_op)
            self.scope.append(self.cur_scope)
            self.err.append(0)
            self.t1.append(0.0)
            st.append(idx)
            self.t0.append(perf_counter())
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (for calls the benchmark
        makes itself, such as cli.main per subcommand)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str, hook=None, query: bool = False, remote: bool = False):
        nid = self.name_id(name)
        tr = self

        def wrapper(*args, **kwargs):
            st = tr._stack()
            if query:
                tr._n_queries += 1
                tr.cur_qid = tr._n_queries
            idx = tr._open(nid, st)
            if remote:
                tr._remote_parent = idx
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.err[idx] = tr._error_id(exc)
                raise
            finally:
                tr.t1[idx] = perf_counter()
                st.pop()
                if remote:
                    tr._remote_parent = -1
                if query:
                    tr.cur_qid = -1
            if hook is not None:
                key = (nid, tr.cur_scope, threading.current_thread() is threading.main_thread())
                acc = tr.hooks.setdefault(key, [0.0, 0])
                acc[0] += hook(args, result)
                acc[1] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self, calls: int = 20_000, repeats: int = 3) -> float:
        """Measure the wrapper time a child span leaves outside its own
        [start, end] interval, so self times can be corrected for it."""
        def noop():
            return None

        inner = self._wrap(noop, "trace.calibrate.inner")

        def loop():
            for _ in range(calls):
                inner()

        outer = self._wrap(loop, "trace.calibrate.outer")
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - t0
            start = len(self)
            outer()
            covered = sum(self.t1[i] - self.t0[i] for i in range(start + 1, len(self)))
            samples.append((self.t1[start] - self.t0[start] - covered - bare) / calls)
            for arr in (self.name, self.parent, self.qid, self.op, self.scope, self.err, self.t0, self.t1):
                del arr[start:]
        self.child_cost = max(0.0, sorted(samples)[len(samples) // 2])
        return self.child_cost

    def install(self, owner, attr: str, name: str, modules=(), **opts) -> None:
        """Replace owner.attr, and every module attribute bound to the same
        object, with one recording wrapper."""
        orig = getattr(owner, attr)
        wrapper = self._wrap(orig, name, **opts)
        targets = [owner] + [m for m in modules if m is not owner]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    self._installed.append((target, key, orig))
                    setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._installed):
            setattr(target, key, orig)
        self._installed.clear()

    def hook_total(self, name: str, scope: int, main_thread: bool | None = None) -> tuple[float, int]:
        nid = self._name_ids.get(name)
        total, calls = 0.0, 0
        for (k_nid, k_scope, k_main), (s, n) in self.hooks.items():
            if k_nid == nid and k_scope == scope and (main_thread is None or k_main == main_thread):
                total += s
                calls += n
        return total, calls

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            errors=np.array(self.errors),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            qid=np.frombuffer(self.qid, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            scope=np.frombuffer(self.scope, dtype=np.int8),
            err=np.frombuffer(self.err, dtype=np.uint8),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
        )


class SpanFrame:
    """Column view of the recorded spans with durations and self times.

    Self time is a span's duration minus the time its child spans cover;
    children never overlap, because each thread nests its calls and a
    server-thread span runs while its client-side parent waits. The
    calibrated wrapper cost of each child is subtracted as well, so a parent
    with thousands of children is not charged for their tracing.
    """

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.name = np.frombuffer(tr.name, dtype=np.uint16).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).copy()
        self.qid = np.frombuffer(tr.qid, dtype=np.int32).copy()
        self.scope = np.frombuffer(tr.scope, dtype=np.int8).copy()
        self.err = np.frombuffer(tr.err, dtype=np.uint8).copy()
        t0 = np.frombuffer(tr.t0, dtype=np.float64)
        t1 = np.frombuffer(tr.t1, dtype=np.float64)
        self.dur = t1 - t0
        has_parent = self.parent >= 0
        parents = self.parent[has_parent]
        covered = np.bincount(parents, weights=self.dur[has_parent], minlength=len(self.dur))
        children = np.bincount(parents, minlength=len(self.dur))
        self.self_time = np.maximum(self.dur - covered - tr.child_cost * children, 0.0)

    def mask(self, name: str, scope: int | None = SCOPE_WORKLOAD) -> np.ndarray:
        nid = self.tr._name_ids.get(name)
        if nid is None:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == nid
        if scope is not None:
            m &= self.scope == scope
        return m

    def count(self, name: str, scope: int = SCOPE_WORKLOAD, **where) -> int:
        return int(self.select(name, scope, **where).sum())

    def select(self, name: str, scope: int = SCOPE_WORKLOAD, parent_name: str | None = None,
               error: str | None = None, ok: bool | None = None) -> np.ndarray:
        m = self.mask(name, scope)
        if parent_name is not None:
            pid = self.tr._name_ids.get(parent_name)
            par = self.parent.clip(min=0)
            m &= (self.parent >= 0) & (self.name[par] == pid)
        if error is not None:
            eid = self.tr._error_ids.get(error)
            m &= self.err == eid if eid is not None else False
        if ok is not None:
            m &= (self.err == 0) if ok else (self.err != 0)
        return m

    def times(self, name: str, self_time: bool = False) -> tuple[np.ndarray, str]:
        """Durations (or self times) of a span name: the workload's own spans
        when it made any, otherwise those of the layer probe."""
        values = self.self_time if self_time else self.dur
        for scope, source in ((SCOPE_WORKLOAD, "workload"), (SCOPE_PROBE, "probe")):
            m = self.mask(name, scope)
            if m.any():
                return values[m], source
        return values[:0], "none"
