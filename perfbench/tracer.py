"""In-memory span tracer for the public functions of the gaussmeter modules.

The tracer wraps every public function bound in each module's namespace
(including names one module imports from another, and the callables held
in public dicts such as ``verify.CASES``), so a span is recorded at each
call that crosses a module boundary by name.  Nothing under ``src/`` is
edited: :meth:`Tracer.install` rebinds the names and :meth:`Tracer.uninstall`
restores them.  Calls inside private helpers are not split out.

Spans are kept in flat arrays while the run lasts and written out once at
the end.  Each span records its name, start, end, parent span and the job
it belongs to.  A span's self time is its duration minus the part of its
interval that its child spans cover; children on pool threads may overlap,
so the covered part is the union of their intervals.  The wrapper's own
work is measured once per run (:func:`calibrate`) and taken out of the
self times (:func:`corrected_self_times`).
"""

from __future__ import annotations

import functools
import threading
import time
import types
from array import array

import numpy as np

NO_PARENT = -1
PACKAGE = "gaussmeter"
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


class Tracer:
    """Records spans around calls into the public names of given modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.errors: dict[tuple[str, str], int] = {}
        self._errors_seen: dict[int, BaseException] = {}
        self.job_id = NO_PARENT
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._wrappers: dict[int, types.FunctionType] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            # a pool thread's first span belongs to the call that is
            # blocked waiting for it on the owning thread
            parent = self._owner_stack[-1]
        else:
            parent = NO_PARENT
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.job.append(self.job_id)
            self.end.append(np.nan)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def _record_error(self, name: str, exc: BaseException) -> None:
        # count each exception once, at the innermost traced call it left
        if id(exc) in self._errors_seen:
            return
        self._errors_seen[id(exc)] = exc
        key = (name.split(".", 1)[0], type(exc).__name__)
        with self._lock:
            self.errors[key] = self.errors.get(key, 0) + 1

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_error(name, exc)
                raise
            finally:
                tracer.close(idx)

        traced.__traced__ = True
        return traced

    # -- installation ----------------------------------------------------

    def _wrapper_for(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrapper = self.wrap(f"{layer}.{fn.__qualname__}", fn)
            self._wrappers[id(fn)] = wrapper
        return wrapper

    @staticmethod
    def _is_target(value) -> bool:
        # a dispatch table shared by two modules is met twice: wrap it once
        return (isinstance(value, types.FunctionType)
                and (value.__module__ or "").startswith(PACKAGE + ".")
                and not getattr(value, "__traced__", False))

    def install(self, modules) -> None:
        """Wrap the public functions bound in each module's namespace."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if self._is_target(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self._wrapper_for(value))
                elif isinstance(value, dict) and value and all(
                    self._is_target(v) for v in value.values()
                ):
                    # dispatch tables are mutated in place so that every
                    # module holding a reference to them sees the wrappers
                    for key, fn in list(value.items()):
                        self._restore.append((value, key, fn))
                        value[key] = self._wrapper_for(fn)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span and the name table to a compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def calibrate() -> tuple[float, float]:
    """Cost of tracing one call, as ``(inside, outside)`` in seconds.

    A span's timestamps are read inside the wrapper, so part of the
    wrapper's work falls inside the span (``inside``: the duration recorded
    for a call of an empty function) and the rest falls outside it, in the
    self time of its parent (``outside``: the parent's self time per empty
    child).  Both are medians over several rounds of a throw-away tracer.
    """
    tracer = Tracer()
    empty = tracer.wrap("empty", lambda x, base: None)
    inside, outside = [], []
    for _ in range(CALIBRATION_REPEATS):
        first = len(tracer.start)
        root = tracer.open("root")
        for _ in range(CALIBRATION_CALLS):
            empty(1.0, None)
        tracer.close(root)
        arrays = tracer.arrays()
        start, end = arrays["start"][first:], arrays["end"][first:]
        inside.append(float(np.median(end[1:] - start[1:])))
        outside.append(float(self_times(start, end, arrays["parent"][first:] - first)[0])
                       / CALIBRATION_CALLS)
    return float(np.median(inside)), float(np.median(outside))


def corrected_self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray,
                         inside: float, outside: float) -> np.ndarray:
    """:func:`self_times` less the tracer's own cost measured by :func:`calibrate`.

    Each span gives back ``inside`` for itself and ``outside`` for each of
    its direct children.
    """
    children = np.bincount(parent[parent >= 0], minlength=parent.size)
    return self_times(start, end, parent) - inside - outside * children


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    (spans of pool threads) are merged so shared time is subtracted once.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    kids = np.nonzero(parent >= 0)[0]
    if kids.size:
        order = kids[np.lexsort((start[kids], parent[kids]))]
        cur_parent, cur_lo, cur_hi = -1, 0.0, 0.0
        for i in order.tolist():
            p = int(parent[i])
            lo, hi = max(start[i], start[p]), min(end[i], end[p])
            if hi <= lo:
                continue
            if p != cur_parent:
                if cur_parent >= 0:
                    covered[cur_parent] += cur_hi - cur_lo
                cur_parent, cur_lo, cur_hi = p, lo, hi
            elif lo > cur_hi:
                covered[cur_parent] += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_parent >= 0:
            covered[cur_parent] += cur_hi - cur_lo
    return duration - covered
