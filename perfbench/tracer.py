"""In-memory span tracing around the program's layer entry points.

The traced run wraps the public functions listed in :data:`WRAP_POINTS`
from outside the program: no file under ``src/`` knows about it.  Each
call records one span (name, start, end, parent span, request id) into
flat arrays that stay in memory until the run ends, when
:meth:`Tracer.save` writes them out.

A span name is ``<layer>.<function>``; the layer is the part before the
dot.  A span's *self* time is its duration minus the durations of its
direct children, so the self times of all spans add up to the time the
outermost spans cover.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: ``(module, class or None, attribute, span name)`` of every wrapped
#: entry point.  ``repro.core.knn`` imports its kernels by name, so they
#: are replaced in that module's namespace; ``get_sdist_kernel`` is
#: wrapped so that the kernel it returns is traced.
WRAP_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.roadnet.datasets", None, "grid_road_network", "roadnet.build"),
    ("repro.core.graph_grid", "GraphGrid", "build", "grid.build"),
    ("repro.core.ggrid", "GGridIndex", "ingest", "ingest.ingest"),
    ("repro.core.cleaning", "MessageCleaner", "clean", "cleaning.clean"),
    ("repro.core.knn", None, "get_sdist_kernel", "sdist.kernel"),
    ("repro.core.knn", None, "sdist_batch_kernel", "sdist.batch_kernel"),
    ("repro.core.knn", None, "first_k_kernel", "first_k.kernel"),
    ("repro.core.knn", None, "first_k_batch_kernel", "first_k.batch_kernel"),
    ("repro.core.knn", None, "unresolved_kernel", "unresolved.kernel"),
    ("repro.core.knn", None, "unresolved_batch_kernel", "unresolved.batch_kernel"),
    ("repro.core.knn", None, "refine_knn", "refine.refine_knn"),
    ("repro.server.server", "QueryServer", "update", "server.update"),
    ("repro.server.server", "QueryServer", "query", "server.query"),
    ("repro.server.server", "QueryServer", "query_batch", "server.query_batch"),
    ("repro.cluster.router", "ShardRouter", "update", "router.update"),
    ("repro.cluster.router", "ShardRouter", "query_batch", "router.query_batch"),
    ("repro.persist.wal", "WriteAheadLog", "append_ingest", "wal.append_ingest"),
    ("repro.cluster.replica", "Replica", "ship_ingest", "replica.ship_ingest"),
    ("repro.cluster.replica", "Replica", "apply_buffer", "replica.apply_buffer"),
    ("repro.serve.frontdoor", "FrontDoor", "submit_nowait", "frontdoor.submit_nowait"),
    ("repro.serve.frontdoor", "FrontDoor", "flush", "frontdoor.flush"),
)

#: wrapped functions that return a kernel: the kernel they return is
#: traced under their span name instead of the call itself
_KERNEL_FACTORIES = {"get_sdist_kernel"}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span store plus per-name result observers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: request id stamped on every span opened until it changes
        self.request = 0
        #: ``span name -> fn(result)`` called after the span closes
        self.observers: dict[str, Callable[[Any], None]] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (call only with no span open)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        sid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            i = len(tracer.start)
            tracer.name_id.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.req.append(tracer.request)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                stack.pop()
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        names = len(self.names)
        name_id, parent, start, end = self._arrays()
        if not len(start):
            return {}
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name_id, minlength=names)
        total = np.bincount(name_id, weights=dur, minlength=names)
        self_s = np.bincount(name_id, weights=own, minlength=names)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        name_id, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            request=np.frombuffer(self.req, dtype=np.int32),
            start=start,
            end=end,
        )


class Installed:
    """Context manager that wraps every :data:`WRAP_POINTS` entry and
    restores the original attributes on exit, also after an error."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Installed":
        try:
            for module, cls, attr, name in WRAP_POINTS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                raw = vars(owner)[attr]
                self.saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrapped(raw, name, attr))
        except BaseException:
            self.restore()
            raise
        return self

    def _wrapped(self, raw: Any, name: str, attr: str) -> Any:
        tracer = self.tracer
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(tracer.wrap(raw.__func__, name))
        if attr in _KERNEL_FACTORIES:
            traced_kernels: dict[Any, Any] = {}

            @functools.wraps(raw)
            def factory(*args: Any, **kwargs: Any) -> Any:
                kernel = raw(*args, **kwargs)
                if kernel not in traced_kernels:
                    traced_kernels[kernel] = tracer.wrap(kernel, name)
                return traced_kernels[kernel]

            return factory
        return tracer.wrap(raw, name)

    def restore(self) -> None:
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)

    def __exit__(self, *exc: object) -> None:
        self.restore()
