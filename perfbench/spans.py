"""Stdlib span recorder and the call wrappers that feed it.

A :class:`SpanRecorder` keeps every span of one run in memory: name,
layer, kind, ``perf_counter`` start/end, parent span id (tracked through a
``contextvars.ContextVar``) and a dict of counters. Nothing is written
until the run ends (:meth:`SpanRecorder.to_records`).

Wrappers are installed with :meth:`Tracer.install` at the name each
caller looks up:

* methods are replaced on the class that defines them;
* module-level functions are replaced on their defining module *and* in
  every loaded ``repro`` module whose global is the same object, which is
  what a ``from … import name`` left behind.

:meth:`Tracer.uninstall` puts every original object back, so the
program's callables are identical before and after a traced run.

Functions that return lazy iterators (``events_until``) are wrapped in a
generator that times each ``next()`` call, so generation is charged where
the events are consumed, not where the generator was created. The busy
time is kept as one *aggregate* span per (iterator, consuming span).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import uuid
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# The package whose callables are wrapped.
PACKAGE = "repro"


@dataclass
class Span:
    """One timed interval (or, for ``aggregate`` spans, a sum of them)."""

    id: int
    parent: Optional[int]
    name: str
    layer: str
    kind: str
    start: float
    end: float = 0.0
    aggregate: bool = False
    busy: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.busy if self.aggregate else self.end - self.start


class SpanRecorder:
    """In-memory span store for one run; one ``run_id`` for every span."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            f"perfbench_span_{self.run_id}", default=None
        )

    def open(self, name: str, layer: str, kind: str) -> Tuple[Span, contextvars.Token]:
        span = Span(
            id=next(self._ids),
            parent=self.current.get(),
            name=name,
            layer=layer,
            kind=kind,
            start=perf_counter(),
        )
        self.spans.append(span)
        return span, self.current.set(span.id)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = perf_counter()
        self.current.reset(token)

    def span(self, name: str, layer: str, kind: str = "") -> "_SpanContext":
        """Context manager around one block of code."""
        return _SpanContext(self, name, layer, kind or name)

    def aggregate(self, name: str, layer: str, kind: str) -> Span:
        """A span whose duration is accumulated busy time under the
        currently active span (used for lazy iterators)."""
        now = perf_counter()
        span = Span(
            id=next(self._ids),
            parent=self.current.get(),
            name=name,
            layer=layer,
            kind=kind,
            start=now,
            end=now,
            aggregate=True,
        )
        self.spans.append(span)
        return span

    def to_records(self) -> List[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "layer": s.layer,
                "kind": s.kind,
                "start": s.start,
                "end": s.end,
                "duration": s.duration,
                "aggregate": s.aggregate,
                "counters": s.counters,
            }
            for s in self.spans
        ]


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str, layer: str, kind: str):
        self._recorder = recorder
        self._args = (name, layer, kind)

    def __enter__(self) -> Span:
        self._span, self._token = self._recorder.open(*self._args)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._recorder.close(self._span, self._token)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus its children's durations.

    Spans of one thread nest and do not overlap, and an aggregate span's
    busy time lies inside the span that consumed it, so the children's
    summed durations are the part of the parent they cover.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def outermost(spans: Iterable[Span], mark: Callable[[Span], Any]) -> List[Span]:
    """Spans with a mark (``mark(span)`` not None) and no ancestor with the
    same mark: avoids double counts when e.g. a subclass constructor calls
    its wrapped base constructor."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    result = []
    for span in spans:
        own = mark(span)
        if own is None:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and mark(parent) != own:
            parent = by_id.get(parent.parent)
        if parent is None:
            result.append(span)
    return result


# ----------------------------------------------------------------------
# wrappers


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``path`` is ``module:attr`` or ``module:Class.method``. ``lazy`` marks
    callables returning an iterator whose iteration is to be timed.
    ``before(args, kwargs)`` returns a state passed to ``after(span,
    args, kwargs, result, state)``, which may write ``span.counters``;
    ``span`` is None when the tracer records no spans.
    """

    path: str
    layer: str
    kind: str
    lazy: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _timed(recorder: Optional[SpanRecorder], target: Target, fn: Callable) -> Callable:
    name = target.path.split(":", 1)[1]

    if target.lazy and recorder is not None:

        @functools.wraps(fn)
        def lazy_wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            return _timed_iteration(recorder, target, name, iterator)

        return lazy_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = target.before(args, kwargs) if target.before else None
        if recorder is None:
            span = None
            result = fn(*args, **kwargs)
        else:
            span, token = recorder.open(name, target.layer, target.kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span, token)
        if target.after:
            target.after(span, args, kwargs, result, state)
        return result

    return wrapper


def _timed_iteration(recorder, target, name, iterator):
    """Yield ``iterator``'s items, charging each ``next()`` to an aggregate
    span under whichever span is consuming at that moment."""
    per_parent: Dict[Optional[int], Span] = {}
    while True:
        parent = recorder.current.get()
        span = per_parent.get(parent)
        if span is None:
            span = per_parent[parent] = recorder.aggregate(
                name, target.layer, target.kind
            )
            span.counters["items"] = 0
        token = recorder.current.set(span.id)
        start = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            end = perf_counter()
            span.busy += end - start
            span.end = end
            recorder.current.reset(token)
        span.counters["items"] += 1
        yield item


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        module = __import__(module_name, fromlist=["_"])
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = module
        for part in owner_name.split("."):
            owner = getattr(owner, part)
        if method not in vars(owner):
            raise AttributeError(f"{path}: {method!r} is not defined on {owner_name}")
        return module, owner, method
    return module, module, attr


class Tracer:
    """Installs wrappers for a list of :class:`Target` s.

    With a recorder the wrappers time each call as a span; without one
    (``recorder=None``, the untraced runs) they only run the targets'
    ``before``/``after`` hooks, so counters are kept either way.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            module, owner, attr = _resolve(target.path)
            raw = vars(owner)[attr]
            if owner is module:
                wrapped = _timed(self.recorder, target, raw)
                self._set(module, attr, wrapped)
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "") or ""
                    if other is module or not (
                        other_name == PACKAGE or other_name.startswith(PACKAGE + ".")
                    ):
                        continue
                    for global_name, value in list(vars(other).items()):
                        if value is raw:
                            self._set(other, global_name, wrapped)
            else:
                self._set(owner, attr, _timed(self.recorder, target, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def snapshot_callables() -> Dict[Tuple[str, str], int]:
    """``id`` of every global and class attribute in the loaded modules of
    :data:`PACKAGE`: equal snapshots mean nothing was left patched."""
    snapshot: Dict[Tuple[str, str], int] = {}
    for name, module in list(sys.modules.items()):
        if not (name == PACKAGE or name.startswith(PACKAGE + ".")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in list(vars(value).items()):
                    snapshot[(name, f"{attr}.{member}")] = id(raw)
    return snapshot
