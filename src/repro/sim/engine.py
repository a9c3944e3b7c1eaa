"""The discrete-event simulation loop.

:class:`SimulationEngine` has one run path. :meth:`~SimulationEngine.run`
splits the registered sessions once:

* *kernel-eligible* sessions — fault-free, recovery-free, keyring-free
  single-copy and fault-free multi-copy, see
  :data:`repro.sim.kernel.KERNEL_CLASSES` — are claimed by struct-of-arrays
  kernels that advance them with array operations and dispatch only the
  state-changing events through the session's own scalar hook;
* every other session forms the *object-loop remainder*, dispatched event
  by event through a node→sessions *interest index* built from each
  session's :meth:`~repro.sim.protocol.ProtocolSession.watched_nodes`
  contract plus a wakeup heap of
  :meth:`~repro.sim.protocol.ProtocolSession.next_poll_time` deadlines.
  Sessions that do not implement the contract see every event.

The source is then drained as columnar
:class:`~repro.contacts.events.EventBlock` windows by
:func:`~repro.contacts.events.stream_event_blocks` — by default one
horizon-wide window; ``stream_window`` and ``max_window_events`` bound the
resident window instead. Each window goes first to the kernels, then to
the object loop, whose index and heap persist across windows. The object
loop dispatches the sessions touched by one event in registration order,
so shared sampled state (e.g. per-receive greyhole draws) consumes one
fixed random stream; kernel-eligible sessions draw nothing at dispatch
and never interact, so splitting them off cannot perturb it.

Sources that only implement ``events_until`` (fault filters, impairments)
are adapted by :func:`~repro.contacts.events.as_event_source`, which builds
each window from the per-event iterator. The whole window is drawn before
any session sees it, so such a source must not share a random generator
with anything that draws during dispatch.

The reference loops the equivalence suites check this path against — the
broadcast scan and the per-event indexed loop — live in
``tests/oracles.py``. :attr:`SimulationEngine.dispatch_mode_counts`
records how many sessions each run routed to each kernel and to the
object loop.
"""

from __future__ import annotations

import heapq
import logging
import math
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.contacts.events import ContactEvent, as_event_source, stream_event_blocks
from repro.sim.protocol import ProtocolSession
from repro.utils.resilience import KERNEL_FALLBACK, ResilienceEvent
from repro.utils.validation import check_positive

logger = logging.getLogger(__name__)

_ORDER_KEY = attrgetter("order")


class _SessionRecord:
    """Engine-side bookkeeping for one registered session."""

    __slots__ = ("order", "session", "watched", "poll_at", "live", "scalar", "versioned")

    def __init__(self, order: int, session: ProtocolSession):
        self.order = order
        self.session = session
        self.watched = None  # frozenset of nodes, or None for broadcast
        self.poll_at = math.inf
        self.live = True
        # Sessions overriding on_contact_scalar skip event materialisation.
        self.scalar = (
            type(session).on_contact_scalar is not ProtocolSession.on_contact_scalar
        )
        # Sessions maintaining state_version allow the columnar loop to
        # skip the contract re-read after a provably no-op dispatch.
        self.versioned = self.scalar and session.state_version is not None


class SimulationEngine:
    """Drives protocol sessions with a contact-event stream.

    The engine is deliberately thin: all routing logic lives in the
    sessions, all stochastic structure in the event source. It stops at the
    horizon or as soon as every session reports ``done``.

    Graceful degradation: by default a session that raises mid-dispatch is
    *quarantined* — its outcome is marked ``failed``, the exception is kept
    on :attr:`quarantined`, and the remaining sessions keep running — so one
    pathological message cannot kill a whole experiment batch. Pass
    ``on_error="raise"`` to propagate instead (useful in unit tests).

    Parameters
    ----------
    events:
        An event source (anything with ``events_until_columnar`` or
        ``events_until``) or a precomputed
        :class:`~repro.contacts.events.EventBlock`; see
        :func:`~repro.contacts.events.as_event_source`.
    stream_window / max_window_events:
        Bound the resident event window. By default the run consumes one
        horizon-wide window; ``stream_window`` drains the source in windows
        of that span and ``max_window_events`` caps every window's length
        (see :func:`~repro.contacts.events.stream_event_blocks`). Outcomes
        are identical for every windowing — kernels and the object loop
        both compose across windows.
    kernels:
        ``True`` (default) sweeps kernel-eligible sessions with the
        struct-of-arrays kernels (:class:`~repro.sim.kernel.BatchKernel`
        for single-copy, :class:`~repro.sim.kernel.MultiCopyBatchKernel`
        for multi-copy); ``False`` routes every session through the object
        loop. Outcomes are identical; only the wall time differs.
    backend:
        Kernel-backend selection for the struct-of-arrays sweeps: a
        :mod:`repro.sim.backend` registry name (``"numpy"`` or
        ``"cc"``), an already-resolved backend instance, or None to
        honour ``REPRO_KERNEL_BACKEND`` (default numpy). Unknown names
        raise at construction; a known-but-unavailable backend degrades
        to numpy with a KERNEL_FALLBACK resilience event. Outcomes are
        byte-identical across backends; :attr:`kernel_stats` exposes the
        per-kernel phase timings either way.

    One bookkeeping caveat: once the object loop has no live session left,
    :attr:`events_processed` counts each remaining consumed window whole
    (the kernels prove most events are no-ops without dispatching them),
    whereas the object loop stops counting at its early exit. Outcomes are
    unaffected.
    """

    def __init__(
        self,
        events,
        horizon: float,
        on_error: str = "quarantine",
        stream_window: Optional[float] = None,
        max_window_events: Optional[int] = None,
        kernels: bool = True,
        backend=None,
    ):
        check_positive(horizon, "horizon")
        if on_error not in ("quarantine", "raise"):
            raise ValueError(
                f"on_error must be 'quarantine' or 'raise', got {on_error!r}"
            )
        if stream_window is not None:
            check_positive(stream_window, "stream_window")
        if max_window_events is not None and (
            not isinstance(max_window_events, int) or max_window_events <= 0
        ):
            raise ValueError(
                f"max_window_events must be a positive int, "
                f"got {max_window_events!r}"
            )
        if backend is not None:
            from repro.sim.backend import check_backend_name

            check_backend_name(backend)  # typos fail at construction time
        self._backend = backend
        self._backend_obj = None
        self._events = as_event_source(events)
        self._horizon = horizon
        self._on_error = on_error
        self._stream_window = stream_window
        self._max_window_events = max_window_events
        self._use_kernels = kernels
        self._stream_windows = 0
        self._stream_peak_window = 0
        self._sessions: List[ProtocolSession] = []
        self._events_processed = 0
        self._quarantined: List[Tuple[ProtocolSession, Exception]] = []
        self._quarantined_ids: set = set()
        self._dispatch_mode_counts: Dict[str, int] = {}
        self._fallbacks: List[ResilienceEvent] = []
        self._kernel_stats: List[Dict] = []

    @property
    def horizon(self) -> float:
        """Latest event time the engine will process."""
        return self._horizon

    @property
    def stream_stats(self) -> Tuple[int, int]:
        """``(windows consumed, peak window event count)`` of the last
        run — the memory-ceiling observability hook."""
        return self._stream_windows, self._stream_peak_window

    @property
    def events_processed(self) -> int:
        """Number of contact events dispatched so far."""
        return self._events_processed

    @property
    def quarantined(self) -> Tuple[Tuple[ProtocolSession, Exception], ...]:
        """Sessions removed from dispatch after raising, with their errors."""
        return tuple(self._quarantined)

    @property
    def dispatch_mode_counts(self) -> Dict[str, int]:
        """Sessions routed through each dispatch path, accumulated per run.

        Keys: ``kernel-single`` / ``kernel-multicopy`` (struct-of-arrays
        sweeps) and ``columnar`` (the object loop over columnar windows).
        Only live, unquarantined sessions are counted, at the moment
        :meth:`run` assigns them to a path.
        """
        return dict(self._dispatch_mode_counts)

    @property
    def fallback_events(self) -> Tuple[ResilienceEvent, ...]:
        """Degradations taken this run.

        Each entry is a :data:`~repro.utils.resilience.KERNEL_FALLBACK`
        event: a kernel that rejected its sessions before dispatching
        (they ran through the object loop instead), or a kernel backend
        that degraded to numpy. Outcomes are byte-identical either way — a
        fallback costs wall time, never correctness.
        """
        return tuple(self._fallbacks)

    @property
    def kernel_stats(self) -> Tuple[Dict, ...]:
        """Per-kernel profiling stats collected by the last kernel run.

        One dict per kernel instance the engine drove (see
        ``BatchKernel.stats``): backend name, ``rounds``,
        ``scalar_dispatches``, ``backend_seconds``, ``dispatch_seconds``,
        and per-round active-set peak/total — the raw material for
        ``bench_engine --mode backend``.
        """
        return tuple(dict(stats) for stats in self._kernel_stats)

    def _resolve_backend(self):
        """Resolve the requested kernel backend once per engine.

        A known-but-unavailable backend (``cc`` without a C compiler)
        degrades to numpy and records a
        :data:`~repro.utils.resilience.KERNEL_FALLBACK` event: selection
        never changes outcomes.
        """
        if self._backend_obj is None:
            from repro.sim.backend import resolve_backend

            self._backend_obj = resolve_backend(
                self._backend,
                on_fallback=lambda requested, error: self._record_fallback(
                    f"backend={requested}",
                    error,
                    "requested kernel backend unavailable; degraded to numpy",
                ),
            )
        return self._backend_obj

    def _harvest_kernel(self, kernel) -> None:
        """Collect a kernel's stats and surface its backend degradations."""
        self._kernel_stats.append(dict(kernel.stats))
        for note in kernel.backend_fallbacks:
            self._fallbacks.append(
                ResilienceEvent(
                    kind=KERNEL_FALLBACK,
                    where=type(kernel).__name__,
                    detail=note,
                    resolution="degraded",
                )
            )

    def _count_mode(self, mode: str, count: int) -> None:
        if count:
            total = self._dispatch_mode_counts.get(mode, 0) + count
            if total:
                self._dispatch_mode_counts[mode] = total
            else:
                self._dispatch_mode_counts.pop(mode, None)

    def _record_fallback(self, where: str, error: Exception, detail: str) -> None:
        event = ResilienceEvent(
            kind=KERNEL_FALLBACK,
            where=where,
            detail=f"{detail}: {type(error).__name__}: {error}",
            resolution="degraded",
        )
        self._fallbacks.append(event)
        logger.warning("%s — %s", where, event.detail)

    def _is_live(self, session: ProtocolSession) -> bool:
        return not session.done and id(session) not in self._quarantined_ids

    def add_session(self, session: ProtocolSession) -> ProtocolSession:
        """Register a session; returns it for chaining."""
        self._sessions.append(session)
        return session

    def _quarantine(self, session: ProtocolSession, error: Exception) -> None:
        self._quarantined.append((session, error))
        self._quarantined_ids.add(id(session))
        try:
            session.outcome().status = "failed"
        except Exception:  # outcome itself is broken — quarantine regardless
            pass
        logger.warning(
            "quarantined session %r after %s: %s",
            type(session).__name__,
            type(error).__name__,
            error,
        )

    def run(self) -> None:
        """Process events until the horizon or until all sessions are done.

        Each eligible session is claimed by the first kernel class in
        :data:`~repro.sim.kernel.KERNEL_CLASSES` whose ``supports`` accepts
        it; the rest go to the object loop. A kernel that rejects its
        sessions before dispatching anything hands them to the object
        loop (nothing was mutated, so outcomes stay byte-identical); a
        kernel that fails after dispatching propagates, because replaying
        advanced sessions would violate causality — chunk-level
        supervisors rebuild from the chunk seed with ``kernel=False``.
        """
        from repro.sim.kernel import KERNEL_CLASSES, kernel_class_for

        if not self._sessions:
            raise RuntimeError("no protocol sessions registered")
        groups = {kernel_cls: [] for kernel_cls in KERNEL_CLASSES}
        rest = []
        for order, session in enumerate(self._sessions):
            kernel_cls = None
            if self._use_kernels and self._is_live(session):
                kernel_cls = kernel_class_for(session)
            if kernel_cls is not None:
                groups[kernel_cls].append((order, session))
            else:
                rest.append((order, session))
        self._kernel_stats = []
        kernels = []
        for kernel_cls, eligible in groups.items():
            if not eligible:
                continue
            try:
                kernel = kernel_cls(
                    [session for _, session in eligible],
                    backend=self._resolve_backend(),
                )
            except Exception as error:
                self._reject_kernel(kernel_cls, eligible, error)
                rest.extend(eligible)
                continue
            kernels.append((kernel, eligible))
            self._count_mode(kernel_cls.mode, len(eligible))
        rest.sort(key=lambda pair: pair[0])
        # The object loop's interest index, broadcast-fallback list, and
        # wakeup heap; they persist across windows.
        index: Dict[int, List[_SessionRecord]] = {}
        always: List[_SessionRecord] = []
        wakeups: List[Tuple[float, int, _SessionRecord]] = []
        live = self._place_sessions(rest, index, always, wakeups)
        self._count_mode("columnar", live)
        if not kernels and live == 0:
            return

        on_session_error = None
        if self._on_error == "quarantine":
            on_session_error = self._quarantine
        self._stream_windows = 0
        self._stream_peak_window = 0
        try:
            for block in stream_event_blocks(
                self._events,
                self._horizon,
                window=self._stream_window or self._horizon,
                max_window_events=self._max_window_events,
            ):
                self._stream_windows += 1
                self._stream_peak_window = max(self._stream_peak_window, len(block))
                for kernel, eligible in list(kernels):
                    try:
                        kernel.run(block, on_session_error=on_session_error)
                    except Exception as error:
                        if kernel.dispatches:
                            error.add_note(
                                f"{type(kernel).__name__} failed after "
                                f"{kernel.dispatches} dispatches; partial "
                                "kernel state cannot fall back byte-"
                                "identically — rerun the batch (or chunk) "
                                "with kernel=False"
                            )
                            raise
                        # Nothing was mutated: from this window on the
                        # object loop dispatches the group instead.
                        kernels.remove((kernel, eligible))
                        self._reject_kernel(type(kernel), eligible, error)
                        self._count_mode(type(kernel).mode, -len(eligible))
                        placed = self._place_sessions(
                            eligible, index, always, wakeups
                        )
                        self._count_mode("columnar", placed)
                        live += placed
                if live:
                    live = self._dispatch_columnar_window(
                        block, index, always, wakeups, live
                    )
                else:
                    self._events_processed += len(block)
                if live == 0 and all(kernel.pending == 0 for kernel, _ in kernels):
                    return
        finally:
            for kernel, _ in kernels:
                self._harvest_kernel(kernel)

    def _reject_kernel(self, kernel_cls, eligible, error: Exception) -> None:
        self._record_fallback(
            kernel_cls.__name__,
            error,
            f"kernel rejected {len(eligible)} eligible sessions before "
            "dispatching; degraded to the object loop",
        )

    def _place_sessions(self, ordered_sessions, index, always, wakeups) -> int:
        """Hand ``(order, session)`` pairs to the object loop.

        Done and quarantined sessions are skipped; returns how many were
        placed. Dispatch sorts each event's candidates by ``order``, so
        sessions placed mid-run keep their registration-order position.
        """
        placed = 0
        for order, session in ordered_sessions:
            if self._is_live(session):
                placed += 1
                self._place(_SessionRecord(order, session), index, always, wakeups)
        return placed

    def _dispatch_columnar_window(
        self, block, index, always, wakeups, live
    ) -> int:
        """Dispatch one columnar window against prebuilt index state.

        Returns the remaining live-session count so :meth:`run` can feed
        successive windows through the *same* dispatch state — the
        index, broadcast list, and wakeup heap persist across windows
        exactly as they would persist across the events of one big block.
        """
        times = block.times.tolist()
        nodes_a = block.a.tolist()
        nodes_b = block.b.tolist()
        index_get = index.get
        for time, node_a, node_b in zip(times, nodes_a, nodes_b):
            self._events_processed += 1
            due: List[_SessionRecord] = []
            while wakeups and wakeups[0][0] <= time:
                poll_at, _, record = heapq.heappop(wakeups)
                if record.live and record.poll_at == poll_at:
                    due.append(record)

            watching_a = index_get(node_a)
            watching_b = index_get(node_b)
            candidates: List[_SessionRecord]
            if watching_b or always or due:
                seen: set = set()
                candidates = []
                for group in (watching_a, watching_b, always, due):
                    if not group:
                        continue
                    for record in group:
                        if record.order not in seen:
                            seen.add(record.order)
                            candidates.append(record)
            else:
                candidates = list(watching_a) if watching_a else []
            candidates.sort(key=_ORDER_KEY)

            event: Optional[ContactEvent] = None
            # ``due`` being empty means no wakeup entry was consumed this
            # event, so a dispatch that leaves state_version unchanged needs
            # no follow-up at all: done / watched_nodes() / next_poll_time()
            # are all exactly as recorded and every heap entry is intact.
            fast_ok = not due
            for record in candidates:
                if not record.live:
                    continue
                session = record.session
                try:
                    if record.scalar:
                        if fast_ok and record.versioned:
                            version = session.state_version
                            session.on_contact_scalar(time, node_a, node_b)
                            if session.state_version == version:
                                continue
                        else:
                            session.on_contact_scalar(time, node_a, node_b)
                    else:
                        if event is None:
                            event = ContactEvent(time=time, a=node_a, b=node_b)
                        session.on_contact(event)
                except Exception as error:
                    if self._on_error == "raise":
                        raise
                    self._quarantine(session, error)
                    self._retire(record, index, always)
                    live -= 1
                    continue
                if session.done:
                    self._retire(record, index, always)
                    live -= 1
                    continue
                new_watched = session.watched_nodes()
                if new_watched is not record.watched and new_watched != record.watched:
                    self._unplace(record, index, always)
                    record.watched = new_watched
                    self._place_watched(record, index, always)
                new_poll = session.next_poll_time()
                if new_poll != record.poll_at:
                    record.poll_at = new_poll
                    if new_poll != math.inf:
                        heapq.heappush(wakeups, (new_poll, record.order, record))
                elif record in due and new_poll != math.inf:
                    heapq.heappush(wakeups, (new_poll, record.order, record))
            if live == 0:
                return 0
        return live

    def _place(
        self,
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
        wakeups: List[Tuple[float, int, _SessionRecord]],
    ) -> None:
        record.watched = record.session.watched_nodes()
        self._place_watched(record, index, always)
        record.poll_at = record.session.next_poll_time()
        if record.poll_at != math.inf:
            heapq.heappush(wakeups, (record.poll_at, record.order, record))

    @staticmethod
    def _place_watched(
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
    ) -> None:
        if record.watched is None:
            always.append(record)
        else:
            for node in record.watched:
                index.setdefault(node, []).append(record)

    @staticmethod
    def _unplace(
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
    ) -> None:
        if record.watched is None:
            always.remove(record)
        else:
            for node in record.watched:
                watchers = index.get(node)
                if watchers is not None:
                    watchers.remove(record)
                    if not watchers:
                        del index[node]

    def _retire(
        self,
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
    ) -> None:
        """Remove a done/quarantined session from all dispatch structures."""
        self._unplace(record, index, always)
        record.live = False
        record.poll_at = math.inf  # invalidates any heap entries
