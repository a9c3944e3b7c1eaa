"""Contact-stream impairments: thinning, delay jitter, duplication.

The paper assumes every contact can carry a full bundle. Real radios miss
opportunities (short contacts, interference, busy channels). The cleanest
way to model a per-contact transfer-failure probability ``p`` is to *thin*
the event stream: each contact is independently dropped with probability
``p``, which — by the thinning property of Poisson processes — is exactly
equivalent to scaling every contact rate by ``(1 − p)``. That equivalence
makes impairments analytically predictable: the Eq. 4–7 models stay valid
with rescaled rates, and the tests verify it.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.contacts.events import ContactEvent
from repro.contacts.graph import ContactGraph
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_probability


class ThinnedContactProcess:
    """Drop each contact independently with probability ``drop_prob``.

    Wraps any event source (sampled or trace replay). Equivalent, for
    Poisson contact processes, to scaling all rates by ``1 − drop_prob``
    — see :func:`thinned_graph` for the matching analytical substrate.
    """

    def __init__(self, inner, drop_prob: float, rng: RandomSource = None):
        check_probability(drop_prob, "drop_prob")
        self._inner = inner
        self._drop_prob = drop_prob
        self._rng = ensure_rng(rng)

    def events_until(self, horizon: float) -> Iterator[ContactEvent]:
        """Yield the surviving contacts of the wrapped stream, in order."""
        for event in self._inner.events_until(horizon):
            if self._rng.random() >= self._drop_prob:
                yield event


class JitteredContactProcess:
    """Add independent non-negative jitter to every contact time.

    Models detection latency (neighbour discovery beacons): a contact is
    usable only some seconds after the nodes are actually in range. Events
    are re-sorted within a bounded buffer window, so the output remains
    chronological as long as ``max_jitter`` is respected.
    """

    def __init__(self, inner, max_jitter: float, rng: RandomSource = None):
        check_non_negative(max_jitter, "max_jitter")
        self._inner = inner
        self._max_jitter = max_jitter
        self._rng = ensure_rng(rng)
        self._pending: list[tuple[float, int, int]] = []

    def events_until(self, horizon: float) -> Iterator[ContactEvent]:
        """Yield jittered contacts, re-sorted to stay chronological.

        The reorder buffer is a heap of ``(time, a, b)`` tuples: each event
        costs ``O(log b)`` for a buffer of ``b`` in-flight events instead
        of the ``O(b log b)`` of re-sorting a list per arrival. Contacts
        jittered past ``horizon`` stay buffered for the next call, so
        successive windowed reads yield exactly the one-shot stream.
        """
        pending = self._pending
        for event in self._inner.events_until(horizon):
            jitter = self._rng.uniform(0.0, self._max_jitter)
            heapq.heappush(pending, (event.time + jitter, event.a, event.b))
            # flush events that can no longer be displaced: the source is
            # chronological, so nothing later can land before event.time
            while pending and pending[0][0] <= event.time:
                time, a, b = heapq.heappop(pending)
                yield ContactEvent(time=time, a=a, b=b)
        while pending and pending[0][0] <= horizon:
            time, a, b = heapq.heappop(pending)
            yield ContactEvent(time=time, a=a, b=b)


def thinned_graph(graph: ContactGraph, drop_prob: float) -> ContactGraph:
    """The analytical counterpart of thinning: rates scaled by ``1 − p``.

    Feeding this graph to the Eq. 4–7 models predicts exactly what the
    protocol experiences on a :class:`ThinnedContactProcess`.
    """
    check_probability(drop_prob, "drop_prob")
    return ContactGraph(graph.rates * (1.0 - drop_prob))
