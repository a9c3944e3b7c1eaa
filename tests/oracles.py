"""Reference implementations the production paths are checked against.

The simulation engine has one run path: kernels plus the columnar object
loop, fed by :func:`~repro.contacts.events.stream_event_blocks`. These
oracles are the loops it replaced, kept only to prove equivalence:

* :class:`BroadcastEngine` — the original O(events × sessions) scan: every
  live session sees every event, no interest index, no kernels.
* :class:`IteratorEngine` — the per-event indexed loop: the interest
  index and wakeup heap, fed one :class:`~repro.contacts.events.ContactEvent`
  at a time by the source's lazy ``events_until``.

Both dispatch the sessions touched by one event in registration order and
read the source lazily, stopping the moment every session is done.
:func:`runners_using` swaps either into the batch runners, so a seeded
batch can be replayed under an oracle and compared field by field.

:func:`legacy_security_montecarlo` is the security counterpart: the
original draw-per-trial Monte Carlo loop that custom compromise models
implementing only ``sample()`` used to run through.
"""

from __future__ import annotations

import contextlib
import heapq
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.adversary.compromise import CompromiseModel
from repro.adversary.kernel import SecuritySweepVariant
from repro.adversary.observer import observed_path_anonymity
from repro.adversary.tracer import PathTracer
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.experiments import runners
from repro.experiments.runners import sample_endpoints, select_overlapping_route
from repro.sim.engine import _ORDER_KEY, SimulationEngine, _SessionRecord
from repro.utils.rng import ensure_rng


class BroadcastEngine(SimulationEngine):
    """Every live session sees every event (the original loop)."""

    def run(self) -> None:
        if not self._sessions:
            raise RuntimeError("no protocol sessions registered")
        self._count_mode(
            "broadcast", sum(1 for s in self._sessions if self._is_live(s))
        )
        for event in self._events.events_until(self._horizon):
            self._events_processed += 1
            all_done = True
            for session in self._sessions:
                if id(session) in self._quarantined_ids:
                    continue  # treated as done
                if session.done:
                    continue
                try:
                    session.on_contact(event)
                except Exception as error:
                    if self._on_error == "raise":
                        raise
                    self._quarantine(session, error)
                    continue
                all_done = all_done and session.done
            if all_done:
                return


class IteratorEngine(SimulationEngine):
    """The interest-indexed loop fed one event object at a time."""

    def run(self) -> None:
        if not self._sessions:
            raise RuntimeError("no protocol sessions registered")
        index, always, wakeups = {}, [], []
        live = self._place_sessions(
            enumerate(self._sessions), index, always, wakeups
        )
        self._count_mode("iterator", live)
        if live == 0:
            return

        for event in self._events.events_until(self._horizon):
            self._events_processed += 1
            due: List[_SessionRecord] = []
            while wakeups and wakeups[0][0] <= event.time:
                poll_at, _, record = heapq.heappop(wakeups)
                # Lazy invalidation: skip entries superseded by a newer
                # poll time or belonging to a retired session.
                if record.live and record.poll_at == poll_at:
                    due.append(record)

            watching_a = index.get(event.a)
            watching_b = index.get(event.b)
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

            for record in candidates:
                if not record.live:
                    continue
                session = record.session
                try:
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
                # Re-read the contract: custody may have moved.
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
                    # Popped but unchanged (event at the exact poll time was
                    # a no-op): re-arm so the next event still wakes it.
                    heapq.heappush(wakeups, (new_poll, record.order, record))
            if live == 0:
                return


ORACLES = {"broadcast": BroadcastEngine, "iterator": IteratorEngine}


@contextlib.contextmanager
def runners_using(engine_cls):
    """Build every batch runner's engine from ``engine_cls`` meanwhile."""
    original = runners.SimulationEngine
    runners.SimulationEngine = engine_cls
    try:
        yield
    finally:
        runners.SimulationEngine = original


def sample_copy_paths(
    route: OnionRoute, copies: int, rng: np.random.Generator
) -> List[List[int]]:
    """Sample the member each copy traverses in every onion group.

    Copies occupy *distinct* members of a group while enough members exist
    (the protocol's ``Forward()`` predicate never places two live copies on
    one node); beyond that the assignment wraps around.
    """
    paths = [[route.source] for _ in range(copies)]
    for members in route.groups:
        order = rng.permutation(len(members))
        for copy_index in range(copies):
            member = members[order[copy_index % len(members)]]
            paths[copy_index].append(int(member))
    return paths


def legacy_security_montecarlo(
    n: int,
    group_size: int,
    variants: Sequence[SecuritySweepVariant],
    model: CompromiseModel,
    trials: int,
    rng,
    overlapping: bool = False,
) -> Tuple[float, ...]:
    """Fully per-trial Monte Carlo driven by ``model.sample()`` alone.

    Each variant runs the original draw-per-trial loop; the model's own
    rate is the only one it can realise, so mismatched variant rates fail
    loudly instead of silently sampling the wrong adversary. Returns the
    flattened per-variant means like
    :func:`~repro.experiments.runners.security_sweep_montecarlo`.
    """
    for variant in variants:
        if variant.compromise_rate != model.rate:
            raise ValueError(
                f"compromise model {type(model).__name__} is pinned to "
                f"rate={model.rate}; sweep variant {variant.label!r} asks "
                f"for rate={variant.compromise_rate}"
            )
    generator = ensure_rng(rng)
    flat: List[float] = []
    for variant in variants:
        eta = variant.onion_routers + 1
        directory = (
            None
            if overlapping
            else OnionGroupDirectory(n, group_size, rng=generator)
        )
        traceable = np.empty(trials)
        anonymity = np.empty(trials)
        for trial in range(trials):
            source, destination = sample_endpoints(n, generator)
            if overlapping:
                route = select_overlapping_route(
                    n,
                    source,
                    destination,
                    variant.onion_routers,
                    group_size,
                    generator,
                )
            else:
                route = directory.select_route(
                    source, destination, variant.onion_routers, rng=generator
                )
            compromised = model.sample(rng=generator)
            paths = sample_copy_paths(route, variant.copies, generator)
            tracer = PathTracer(compromised)
            traceable[trial] = tracer.traceable_rate(paths[0])
            anonymity[trial] = observed_path_anonymity(
                paths, compromised, n=n, eta=eta, group_size=group_size
            )
        flat.append(float(traceable.sum() / trials))
        flat.append(float(anonymity.sum() / trials))
    return tuple(flat)
