"""Shared test helpers: scripted event sources, one-variant sweep grids."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.contacts.events import ContactEvent
from repro.core.multi_copy import SprayPolicy
from repro.experiments.runners import SweepVariant


class ScriptedEvents:
    """A deterministic contact-event source built from (time, a, b) tuples."""

    def __init__(self, events: Iterable[Tuple[float, int, int]]):
        self._events: List[ContactEvent] = sorted(
            (ContactEvent(time=t, a=a, b=b) for t, a, b in events),
            key=lambda e: e.time,
        )
        self._cursor = 0

    def events_until(self, horizon: float):
        while self._cursor < len(self._events):
            event = self._events[self._cursor]
            if event.time > horizon:
                return
            self._cursor += 1
            yield event


def feed(session, events: Sequence[Tuple[float, int, int]]) -> None:
    """Push scripted contacts straight into a session, in time order."""
    for t, a, b in sorted(events):
        session.on_contact(ContactEvent(time=t, a=a, b=b))


def one_variant(
    group_size: int,
    onion_routers: int,
    copies: int = 1,
    spray_policy: SprayPolicy = SprayPolicy.SOURCE,
) -> List[SweepVariant]:
    """A single-configuration grid for the fused sweep runners."""
    return [
        SweepVariant(
            label="only",
            group_size=group_size,
            onion_routers=onion_routers,
            copies=copies,
            spray_policy=spray_policy,
        )
    ]
