"""Zero-copy shared-memory transport for columnar event blocks.

The parallel layer ships immutable
:class:`~repro.contacts.events.EventBlock` contact windows to worker
processes. Serialising them (npz bytes through the task pickle) copies
every column once per chunk; with 32 chunks over a million-event window
that is thirty-two full copies of data that never changes.

:class:`SharedBlockArena` instead registers each block's numpy columns
once in a :mod:`multiprocessing.shared_memory` segment and hands out a
tiny :class:`BlockDescriptor` — ``(shm_name, kind, columns, nbytes)``
where each column is ``(name, dtype, shape, offset)``. Workers call
:func:`attach_block` to map the segment and rebuild the block as
read-only views over shared pages: no copy, no deserialisation, and the
mapping is cached per segment name so a warm worker pays the ``mmap``
once per sweep rather than once per chunk.

Lifecycle rules (see ARCHITECTURE.md "Memory & parallelism"):

* every arena is owned by one
  :class:`~repro.experiments.parallel.WorkerPool` — a caller's
  persistent pool, or the private pool an ``int`` ``workers`` opens for
  one call — and only ``WorkerPool.close()`` unlinks it, so segments
  disappear on normal completion, chunk errors and ``KeyboardInterrupt``
  alike;
* workers attach without registering the segment with the
  :mod:`multiprocessing.resource_tracker` (``track=False`` on 3.13+, a
  suppressed registration before), so the owner's ``unlink()`` is the
  only one the tracker sees and a SIGKILLed worker cannot trick it into
  unlinking a segment other workers still read;
* ``unlink()`` is idempotent and a :func:`weakref.finalize` backstop
  releases segments if an arena is dropped without an explicit unlink.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.contacts.events import EventBlock

__all__ = [
    "ARENA_PREFIX",
    "BlockDescriptor",
    "ColumnSpec",
    "SharedBlockArena",
    "attach_block",
    "detach_attached",
    "leaked_arena_segments",
]

#: Segment names start with this so leak checks (tests, the chaos
#: harness) can enumerate stray arenas under ``/dev/shm``.
ARENA_PREFIX = "reproarena"

#: Column payloads are aligned so every view starts on a cache line.
_ALIGN = 64


class ColumnSpec(NamedTuple):
    """Where one numpy column lives inside a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


class BlockDescriptor(NamedTuple):
    """Everything a worker needs to rebuild a block zero-copy.

    Picklable and tiny (a few hundred bytes) — this is what travels
    through the task pickle instead of the block's columns.
    """

    shm_name: str
    kind: str
    columns: Tuple[ColumnSpec, ...]
    nbytes: int


#: The one block kind an arena holds; attach rejects any other descriptor.
_EVENT_KIND = "event"


# ---------------------------------------------------------------------------
# Process-wide registries.
#
# _OWNED maps segment name -> the original block in the *owner* process:
# when a chunk runs inline (degraded pool, workers=1 layouts, 1-CPU
# hosts), attach_block short-circuits to the exact object that was
# registered instead of mapping the segment a second time.
#
# _ATTACHED caches (shm, block) per segment name in *worker* processes:
# a persistent pool's warm workers reuse the mapping across every chunk
# and sweep point that ships the same block.

_OWNED: Dict[str, object] = {}
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, object]] = {}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _create_segment(size: int) -> shared_memory.SharedMemory:
    for _ in range(8):
        name = f"{ARENA_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - 2^32 collision
            continue
    raise RuntimeError("could not allocate a unique shared-memory segment name")


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without resource-tracker registration.

    Python 3.13 grew ``track=False``. Older versions register every
    attach with the resource tracker, which would unlink the segment when
    *this* process exits even though the owner still needs it. Undoing
    that with ``unregister`` is not safe either: a pool forked after the
    owner's tracker started shares that tracker, so the worker's
    ``unregister`` drops the owner's entry and the owner's own ``unlink``
    then fails inside the tracker with a ``KeyError``. So the
    registration is suppressed for the attach instead. Swapping the
    module attribute is safe because workers attach from a single thread
    (in the owner, :func:`attach_block` returns the registered block).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    register = resource_tracker.register
    resource_tracker.register = lambda *args: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _release_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    """Close + unlink every segment in ``segments`` (idempotent)."""
    for name in list(segments):
        shm = segments.pop(name)
        _OWNED.pop(name, None)
        try:
            shm.close()
        except (OSError, ValueError, BufferError):  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - already reaped
            pass


class SharedBlockArena:
    """Owner-side registry of blocks exported through shared memory.

    One arena per :class:`~repro.experiments.parallel.WorkerPool`, for
    the pool's lifetime: unlinked in ``close()``, *kept* across
    ``terminate()`` pool restarts so requeued chunks can reattach.
    ``register`` is idempotent per block object, so fused sweeps that
    ship the same window at every grid point allocate one segment total.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._descriptors: Dict[int, BlockDescriptor] = {}
        # Registered blocks are retained so the id() keys above cannot be
        # recycled by the allocator while the arena is alive.
        self._retained: Dict[int, object] = {}
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    def register(self, block) -> BlockDescriptor:
        """Copy ``block``'s columns into shared memory once; descriptor back."""
        key = id(block)
        cached = self._descriptors.get(key)
        if cached is not None:
            return cached
        if not isinstance(block, EventBlock):
            raise TypeError(
                f"shared arenas hold EventBlock instances, not {type(block).__name__}"
            )
        arrays = [
            (name, np.ascontiguousarray(array))
            for name, array in (("times", block.times), ("a", block.a), ("b", block.b))
        ]
        specs: List[ColumnSpec] = []
        offset = 0
        for name, array in arrays:
            specs.append(
                ColumnSpec(
                    name=name,
                    dtype=np.dtype(array.dtype).str,
                    shape=tuple(int(dim) for dim in array.shape),
                    offset=offset,
                )
            )
            offset = _align(offset + array.nbytes)
        shm = _create_segment(max(offset, 1))
        for (name, array), spec in zip(arrays, specs):
            view = np.ndarray(
                spec.shape, dtype=array.dtype, buffer=shm.buf, offset=spec.offset
            )
            view[...] = array
        descriptor = BlockDescriptor(
            shm_name=shm.name,
            kind=_EVENT_KIND,
            columns=tuple(specs),
            nbytes=offset,
        )
        self._segments[shm.name] = shm
        self._descriptors[key] = descriptor
        self._retained[key] = block
        _OWNED[shm.name] = block
        return descriptor

    @property
    def segment_names(self) -> Tuple[str, ...]:
        return tuple(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def unlink(self) -> None:
        """Release every segment. Idempotent; safe after partial failure."""
        _release_segments(self._segments)
        self._descriptors.clear()
        self._retained.clear()


def attach_block(descriptor: BlockDescriptor):
    """Rebuild the block behind ``descriptor`` as read-only shared views.

    In the owner process this returns the originally registered block
    (no second mapping); in workers the mapping is cached per segment
    name, so repeated chunks against the same block are free.
    """
    owned = _OWNED.get(descriptor.shm_name)
    if owned is not None:
        return owned
    cached = _ATTACHED.get(descriptor.shm_name)
    if cached is not None:
        return cached[1]
    if descriptor.kind != _EVENT_KIND:
        raise ValueError(f"unknown shared-block kind {descriptor.kind!r}")
    shm = _attach_segment(descriptor.shm_name)
    arrays: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in descriptor.columns:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        arrays[name] = view
    block = EventBlock(times=arrays["times"], a=arrays["a"], b=arrays["b"])
    _ATTACHED[descriptor.shm_name] = (shm, block)
    return block


def detach_attached() -> None:
    """Drop this process's attachment cache (tests, worker teardown)."""
    for name in list(_ATTACHED):
        shm, _block = _ATTACHED.pop(name)
        try:
            shm.close()
        except (OSError, ValueError, BufferError):
            pass


def leaked_arena_segments() -> List[str]:
    """Arena segments still visible under ``/dev/shm`` (Linux only).

    The leak oracle for tests and the chaos harness: after every owner
    ``unlink()`` this must be empty no matter how many workers died.
    """
    base = Path("/dev/shm")
    if not base.is_dir():
        return []
    return sorted(path.name for path in base.glob(f"{ARENA_PREFIX}-*"))
