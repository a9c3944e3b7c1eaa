"""Message-dropping compromised relays (greyhole / blackhole).

The paper's adversary only *observes* (a compromised relay discloses the
next hop, Eq. 1); practical onion-routing threat models — Ando et al.,
*Practical and Provably Secure Onion Routing* — additionally let a
compromised relay **drop** the bundles it is asked to forward. A *greyhole*
drops each received copy independently with probability ``p``; a
*blackhole* is the ``p = 1`` special case. End hosts never drop: the
behaviour applies to relay receives only (the protocol sessions enforce
that), so delivery to the destination always counts.

The matching analytical degradation (per-hop survival factors on Eq. 6/7)
lives in :mod:`repro.analysis.robustness`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.adversary.compromise import CompromiseModel
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_probability


class DroppingRelays:
    """A compromised set whose members drop received copies with prob ``p``.

    Parameters
    ----------
    compromised:
        Node ids acting as greyholes.
    drop_prob:
        Per-received-copy drop probability ``p``; ``1.0`` makes every
        member a blackhole.
    rng:
        Source for the per-receive Bernoulli draws. A graph sweep
        (:func:`~repro.experiments.runners.run_fused_graph_sweep`) uses
        only the set and ``p`` and draws from a stream of its own.
    """

    def __init__(
        self,
        compromised: Iterable[int],
        drop_prob: float,
        rng: RandomSource = None,
    ):
        check_probability(drop_prob, "drop_prob")
        self._compromised: FrozenSet[int] = frozenset(compromised)
        self._drop_prob = float(drop_prob)
        self._rng = ensure_rng(rng)

    @property
    def compromised(self) -> FrozenSet[int]:
        """The dropping relay set."""
        return self._compromised

    @property
    def drop_prob(self) -> float:
        """Per-received-copy drop probability ``p``."""
        return self._drop_prob

    def is_compromised(self, node: int) -> bool:
        """Whether ``node`` is a dropping relay."""
        return node in self._compromised

    def drops(self, receiver: int) -> bool:
        """Sample whether a copy handed to ``receiver`` is destroyed."""
        if receiver not in self._compromised or self._drop_prob == 0.0:
            return False
        if self._drop_prob >= 1.0:
            return True
        return bool(self._rng.random() < self._drop_prob)

    @classmethod
    def sample(
        cls,
        n: int,
        compromise_rate: float,
        drop_prob: float,
        rng: RandomSource = None,
        protected: Iterable[int] = (),
    ) -> "DroppingRelays":
        """Draw the dropping set the way the paper draws compromised nodes.

        Uses :class:`~repro.adversary.compromise.CompromiseModel`'s
        fixed-count sampler (exactly ``round(c)`` relays, uniformly);
        ``protected`` excludes e.g. the endpoints under study.
        """
        generator = ensure_rng(rng)
        compromised = CompromiseModel(
            n, compromise_rate, protected=protected
        ).sample_fixed_count(rng=generator)
        return cls(compromised, drop_prob, rng=generator)

    @classmethod
    def blackholes(
        cls, compromised: Iterable[int], rng: RandomSource = None
    ) -> "DroppingRelays":
        """Relays that drop everything they receive (``p = 1``)."""
        return cls(compromised, 1.0, rng=rng)

    def __repr__(self) -> str:
        return (
            f"DroppingRelays(compromised={len(self._compromised)}, "
            f"drop_prob={self._drop_prob:g})"
        )
