"""Message-delay models: adversaries for the ``[d1, d2]`` channels.

The channel automaton of Figure 1 delivers each message at some
nondeterministic time within ``[send + d1, send + d2]``. A
:class:`DelayModel` resolves that nondeterminism: the channel samples a
delivery time for each message on arrival. Correctness theorems quantify
over all resolutions, so tests exercise several models including the
extremes.
"""

from __future__ import annotations

import random
from typing import Tuple


class DelayModel:
    """Chooses per-message delays within ``[d1, d2]``."""

    def sample(
        self, edge: Tuple[int, int], message: object, send_time: float,
        d1: float, d2: float,
    ) -> float:
        """Return the chosen delay (must lie in ``[d1, d2]``)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ConstantFractionDelay(DelayModel):
    """Every message takes ``d1 + fraction * (d2 - d1)``."""

    def __init__(self, fraction: float = 0.5):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction

    def sample(self, edge, message, send_time, d1, d2) -> float:
        return d1 + self.fraction * (d2 - d1)


class MinimalDelay(ConstantFractionDelay):
    """Every message takes exactly ``d1`` (fastest network)."""

    def __init__(self):
        super().__init__(0.0)


class MaximalDelay(ConstantFractionDelay):
    """Every message takes exactly ``d2`` (slowest permitted network)."""

    def __init__(self):
        super().__init__(1.0)


class UniformDelay(DelayModel):
    """Seeded i.i.d. uniform delays over ``[d1, d2]``."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def sample(self, edge, message, send_time, d1, d2) -> float:
        return self._rng.uniform(d1, d2)


class AlternatingExtremesDelay(DelayModel):
    """Alternate ``d1`` and ``d2`` per message, per edge.

    A cheap adversary that maximizes reordering between consecutive
    messages on the same edge (the paper's channels may reorder).
    """

    def __init__(self):
        self._toggle = {}

    def sample(self, edge, message, send_time, d1, d2) -> float:
        flip = self._toggle.get(edge, False)
        self._toggle[edge] = not flip
        return d2 if flip else d1


class JitteredDelay(DelayModel):
    """Mostly-fast network with occasional near-``d2`` stragglers."""

    def __init__(self, seed: int = 0, straggler_probability: float = 0.1):
        if not 0.0 <= straggler_probability <= 1.0:
            raise ValueError("straggler_probability must be in [0, 1]")
        self._rng = random.Random(seed)
        self.straggler_probability = straggler_probability

    def sample(self, edge, message, send_time, d1, d2) -> float:
        if self._rng.random() < self.straggler_probability:
            return self._rng.uniform(d1 + 0.9 * (d2 - d1), d2)
        return self._rng.uniform(d1, d1 + 0.2 * (d2 - d1))
