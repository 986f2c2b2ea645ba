"""Fixture: duplicates that alias the sent payload (one ISO003).

The lossy channel's duplication loop with the copy moved to the first
delivery: the second and later duplicates share the sender's object,
so a receiver mutating one delivery corrupts the copies still in
flight, and the test suite (which duplicates only once) passes.
"""

import copy


class DuplicatingChannel(Entity):  # noqa: F821 -- parsed, never imported
    """Buffers ``copies`` deliveries of each sent message."""

    def apply_input(self, state, action, now):
        """All but the first delivery alias ``action.params[2]``."""
        message = action.params[2]
        for k in range(self.fault_model.copies(now)):
            payload = copy.deepcopy(message) if k == 0 else message
            state.buffer.append(InTransit(payload, now, now + self.d2))  # noqa: F821
