"""Fixture: ISO003-clean entity classes."""

import copy


class CopyingEntity(Entity):  # noqa: F821 -- parsed, never imported
    """Copies every payload it retains."""

    def apply_input(self, state, action, now):
        """Each delivery is a fresh object (no ISO003)."""
        message = action.params[2]
        for k in range(state.copies):
            state.buffer.append(copy.deepcopy(message))
        state.count += len(action.params)
        state.last_kind = action.name

    def fire(self, state, action, now):
        """Retains a fresh object built from the payload, not the payload."""
        state.log.append(action.params[0] + 1)
