"""Actions and action sets.

The paper's automata communicate through named, parameterized actions such
as ``SENDMSG_i(j, m)`` (Section 3.1). We represent an action occurrence as
an immutable :class:`Action` with a name and a tuple of parameters; the
subscripted node index is, by convention, the first parameter. So the
paper's ``SENDMSG_i(j, m)`` is ``Action("SENDMSG", (i, j, m))``.

Action *signatures* (Definition 2.1) partition possibly-infinite families
of actions, so membership must be described intensionally. The
:class:`ActionSet` hierarchy provides finite sets, name/parameter patterns,
arbitrary predicates, and unions, all sharing a ``contains`` test.

The distinguished time-passage action ``nu`` (Definition 2.1) is exposed as
the module-level constant :data:`NU`. It is never a member of any visible,
input, output, or internal action set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Tuple


@dataclass(frozen=True)
class Action:
    """A single (non-time-passage) action occurrence.

    Parameters are stored as a tuple so actions are hashable and can be
    used as dictionary keys, set members, and in recorded traces.

    Examples
    --------
    >>> Action("READ", (2,))
    READ_2()
    >>> Action("SENDMSG", (0, 1, "hello"))
    SENDMSG_0(1, 'hello')
    """

    name: str
    params: Tuple = ()

    @property
    def node(self) -> Optional[int]:
        """The node index of a node-subscripted action, if any.

        By convention the first parameter of node-local actions is the
        node index. Returns ``None`` for parameterless actions.
        """
        if self.params and isinstance(self.params[0], int):
            return self.params[0]
        return None

    def __repr__(self) -> str:
        params = self.params
        if not params:
            return f"{self.name}()"
        return f"{self.name}_{params[0]!r}({', '.join(map(repr, params[1:]))})"

    def __str__(self) -> str:
        return self.__repr__()


class _TimePassage:
    """The unique time-passage action ``nu`` (Definition 2.1).

    A singleton: every comparison is by identity. ``nu`` carries no
    parameters at the theory level; the amount of time passed is encoded
    in the ``now`` components of the surrounding states.
    """

    _instance: Optional["_TimePassage"] = None

    def __new__(cls) -> "_TimePassage":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "nu"

    def __hash__(self) -> int:
        return hash("__time_passage_nu__")


NU = _TimePassage()
"""The time-passage action ``nu``."""


class ActionSet:
    """Abstract base for (possibly infinite) sets of actions.

    Subclasses implement :meth:`contains`. The ``in`` operator works via
    ``__contains__``, and sets may be combined with ``|``.
    """

    def contains(self, action: Action) -> bool:
        """Whether the (non-``nu``) action belongs to this set."""
        raise NotImplementedError

    def __contains__(self, action: object) -> bool:
        if action is NU:
            return False
        if not isinstance(action, Action):
            return False
        return self.contains(action)

    def __or__(self, other: "ActionSet") -> "ActionSet":
        return UnionActionSet((self, other))

    def is_empty_hint(self) -> bool:
        """Best-effort emptiness check (used only for error messages)."""
        return False


class EmptyActionSet(ActionSet):
    """The empty set of actions."""

    def contains(self, action: Action) -> bool:
        return False

    def is_empty_hint(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "EmptyActionSet()"


@dataclass(frozen=True)
class FiniteActionSet(ActionSet):
    """An explicit, finite set of actions."""

    actions: frozenset

    def __init__(self, actions: Iterable[Action]):
        object.__setattr__(self, "actions", frozenset(actions))

    def contains(self, action: Action) -> bool:
        try:
            return action in self.actions
        except TypeError:
            # unhashable parameter: it cannot be one of the (hashed) members
            return False

    def is_empty_hint(self) -> bool:
        return not self.actions

    def __repr__(self) -> str:
        return f"FiniteActionSet({sorted(map(str, self.actions))})"


@dataclass(frozen=True)
class ActionPattern:
    """Matches actions by name and (optionally) by leading parameters.

    ``ActionPattern("SENDMSG", (0, 1))`` matches every ``SENDMSG`` action
    whose first two parameters are ``0`` and ``1`` — i.e. the whole family
    ``SENDMSG_0(1, m)`` for every message ``m``.

    A parameter position may be the wildcard :data:`ANY` to match any
    value at that position while still constraining later positions.
    """

    name: str
    prefix: Tuple = ()

    def matches(self, action: Action) -> bool:
        """Whether the action's name and leading parameters fit."""
        if action.name != self.name:
            return False
        if len(action.params) < len(self.prefix):
            return False
        for want, got in zip(self.prefix, action.params):
            if want is ANY:
                continue
            if want != got:
                return False
        return True

    def __repr__(self) -> str:
        inner = ", ".join("*" if p is ANY else repr(p) for p in self.prefix)
        return f"{self.name}({inner}, ...)"


class _Any:
    """Wildcard marker for :class:`ActionPattern` positions."""

    _instance: Optional["_Any"] = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()
"""Wildcard parameter for :class:`ActionPattern`."""


@dataclass(frozen=True)
class PatternActionSet(ActionSet):
    """The set of all actions matching at least one pattern."""

    patterns: Tuple[ActionPattern, ...]

    def __init__(self, patterns: Iterable[ActionPattern]):
        object.__setattr__(self, "patterns", tuple(patterns))

    def contains(self, action: Action) -> bool:
        return any(p.matches(action) for p in self.patterns)

    def is_empty_hint(self) -> bool:
        return not self.patterns

    def __repr__(self) -> str:
        return f"PatternActionSet({list(self.patterns)})"


class PredicateActionSet(ActionSet):
    """The set of actions satisfying an arbitrary predicate.

    Use sparingly; prefer :class:`PatternActionSet` where possible since
    patterns produce better diagnostics.
    """

    def __init__(self, predicate: Callable[[Action], bool], label: str = "<predicate>"):
        self._predicate = predicate
        self._label = label

    def contains(self, action: Action) -> bool:
        return bool(self._predicate(action))

    def __repr__(self) -> str:
        return f"PredicateActionSet({self._label})"


@dataclass(frozen=True)
class UnionActionSet(ActionSet):
    """The union of several action sets."""

    members: Tuple[ActionSet, ...] = field(default_factory=tuple)

    def __init__(self, members: Iterable[ActionSet]):
        flat = []
        for m in members:
            if isinstance(m, UnionActionSet):
                flat.extend(m.members)
            elif isinstance(m, EmptyActionSet):
                continue
            else:
                flat.append(m)
        object.__setattr__(self, "members", tuple(flat))

    def contains(self, action: Action) -> bool:
        return any(action in m for m in self.members)

    def is_empty_hint(self) -> bool:
        return all(m.is_empty_hint() for m in self.members)

    def __repr__(self) -> str:
        return f"UnionActionSet({list(self.members)})"


def action_set(*specs) -> ActionSet:
    """Convenience constructor for action sets.

    Accepts any mixture of:

    - :class:`Action` instances (collected into a finite set),
    - :class:`ActionPattern` instances,
    - strings (treated as a pattern matching every action of that name),
    - ``(name, prefix_tuple)`` pairs (treated as patterns),
    - existing :class:`ActionSet` instances.

    >>> s = action_set("READ", ("SENDMSG", (0,)))
    >>> Action("READ", (3,)) in s
    True
    >>> Action("SENDMSG", (1, 0, "m")) in s
    False
    """
    finite = []
    patterns = []
    sets = []
    for spec in specs:
        if isinstance(spec, Action):
            finite.append(spec)
        elif isinstance(spec, ActionPattern):
            patterns.append(spec)
        elif isinstance(spec, str):
            patterns.append(ActionPattern(spec))
        elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
            patterns.append(ActionPattern(spec[0], tuple(spec[1])))
        elif isinstance(spec, ActionSet):
            sets.append(spec)
        else:
            raise TypeError(f"cannot interpret {spec!r} as an action set spec")
    if finite:
        sets.append(FiniteActionSet(finite))
    if patterns:
        sets.append(PatternActionSet(patterns))
    if not sets:
        return EmptyActionSet()
    if len(sets) == 1:
        return sets[0]
    return UnionActionSet(sets)
