"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AxiomViolation(ReproError):
    """An automaton violates one of the model axioms (S1-S5, C1-C4).

    The violated axiom name is stored in :attr:`axiom` and the offending
    piece of the automaton (state or transition) in :attr:`witness`.
    """

    def __init__(self, axiom: str, message: str, witness: object = None):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom
        self.witness = witness


class CompositionError(ReproError):
    """Raised when automata are not compatible for composition."""


class SignatureError(ReproError):
    """Raised when an action is used inconsistently with a signature."""


class TransitionError(ReproError):
    """Raised when a requested transition does not exist.

    Notably raised when an input action is applied to an automaton that
    has no transition for it (violating input-enabledness), or when an
    output/internal action fires without its precondition holding.
    """


class TimelockError(ReproError):
    """Raised when a system can neither take a step nor let time pass.

    A timelock indicates a modeling bug: some component's time-passage
    precondition blocks the advance of ``now`` but no enabled action can
    discharge the obligation.
    """


class ScheduleError(ReproError):
    """Raised when a scheduler produces an invalid decision."""


class ClockEnvelopeError(ReproError):
    """Raised when a clock trajectory leaves the ``C_eps`` envelope.

    The clock predicate ``C_eps`` requires ``|now - clock| <= eps`` in
    every reachable state; a clock driver that proposes a value outside
    the envelope is defective.
    """


class SimulationLimitError(ReproError):
    """Raised when a simulation exceeds its configured step budget."""


class SpecificationError(ReproError):
    """Raised when a problem specification is internally inconsistent."""


class LiveServiceError(ReproError):
    """Raised when the live register service misbehaves.

    Covers protocol violations on the wire (unexpected frame types,
    responses without a pending invocation), peers dropping connections
    mid-operation, and malformed service manifests.
    """


class CampaignError(ReproError):
    """Raised when a parameter-sweep campaign is misconfigured.

    Covers malformed grid specs (unknown axes, empty or duplicate axis
    values), checkpoint/manifest mismatches (resuming against a
    different grid), and worker tasks that cannot be resolved to an
    importable callable.
    """
