"""Spans around calls into the repo's layers, recorded from outside.

The traced pass of the suite attributes host time to the repo's own
modules without editing them: :class:`Tracer` replaces a function on its
owner (a class or a module) with a timing wrapper and puts the original
back on exit. Only attributes the owner *itself* defines are wrapped --
``Simulator`` decides ``_EntityInfo.advances``/``probe_always`` by
comparing ``type(entity).advance``/``accepts`` with ``Entity``'s, so
adding an inherited method to a subclass would change what the engine
does. Wrappers are installed before a run starts because the engine
binds ``recorder.record``, ``scheduler.pick`` and friends to locals at
the top of ``run_until``.

Every call of a wrapped function is one span; the span that caused it is
the one open on top of the stack. A sim repetition makes millions of
them, so a span is folded into its layer as it closes instead of being
kept: what stays in memory is one record per layer (exact call count,
inclusive ns, self ns), read out when the pass ends. Self time is a
span's duration minus the spans opened directly under it, so the self
times of all layers under a root add up to the root's duration.
"""

from time import perf_counter_ns


class Layer:
    """Folded spans of one wrapped function."""

    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0


class Tracer:
    """Installs timing wrappers; ``with Tracer() as t`` restores them."""

    def __init__(self):
        self.layers = {}
        self._patched = []  # (owner, attribute, original)
        self._open = []  # per open span: ns spent in its direct children

    def calls(self, *names):
        """Exact number of calls over the named layers."""
        return sum(self.layers[n].calls for n in names if n in self.layers)

    def seconds(self, *names):
        """Inclusive host seconds over the named layers.

        Only meaningful as a sum when the layers never nest in each
        other; use :meth:`self_seconds` for a group that does.
        """
        return sum(self.layers[n].ns for n in names if n in self.layers) / 1e9

    def self_seconds(self, *names):
        """Host seconds in the named layers' own code (union busy time)."""
        return sum(
            self.layers[n].self_ns for n in names if n in self.layers
        ) / 1e9

    def wrap(self, owner, attribute, name, probe=None):
        """Time ``owner.attribute`` into layer ``name``.

        ``probe(args, result)``, when given, runs after the span closed
        (so its cost lands in the caller's self time, not the layer's)
        and lets a workload count what the call did -- non-empty enabled
        sets, candidates per pick, frame bytes.
        """
        try:
            original = vars(owner)[attribute]
        except KeyError:
            raise AttributeError(
                f"{owner!r} does not itself define {attribute!r}; wrapping "
                f"an inherited attribute would change engine behaviour"
            ) from None
        layer = self.layers.setdefault(name, Layer())
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                layer.calls += 1
                layer.ns += elapsed
                layer.self_ns += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def restore(self):
        """Put every original back and check that it is back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
            if vars(owner)[attribute] is not original:
                raise RuntimeError(
                    f"could not restore {owner!r}.{attribute}"
                )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
