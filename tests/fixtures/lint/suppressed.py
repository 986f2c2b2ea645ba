"""Fixture: both suppression comment forms, plus unsuppressed findings."""


def same_line(sink, names):
    """Same-line suppression."""
    for name in set(names):  # repro: lint-ignore[DET004] -- test fixture
        sink.emit(name)


def standalone_above(sink, names):
    """Standalone-comment suppression, stacked over a second comment."""
    # repro: lint-ignore[DET004] -- test fixture
    # an ordinary comment between the suppression and the code
    for name in set(names):
        sink.emit(name)


def wrong_rule(sink, names):
    """A suppression for a different rule does not cover this DET004."""
    for name in set(names):  # repro: lint-ignore[ISO003] -- wrong rule on purpose
        sink.emit(name)


def marker_in_string(names):
    """A marker inside a string literal is not a comment."""
    return list(set(names)), "# repro: lint-ignore[DET004] -- not a comment"
