"""Fixture: DET004-clean counterparts."""


def group_rows(grouped, order):
    """First-seen order, as the campaign aggregator keeps it."""
    return [grouped[group_key] for group_key in order]


def emit_all(sink, names):
    """Sorted before iterating; dict iteration and folds are exempt."""
    for name in sorted(set(names)):
        sink.emit(name)
    table = {"a": 1, "b": 2}
    for key in table:
        sink.emit(key)
    return min({len(name) for name in names} or {0})
