"""Fixture: rows emitted in set order (one DET004).

The campaign aggregator's grouping with its first-seen ``order`` list
replaced by a set of the JSON group keys: the row order of the written
aggregate then follows PYTHONHASHSEED, and the test suite passes.
"""


def group_rows(grouped, order):
    """One row per group, in hash order."""
    rows = []
    for group_key in set(order):
        rows.append(grouped[group_key])
    return rows
