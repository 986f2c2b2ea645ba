"""The paper's experiment suite: the one definition of "reproduced".

:mod:`repro.experiments.paper` holds one ``exp_*`` function per paper
artifact (figures, theorems, lemmas, tables, ablations, extensions) and
the :data:`ALL_EXPERIMENTS` registry mapping experiment ids to them.
This package turns one into a result record (:func:`run_experiment`),
renders a record as the two files committed under
``benchmarks/results/`` (:func:`write_result` — the only writer; both
``benchmarks/run_all.py`` and ``tests/test_experiments.py`` go through
it), and adds :func:`run_experiment_task`, a campaign-runner task so
``run_all.py --workers N`` runs the experiments on N worker processes.

Record and files are functions of the code alone: no wall time, no
host, no date. That is what lets tier-1 require the committed files to
equal a fresh run byte for byte.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from typing import Dict

from repro.analysis.report import Table
from repro.errors import CampaignError
from repro.experiments.paper import ALL_EXPERIMENTS

RESULT_FORMAT = "repro-bench-result"
"""Format tag of the per-experiment JSON result files."""

RESULT_VERSION = 1


def _json_safe(value):
    """A best-effort JSON-representable copy of an arbitrary value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(item) for item in value]
    return repr(value)


def experiment_config(exp_id: str) -> Dict[str, object]:
    """The experiment function's keyword defaults (its configuration)."""
    function = ALL_EXPERIMENTS[exp_id]
    return {
        name: _json_safe(parameter.default)
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


def run_experiment(exp_id: str) -> Dict[str, object]:
    """Run one experiment; return its JSON-ready result record.

    The record carries the experiment's configuration (the harness
    function's keyword defaults), the comparison table and the shapes;
    ``ok`` is the conjunction of the boolean shapes, which are the
    experiment's acceptance conditions.
    """
    if exp_id not in ALL_EXPERIMENTS:
        raise CampaignError(
            f"unknown experiment {exp_id!r}; known: {sorted(ALL_EXPERIMENTS)}"
        )
    table, shapes = ALL_EXPERIMENTS[exp_id]()
    return {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "exp_id": exp_id,
        "config": experiment_config(exp_id),
        "table": {
            "title": table.title,
            "columns": list(table.columns),
            "rows": [_json_safe(row) for row in table.rows],
            "notes": list(table.notes),
        },
        "shapes": _json_safe(shapes),
        "ok": all(
            value for value in shapes.values() if isinstance(value, bool)
        ),
    }


def write_result(result: Dict[str, object], directory: str) -> str:
    """Write ``<exp_id>.txt`` and ``<exp_id>.json`` into ``directory``.

    Returns the rendered table (the ``.txt`` without its final newline).
    """
    table = Table(result["table"]["title"], result["table"]["columns"])
    for row in result["table"]["rows"]:
        table.add_row(*row)
    for note in result["table"]["notes"]:
        table.add_note(note)
    text = table.render()
    stem = os.path.join(directory, result["exp_id"])
    with open(stem + ".txt", "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return text


def run_experiment_task(point: Dict) -> Dict[str, object]:
    """Campaign-runner task: run the experiment named by ``point["exp"]``.

    Matches the :class:`repro.campaign.CampaignRunner` task contract —
    returns ``{"result": ..., "wall": ...}``. The wall time is reported
    beside the record, never inside it.
    """
    # wall-time bracket around the experiment; the figure is printed by
    # run_all.py and stored nowhere
    start = time.perf_counter()
    result = run_experiment(point["exp"])
    wall = time.perf_counter() - start
    return {"result": result, "wall": wall}


__all__ = [
    "ALL_EXPERIMENTS",
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "experiment_config",
    "run_experiment",
    "run_experiment_task",
    "write_result",
]
