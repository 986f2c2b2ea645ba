"""Measurement and reporting helpers for benchmarks and examples.

- :mod:`repro.analysis.stats` — summaries (mean/percentiles/stdev);
- :mod:`repro.analysis.report` — fixed-column text tables;
- :mod:`repro.analysis.timeline` — ASCII per-node timelines;
- :mod:`repro.analysis.fuzz` — adversary-grid sweeps (empirical
  "for all adversaries").
"""

from repro.analysis.fuzz import AdversaryChoice, FuzzReport, adversary_grid, fuzz
from repro.analysis.report import Table, format_row
from repro.analysis.stats import Summary, summarize
from repro.analysis.timeline import render_timeline

__all__ = [
    "Summary", "summarize", "Table", "format_row",
    "render_timeline",
    "AdversaryChoice", "FuzzReport", "adversary_grid", "fuzz",
]
