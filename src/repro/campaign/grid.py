"""Grid specifications: the cartesian parameter space of a campaign.

A :class:`Grid` names, for each swept *axis*, the list of values to
explore — ``eps``, ``[d1, d2]``, ``n``, the register model, the
workload shape, the fault model, and a deterministic seed batch — plus
fixed run parameters (horizon, MMT step bound). Its
:meth:`~Grid.points` method expands the cartesian product into a
deterministic, stably ordered list of *grid points*: plain dicts a
campaign worker can run in any process.

Determinism contract
--------------------
- Axis order is canonical (:data:`AXES`), independent of spec order.
- Each point carries a ``key`` — compact canonical JSON of its config —
  that identifies it across runs (the checkpoint/resume identity).
- :meth:`Grid.grid_id` hashes the canonical spec, so a checkpoint file
  can refuse to resume against a different grid.

Specs load from dicts (:meth:`Grid.from_dict`) or files
(:meth:`Grid.from_file`): JSON always, TOML when the interpreter ships
``tomllib`` (Python 3.11+) — there are no third-party dependencies.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CampaignError

AXES: Tuple[str, ...] = (
    "model",
    "n",
    "eps",
    "d1",
    "d2",
    "c",
    "driver",
    "ops",
    "read_fraction",
    "fault",
    "p_drop",
    "plan_seed",
    "seed",
)
"""Canonical axis order; every grid point lists its config in this order."""

DEFAULTS: Dict[str, object] = {
    "model": "clock",
    "n": 3,
    "eps": 0.1,
    "d1": 0.2,
    "d2": 1.0,
    "c": 0.3,
    "driver": "mixed",
    "ops": 6,
    "read_fraction": 0.5,
    "fault": "none",
    "p_drop": 0.2,
    "plan_seed": 0,
    "seed": 0,
}
"""Default value of every axis not swept (one register experiment)."""

RUN_DEFAULTS: Dict[str, float] = {
    "horizon": 60.0,
    "step_bound": 0.05,
    "delta": 0.01,
}
"""Fixed (non-swept) run parameters and their defaults."""

MODELS = ("clock", "timed", "baseline", "mmt")
FAULTS = ("none", "lossy", "plan")
DRIVERS = (
    "perfect", "fast", "slow", "skewed", "mixed", "random", "drift",
    "sawtooth",
)


def point_key(config: Mapping[str, object]) -> str:
    """The canonical identity string of a grid point's config.

    Compact JSON with axes in :data:`AXES` order — byte-stable across
    runs, processes, and worker counts; checkpoints use it to recognize
    finished points.
    """
    ordered = {axis: config[axis] for axis in AXES}
    return json.dumps(ordered, separators=(",", ":"), sort_keys=False)


class Grid:
    """A cartesian sweep specification.

    Parameters
    ----------
    axes:
        mapping of axis name to the sequence of values to sweep; axes
        not named stay at their :data:`DEFAULTS` value. ``seed`` may
        also be given via ``seeds=k`` (expands to ``0..k-1``).
    run:
        fixed run parameters overriding :data:`RUN_DEFAULTS`.
    seeds:
        convenience for ``axes["seed"] = range(seeds)``.
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[object]],
        run: Optional[Mapping[str, float]] = None,
        seeds: Optional[int] = None,
    ):
        self.axes: Dict[str, List[object]] = {}
        for name, values in axes.items():
            if name not in AXES:
                raise CampaignError(
                    f"unknown grid axis {name!r}; known axes: {', '.join(AXES)}"
                )
            values = list(values)
            if not values:
                raise CampaignError(f"axis {name!r} has no values")
            if len(set(map(repr, values))) != len(values):
                raise CampaignError(f"axis {name!r} has duplicate values")
            self.axes[name] = values
        if seeds is not None:
            if "seed" in self.axes:
                raise CampaignError("give either a seed axis or seeds=, not both")
            if seeds < 1:
                raise CampaignError("seeds must be >= 1")
            self.axes["seed"] = list(range(seeds))
        self.run: Dict[str, float] = dict(RUN_DEFAULTS)
        for name, value in (run or {}).items():
            if name not in RUN_DEFAULTS:
                raise CampaignError(
                    f"unknown run parameter {name!r}; known: "
                    f"{', '.join(RUN_DEFAULTS)}"
                )
            self.run[name] = float(value)
        self._validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Grid":
        """Build a grid from a spec dict (the file format, parsed).

        Shape::

            {"grid": {"eps": [0.05, 0.1], "d2": [0.8, 1.0]},
             "seeds": 4,
             "run": {"horizon": 60.0}}

        Scalars in ``grid`` are promoted to one-element axes.
        """
        if not isinstance(payload, Mapping):
            raise CampaignError("grid spec must be a mapping")
        unknown = set(payload) - {"grid", "seeds", "run"}
        if unknown:
            raise CampaignError(
                f"unknown spec sections {sorted(unknown)}; "
                "expected 'grid', 'seeds', 'run'"
            )
        raw_axes = payload.get("grid") or {}
        if not isinstance(raw_axes, Mapping):
            raise CampaignError("'grid' section must be a mapping of axes")
        axes = {
            name: values if isinstance(values, (list, tuple)) else [values]
            for name, values in raw_axes.items()
        }
        seeds = payload.get("seeds")
        if seeds is not None and not isinstance(seeds, int):
            raise CampaignError("'seeds' must be an integer")
        return cls(axes, run=payload.get("run"), seeds=seeds)

    @classmethod
    def from_file(cls, path: str) -> "Grid":
        """Load a grid spec from a ``.json`` or ``.toml`` file."""
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError as exc:  # Python < 3.11: no stdlib TOML parser
                raise CampaignError(
                    "TOML specs need Python 3.11+ (tomllib); "
                    "use a JSON spec instead"
                ) from exc
            try:
                with open(path, "rb") as handle:
                    payload = tomllib.load(handle)
            except (OSError, tomllib.TOMLDecodeError) as exc:
                raise CampaignError(f"cannot read grid spec {path}: {exc}") from exc
        else:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                raise CampaignError(f"cannot read grid spec {path}: {exc}") from exc
        return cls.from_dict(payload)

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        for model in self.axes.get("model", [DEFAULTS["model"]]):
            if model not in MODELS:
                raise CampaignError(f"unknown model {model!r}; known: {MODELS}")
        for fault in self.axes.get("fault", [DEFAULTS["fault"]]):
            if fault not in FAULTS:
                raise CampaignError(f"unknown fault {fault!r}; known: {FAULTS}")
        for driver in self.axes.get("driver", [DEFAULTS["driver"]]):
            if driver not in DRIVERS:
                raise CampaignError(f"unknown driver {driver!r}; known: {DRIVERS}")
        for c in self.axes.get("c", [DEFAULTS["c"]]):
            if not (c == "u" or isinstance(c, (int, float))):
                raise CampaignError(
                    f"axis 'c' values must be numbers or 'u' (= 2*eps), got {c!r}"
                )

    # -- expansion -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of grid points (product of axis lengths)."""
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def canonical(self) -> Dict[str, object]:
        """The spec as a canonical dict (axes in :data:`AXES` order)."""
        return {
            "axes": {
                axis: list(self.axes[axis]) for axis in AXES if axis in self.axes
            },
            "run": {name: self.run[name] for name in sorted(self.run)},
        }

    def grid_id(self) -> str:
        """A short stable hash of the canonical spec (the campaign id)."""
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def points(self) -> List[Dict[str, object]]:
        """Expand the cartesian product into ordered grid-point dicts.

        Each point is ``{"index", "key", "config", "run"}`` — plain data,
        picklable, self-contained. Iteration order is the cartesian
        product with axes in canonical order, so point ``index`` is
        stable for a given spec.
        """
        swept = [axis for axis in AXES if axis in self.axes]
        points: List[Dict[str, object]] = []
        for index, combo in enumerate(
            itertools.product(*(self.axes[axis] for axis in swept))
        ):
            config = dict(DEFAULTS)
            config.update(dict(zip(swept, combo)))
            points.append(
                {
                    "index": index,
                    "key": point_key(config),
                    "config": config,
                    "run": dict(self.run),
                }
            )
        return points

    def __repr__(self) -> str:
        swept = {axis: len(vals) for axis, vals in self.axes.items()}
        return f"<Grid {self.grid_id()}: {self.size} points, axes {swept}>"
