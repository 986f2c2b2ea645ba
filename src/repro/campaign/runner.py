"""The campaign runner: distribute grid points across a worker pool.

:class:`CampaignRunner` executes a list of grid points (any picklable
dicts carrying ``index`` and ``key``) through a *task* — a module-level
callable, or a ``"module:function"`` reference resolved in the worker —
and returns one :class:`Outcome` per point, sorted by index.

Worker model
------------
One process per task attempt (``fork`` start method where available,
``spawn`` otherwise), up to ``workers`` in flight, each reporting back
over its own pipe. This deliberately avoids pool-recycling machinery:
simulation points are coarse-grained (milliseconds to minutes), and a
dedicated process gives three properties pools make awkward:

- **per-task timeouts** — a hung point is ``terminate()``-ed (then
  ``kill()``-ed) without poisoning a shared pool;
- **crash containment** — a worker dying abruptly (segfault,
  ``os._exit``, OOM kill) surfaces as EOF on its pipe and triggers a
  bounded retry of just that point, up to ``retries`` extra attempts;
- **graceful degradation** — if processes cannot be started at all
  (restricted sandboxes), the runner logs a warning and finishes the
  remaining points serially in-process.

With ``workers <= 1`` the runner is serial from the start: the task runs
in-process (``_serial`` is set on the point so chaos hooks simulate
crashes with exceptions instead of killing the interpreter). Timeouts
are not enforceable serially and are ignored there.

Checkpoint integration: points whose ``key`` already appears in the
given :class:`~repro.campaign.checkpoint.Checkpoint` are not rerun —
their stored result is replayed as a ``"cached"`` outcome, which is what
makes interrupted campaigns resume byte-identically.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.campaign.checkpoint import Checkpoint
from repro.errors import CampaignError

TaskRef = Union[str, Callable[[Dict], Dict]]

DEFAULT_TASK = "repro.campaign.worker:run_point"
"""The default task: run one register grid point."""

_POLL_SECONDS = 0.05
_KILL_GRACE_SECONDS = 5.0


def resolve_task(ref: TaskRef) -> Callable[[Dict], Dict]:
    """Resolve a task reference to a callable.

    Accepts a callable (returned unchanged) or a ``"module:function"``
    string, which must name an importable module-level callable — the
    form that survives pickling into ``spawn``-ed workers.
    """
    if callable(ref):
        return ref
    module_name, sep, func_name = str(ref).partition(":")
    if not sep or not module_name or not func_name:
        raise CampaignError(
            f"task reference {ref!r} is not 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise CampaignError(f"cannot import task module {module_name!r}: {exc}")
    task = getattr(module, func_name, None)
    if not callable(task):
        raise CampaignError(
            f"task {func_name!r} in module {module_name!r} is not callable"
        )
    return task


def _worker_entry(task: Callable[[Dict], Dict], point: Dict, conn) -> None:
    """Child-process entry: run the task, ship the payload, exit.

    Sends ``("ok", payload)`` or ``("err", message)``; an abrupt death
    (chaos ``os._exit``, segfault, kill) sends nothing, which the parent
    observes as EOF.
    """
    try:
        payload = task(point)
        conn.send(("ok", payload))
    except BaseException as exc:  # ship any failure; never hang the parent
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class Outcome:
    """What happened to one grid point."""

    index: int
    key: str
    status: str  # "done" | "cached" | "failed"
    result: Optional[Dict]
    wall: float
    attempts: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the point produced a result (ran now or cached)."""
        return self.status in ("done", "cached")


@dataclass
class _Running:
    """Book-keeping for one in-flight worker process."""

    point: Dict
    attempt: int
    process: object
    started: float


class CampaignRunner:
    """Run grid points through a worker pool with retries and timeouts.

    Parameters
    ----------
    task:
        callable or ``"module:function"`` reference; defaults to the
        register-experiment worker (:data:`DEFAULT_TASK`).
    workers:
        worker processes in flight; ``<= 1`` runs serially in-process.
    timeout:
        per-attempt wall-clock budget in seconds (parallel mode only);
        an expired attempt is killed and retried.
    retries:
        extra attempts after the first for a crashed/failed/hung point.
    checkpoint:
        optional :class:`Checkpoint`; finished points are recorded there
        and replayed (not rerun) on subsequent runs.
    log:
        optional callable for progress lines (e.g. ``print``).
    """

    def __init__(
        self,
        task: TaskRef = DEFAULT_TASK,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
        checkpoint: Optional[Checkpoint] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        if retries < 0:
            raise CampaignError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise CampaignError("timeout must be positive")
        self.task_ref = task
        self.workers = int(workers)
        self.timeout = timeout
        self.retries = int(retries)
        self.checkpoint = checkpoint
        self._log = log or (lambda message: None)
        self._task = resolve_task(task)

    # -- public API ----------------------------------------------------------

    def run(self, points: Sequence[Dict]) -> List[Outcome]:
        """Execute every point; return outcomes sorted by point index."""
        seen = set()
        for point in points:
            if point["key"] in seen:
                raise CampaignError(
                    f"duplicate point key {point['key']!r}; grid points "
                    "must be unique for checkpointing to be sound"
                )
            seen.add(point["key"])
        outcomes: Dict[int, Outcome] = {}
        queue = deque()
        for point in points:
            cached = (
                self.checkpoint.completed.get(point["key"])
                if self.checkpoint is not None
                else None
            )
            if cached is not None:
                outcomes[point["index"]] = Outcome(
                    index=point["index"],
                    key=point["key"],
                    status="cached",
                    result=cached["result"],
                    wall=float(cached.get("wall", 0.0)),
                    attempts=int(cached.get("attempts", 1)),
                )
            else:
                queue.append((point, 0))
        if queue:
            if self.workers <= 1:
                self._run_serial(queue, outcomes)
            else:
                self._run_parallel(queue, outcomes)
        return [outcomes[index] for index in sorted(outcomes)]

    # -- serial path ---------------------------------------------------------

    def _record_success(
        self, outcomes: Dict[int, Outcome], point: Dict, payload, attempt: int
    ) -> None:
        if not (isinstance(payload, dict) and "result" in payload):
            payload = {"result": payload, "wall": 0.0}
        wall = float(payload.get("wall", 0.0))
        outcomes[point["index"]] = Outcome(
            index=point["index"],
            key=point["key"],
            status="done",
            result=payload["result"],
            wall=wall,
            attempts=attempt + 1,
        )
        if self.checkpoint is not None:
            self.checkpoint.append(
                point["key"], payload["result"], wall, attempt + 1
            )

    def _retry_or_fail(
        self,
        queue: deque,
        outcomes: Dict[int, Outcome],
        point: Dict,
        attempt: int,
        error: str,
    ) -> None:
        if attempt < self.retries:
            self._log(
                f"point {point['index']}: attempt {attempt + 1} failed "
                f"({error}); retrying"
            )
            queue.append((point, attempt + 1))
        else:
            self._log(
                f"point {point['index']}: giving up after {attempt + 1} "
                f"attempts ({error})"
            )
            outcomes[point["index"]] = Outcome(
                index=point["index"],
                key=point["key"],
                status="failed",
                result=None,
                wall=0.0,
                attempts=attempt + 1,
                error=error,
            )

    def _run_serial(self, queue: deque, outcomes: Dict[int, Outcome]) -> None:
        while queue:
            point, attempt = queue.popleft()
            attempt_point = dict(point)
            attempt_point["_attempt"] = attempt
            attempt_point["_serial"] = True
            try:
                payload = self._task(attempt_point)
            except Exception as exc:
                self._retry_or_fail(
                    queue, outcomes, point, attempt,
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                self._record_success(outcomes, point, payload, attempt)

    # -- parallel path -------------------------------------------------------

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )

    def _run_parallel(self, queue: deque, outcomes: Dict[int, Outcome]) -> None:
        try:
            ctx = self._context()
        except (ValueError, OSError, ImportError) as exc:
            self._log(f"multiprocessing unavailable ({exc}); running serially")
            self._run_serial(queue, outcomes)
            return
        running: Dict[object, _Running] = {}
        try:
            while queue or running:
                # Launch until the pool is full.
                while queue and len(running) < self.workers:
                    point, attempt = queue.popleft()
                    attempt_point = dict(point)
                    attempt_point["_attempt"] = attempt
                    try:
                        parent_conn, child_conn = ctx.Pipe(duplex=False)
                        process = ctx.Process(
                            target=_worker_entry,
                            args=(self._task, attempt_point, child_conn),
                        )
                        process.start()
                    except (OSError, ValueError, PermissionError) as exc:
                        self._log(
                            f"cannot start worker process ({exc}); "
                            "degrading to serial execution"
                        )
                        queue.appendleft((point, attempt))
                        self._drain_running(running, queue)
                        self._run_serial(queue, outcomes)
                        return
                    child_conn.close()
                    running[parent_conn] = _Running(
                        # wall-clock budget for reaping hung workers;
                        # never enters results
                        point, attempt, process, time.monotonic()
                    )

                ready = _wait_connections(
                    list(running), timeout=_POLL_SECONDS
                )
                for conn in ready:
                    info = running.pop(conn)
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        info.process.join(_KILL_GRACE_SECONDS)
                        kind, payload = "crash", (
                            "worker crashed (exit code "
                            f"{info.process.exitcode})"
                        )
                    conn.close()
                    info.process.join()
                    if kind == "ok":
                        self._record_success(
                            outcomes, info.point, payload, info.attempt
                        )
                    else:
                        self._retry_or_fail(
                            queue, outcomes, info.point, info.attempt,
                            str(payload),
                        )

                # Reap attempts over their wall-clock budget.
                if self.timeout is not None:
                    # timeout reaping is wall-clock by definition;
                    # never enters results
                    now = time.monotonic()
                    for conn, info in list(running.items()):
                        if now - info.started <= self.timeout:
                            continue
                        running.pop(conn)
                        self._kill(info.process)
                        conn.close()
                        self._retry_or_fail(
                            queue, outcomes, info.point, info.attempt,
                            f"timed out after {self.timeout:g}s",
                        )
        finally:
            for conn, info in running.items():
                self._kill(info.process)
                conn.close()

    def _drain_running(self, running: Dict[object, _Running], queue: deque) -> None:
        """Kill in-flight workers and requeue their points (serial fallback)."""
        for conn, info in running.items():
            self._kill(info.process)
            conn.close()
            queue.append((info.point, info.attempt))
        running.clear()

    @staticmethod
    def _kill(process) -> None:
        process.terminate()
        process.join(_KILL_GRACE_SECONDS)
        if process.is_alive():
            process.kill()
            process.join()

    def __repr__(self) -> str:
        return (
            f"<CampaignRunner task={self.task_ref!r} workers={self.workers} "
            f"retries={self.retries} timeout={self.timeout}>"
        )
