"""Reusable worker-pool and seed-spawning helpers.

The sharded Monte-Carlo engine (:mod:`repro.sim.parallel`) and the
multi-chain annealing engine (:mod:`repro.hw.parallel_anneal`) share the
same process-level fan-out pattern:

* deterministic task seeding — task ``i`` draws from the ``i``-th child
  of one root :class:`numpy.random.SeedSequence`, so results depend only
  on ``(base_seed, task_index)`` and never on the worker count;
* a ``fork``-context :class:`~concurrent.futures.ProcessPoolExecutor`
  with a one-time per-worker initializer, degrading to the identical
  serial loop (with a :class:`RuntimeWarning`) where ``fork`` is
  unavailable;
* ``workers=1`` *is* the serial loop — one code path, not two.

This module holds that shared machinery so both engines stay thin.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np


def _dup_call_queue_reader(executor: ProcessPoolExecutor) -> Optional[int]:
    """Duplicate the executor call queue's read-end file descriptor.

    Insurance taken out at executor creation, cashed in by
    :func:`_unstick_call_queue` after a worker crash — by then the
    queue's own reader has been closed by the executor's teardown, so
    only a descriptor duplicated *now* can still drain the pipe.
    """
    queue = getattr(executor, "_call_queue", None)
    reader = getattr(queue, "_reader", None)
    if reader is None:
        return None
    try:
        return os.dup(reader.fileno())
    except OSError:
        return None


def _unstick_call_queue(
    executor: ProcessPoolExecutor, drain_fd: Optional[int]
) -> None:
    """Unblock a dead executor's call-queue feeder thread.

    When every worker of an executor dies with a large task still
    queued, the feeder thread can block forever inside ``write()``: the
    payload exceeds the pipe buffer, the dead workers can't read it,
    and fork-inherited copies of the read end in *sibling* worker
    processes keep the pipe from breaking.  The executor's management
    thread then hangs joining the feeder, and ``shutdown(wait=True)``
    hangs joining the management thread.  Draining our duplicated read
    end lets the feeder finish and the whole teardown chain complete.
    Runs as a daemon thread until the feeder exits; the thread owns
    (and closes) ``drain_fd``.
    """
    import select

    feeder = getattr(
        getattr(executor, "_call_queue", None), "_thread", None
    )
    if drain_fd is None:
        return
    if feeder is None:
        os.close(drain_fd)
        return

    def drain() -> None:
        try:
            while feeder.is_alive():
                ready, _, _ = select.select([drain_fd], [], [], 0.02)
                if ready and not os.read(drain_fd, 1 << 16):
                    break
                feeder.join(0.02)
        except OSError:
            pass
        finally:
            os.close(drain_fd)

    threading.Thread(
        target=drain, name="pool-call-queue-drain", daemon=True
    ).start()


def fork_context():
    """The fork multiprocessing context, or ``None`` where unavailable."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker count (``None`` means the machine's CPUs)."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be positive")
    return workers


def ensure_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an entropy-like value into a :class:`SeedSequence`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn_seeds(seed, n: int) -> List[np.random.SeedSequence]:
    """The first ``n`` children of ``seed`` — one per task, index-stable."""
    return ensure_seed_sequence(seed).spawn(n)


def map_ordered(
    fn: Callable,
    tasks: Sequence,
    *,
    workers: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    label: str = "parallel engine",
) -> list:
    """Run ``fn`` over ``tasks``, returning results in task order.

    With ``workers == 1`` (or when ``fork`` is unavailable — warned) the
    initializer and tasks run inline in this process, which is exactly
    what one pool worker would have done.  ``fn``, the tasks, and the
    results must be picklable for the multi-process path.
    """
    workers = resolve_workers(workers)
    mp_context = fork_context() if workers > 1 else None
    if workers > 1 and mp_context is None:
        warnings.warn(
            f"fork start method unavailable on this platform; "
            f"running the {label} serially",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = 1
    if workers == 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=mp_context,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return list(pool.map(fn, tasks))


class PersistentPool:
    """A create-once, submit-many worker pool.

    :func:`map_ordered` (and the engines built on it) pay process
    spin-up and per-worker initialization on *every* call.  For callers
    that fan out repeatedly with the same worker configuration — the
    serve engine decoding a stream of micro-batches, or a BER sweep
    whose points share one decoder — this wrapper keeps the executor
    (and its initialized workers) alive across calls:

    * :meth:`configure` is keyed: re-calling with the same ``key`` is a
      no-op that reuses the warm pool, while a new key respins the
      workers with the new initializer (the pool holds a strong
      reference to ``initargs``, so identity-based keys stay valid);
    * ``workers=1`` — or a platform without ``fork`` (warned) — runs
      everything inline in this process, exactly like
      :func:`map_ordered`'s serial path, so callers keep one code path
      (``dedicated=True`` opts a single worker out of the inline path:
      the distributed decode fabric needs each of its workers to be a
      real, individually-targetable child process);
    * a worker process that dies (OOM-killed, segfaulted) does not end
      the run: :meth:`respawn` replaces the broken executor with
      freshly initialized workers under the *same* configuration key,
      records a ``pool.worker_restart`` counter plus a
      ``pool_worker_restart`` trace event, and :meth:`submit` /
      :meth:`map_ordered` respawn automatically when they find the
      executor broken (callers holding failed futures redrive those
      tasks themselves — the pool cannot know which results were lost);
    * the pool is a context manager; :meth:`shutdown` is idempotent.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        label: str = "parallel engine",
        dedicated: bool = False,
        registry=None,
        trace=None,
    ) -> None:
        workers = resolve_workers(workers)
        needs_processes = workers > 1 or dedicated
        self._ctx = fork_context() if needs_processes else None
        if needs_processes and self._ctx is None:
            warnings.warn(
                f"fork start method unavailable on this platform; "
                f"running the {label} serially",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
            dedicated = False
        self.workers = workers
        self.label = label
        self.dedicated = dedicated
        self.registry = registry
        self.trace = trace
        self.restarts = 0
        #: Futures submitted but not yet finished (see :attr:`inflight`).
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Dup of the call queue's read end (crash-teardown insurance).
        self._drain_fd: Optional[int] = None
        self._config_key = None
        self._config = (None, ())

    # ------------------------------------------------------------------
    @property
    def serial(self) -> bool:
        """True when tasks run inline in this process."""
        return self.workers == 1 and not self.dedicated

    def configure(
        self,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        *,
        key=None,
    ) -> None:
        """Install the per-worker initializer for subsequent submits.

        ``key`` identifies the configuration: configuring twice with the
        same key keeps the warm executor (and the already-initialized
        workers); a different key shuts the old executor down and the
        next submit forks freshly initialized workers.  ``key=None``
        derives one from the initializer and the identities of
        ``initargs``.
        """
        if key is None:
            key = (initializer, tuple(id(arg) for arg in initargs))
        if key == self._config_key and (
            self._executor is not None or self.serial
        ):
            return
        self._teardown_executor()
        self._config_key = key
        self._config = (initializer, initargs)
        if self.serial:
            if initializer is not None:
                initializer(*initargs)
        else:
            self._require_executor()

    def _require_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            initializer, initargs = self._config
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._ctx,
                initializer=initializer,
                initargs=initargs,
            )
            self._drain_fd = _dup_call_queue_reader(self._executor)
        return self._executor

    def _teardown_executor(self) -> None:
        """Shut the executor down, unsticking it first if it died."""
        executor, self._executor = self._executor, None
        drain_fd, self._drain_fd = self._drain_fd, None
        if executor is None:
            if drain_fd is not None:
                os.close(drain_fd)
            return
        if getattr(executor, "_broken", False):
            _unstick_call_queue(executor, drain_fd)
        elif drain_fd is not None:
            os.close(drain_fd)
        executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    @property
    def broken(self) -> bool:
        """True when a worker died and the executor refuses new work."""
        return self._executor is not None and bool(
            getattr(self._executor, "_broken", False)
        )

    @property
    def pids(self) -> List[int]:
        """Process ids of the live workers (empty before the first
        submit forks them, and on the inline path)."""
        return sorted(getattr(self._executor, "_processes", None) or ())

    def respawn(self) -> None:
        """Replace a dead executor with freshly initialized workers.

        The configuration key is kept, so the pool comes back exactly
        as :meth:`configure` left it (same initializer, same initargs)
        — "re-keyed" rather than degraded to serial for the rest of
        the run.  Emits a ``pool.worker_restart`` counter and a
        ``pool_worker_restart`` trace event so restarts are visible in
        merged telemetry.  In-flight futures of the dead executor have
        already failed; redriving them is the caller's job.
        """
        if self.serial:
            return
        self._teardown_executor()
        self.restarts += 1
        registry = self.registry
        if registry is None:
            from ..obs.registry import get_registry

            registry = get_registry()
        registry.counter("pool.worker_restart").inc()
        if self.trace is not None:
            self.trace.event(
                "pool_worker_restart",
                label=self.label,
                workers=self.workers,
                restarts=self.restarts,
            )
        self._require_executor()

    def _submit_executor(self) -> ProcessPoolExecutor:
        """The executor to submit to, respawning a broken one first."""
        if self.broken:
            self.respawn()
        return self._require_executor()

    @property
    def inflight(self) -> int:
        """Tasks submitted via :meth:`submit` and not yet done.

        The pipelined serve pump reads this non-blocking occupancy
        signal to tell a busy pool from an idle one without touching
        any future.  Serial submits resolve inside :meth:`submit`, so
        the count is 0 between calls on the inline path; tasks routed
        through :meth:`map_ordered` are not tracked.
        """
        with self._inflight_lock:
            return self._inflight

    def _task_done(self, _future: Future) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def _track(self, future: Future) -> Future:
        with self._inflight_lock:
            self._inflight += 1
        # A future that is already done runs the callback immediately,
        # keeping the serial path's count balanced at zero.
        future.add_done_callback(self._task_done)
        return future

    def submit(self, fn: Callable, *args) -> Future:
        """Submit one task; inline (already-done future) when serial."""
        if self.serial:
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                future.set_exception(exc)
            return self._track(future)
        try:
            return self._track(self._submit_executor().submit(fn, *args))
        except BrokenExecutor:
            # Broke between the check and the submit: one more respawn.
            self.respawn()
            return self._track(
                self._require_executor().submit(fn, *args)
            )

    def map_ordered(self, fn: Callable, tasks: Sequence) -> list:
        """Run ``fn`` over ``tasks``, results in task order."""
        if self.serial:
            return [fn(task) for task in tasks]
        return list(self._submit_executor().map(fn, tasks))

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers (idempotent; the pool can be reconfigured)."""
        self._teardown_executor()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False
