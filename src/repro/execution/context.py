"""One object describing *how* experiment cells execute: :class:`ExecutionContext`.

Five PRs of kwarg growth left the public runners threading ``max_workers=``,
``cache_dir=``, ``dtype=``, ``batch_seeds=`` and ``plan=`` individually through
every call site.  This module consolidates them: an :class:`ExecutionContext`
is accepted as a single ``context=`` argument by ``run_single``,
``run_budget_sweep``, ``run_setting_table``, ``tune_learning_rate``,
``run_glue_benchmark`` and ``execute_artifact`` (and by
:class:`~repro.execution.engine.ExperimentEngine` itself), while the legacy
kwargs survive one release as a deprecated compatibility shim
(:func:`context_from_legacy`).

The context also owns environment scoping: :meth:`ExecutionContext.from_env`
is the one documented path that reads the ``REPRO_*`` configuration variables
(``REPRO_PLAN``, ``REPRO_BENCH_WORKERS``, ``REPRO_BENCH_CACHE_DIR`` and the
fabric additions), replacing the scattered ``os.environ`` reads that used to
live in the benchmark helpers.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.utils.unset import UNSET

__all__ = ["ExecutionContext", "context_from_legacy", "resolve_cache_spec"]

#: sentinel distinguishing "kwarg not passed" from any real value (None included)
_UNSET = UNSET

#: executor backend names accepted by :class:`ExecutionContext` / the engine
EXECUTORS = ("auto", "serial", "process", "queue")

def resolve_cache_spec(cache: Any) -> Any:
    """Turn a cache *spec* into a live cache object.

    Accepts an existing duck-typed cache (returned unchanged), a filesystem
    path (→ :class:`~repro.execution.cache.RunCache`), an ``http(s)://`` URL
    (→ :class:`~repro.execution.remote_cache.HTTPRunCache`), or ``None``.
    """
    if cache is None:
        return None
    if isinstance(cache, str) and cache.startswith(("http://", "https://")):
        from repro.execution.remote_cache import HTTPRunCache

        return HTTPRunCache(cache)
    if isinstance(cache, (str, Path)):
        from repro.execution.cache import RunCache

        return RunCache(cache)
    if not (hasattr(cache, "get") and hasattr(cache, "put")):
        raise TypeError(f"cache spec {cache!r} has no get/put surface")
    return cache


@dataclass(frozen=True)
class ExecutionContext:
    """Everything about *how* cells run, none of it about *what* runs.

    With the single exception of ``dtype`` (which enters each cell's cache
    fingerprint, because the numbers it produces differ), every field here is
    an execution detail: records are bitwise identical whatever the workers /
    cache / executor / planning combination.

    Attributes
    ----------
    workers:
        Process-pool width for the ``process`` executor; ``1`` is serial.
    cache:
        Cache spec: a duck-typed cache object, a directory path, an
        ``http(s)://`` store URL, or ``None`` (no caching).  Resolved lazily
        by :meth:`resolve_cache` so a frozen context stays cheap to build.
    retries:
        Transient-failure retries per cell (``max_attempts = retries + 1``
        for queue jobs).
    batch_seeds:
        Seed-stacked training of cells differing only in seed.
    plan:
        Graph-planning pin (``True``/``False``) or ``None`` to defer to the
        ambient ``REPRO_PLAN`` switch.
    dtype:
        Default dtype for *planned* cells (``"float32"``/``"float64"``, or
        the emulated ``"bfloat16"``/``"float16"``), or
        ``None`` to keep each setting's own.
    executor:
        ``"auto"`` (serial when ``workers == 1``, else process pool),
        ``"serial"``, ``"process"``, or ``"queue"`` (the distributed
        work-queue backend — requires ``queue`` and a shared ``cache``).
    queue:
        Work-queue spec for the ``queue`` executor: a
        :class:`~repro.execution.queue.WorkQueue` or a sqlite path.
    queue_inline:
        Whether an engine using the queue executor also leases and runs jobs
        itself (``True``, the single-process default) or only submits and
        waits for external ``repro worker`` processes (``False`` — what
        ``repro serve --queue`` uses).
    retry_policy:
        A :class:`~repro.execution.retry.RetryPolicy` governing every retry
        the fabric makes on this context's behalf (engine cell re-execution,
        queue-job attempt budgets).  ``None`` (default) derives a policy from
        ``retries``; an explicit policy wins over the counter.  Like the
        executor it is purely an execution detail — records are bitwise
        identical however the retries are paced.
    """

    workers: int = 1
    cache: Any = None
    retries: int = 1
    batch_seeds: bool = False
    plan: bool | None = None
    dtype: str | None = None
    executor: str = "auto"
    queue: Any = None
    queue_inline: bool = True
    retry_policy: Any = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.retry_policy is not None:
            from repro.execution.retry import RetryPolicy

            if not isinstance(self.retry_policy, RetryPolicy):
                raise TypeError(
                    f"retry_policy must be a RetryPolicy, got {self.retry_policy!r}"
                )

    # -- resolution ----------------------------------------------------------
    def resolve_cache(self) -> Any:
        """The live cache object this context describes (see :func:`resolve_cache_spec`)."""
        return resolve_cache_spec(self.cache)

    def resolve_queue(self) -> Any:
        """The live :class:`~repro.execution.queue.WorkQueue`, or ``None``."""
        if self.queue is None:
            return None
        if isinstance(self.queue, (str, Path)):
            from repro.execution.queue import WorkQueue

            return WorkQueue(self.queue)
        return self.queue

    def replace(self, **changes: Any) -> "ExecutionContext":
        """A copy of this context with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # -- environment ---------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None, **overrides: Any) -> "ExecutionContext":
        """Build a context from the documented ``REPRO_*`` environment variables.

        This is the *single* configuration-from-environment path; nothing else
        in the library should read these variables.  Recognised names:

        ``REPRO_BENCH_WORKERS``
            Worker-process count (``workers``).
        ``REPRO_BENCH_CACHE_DIR``
            Cache directory or ``http(s)://`` store URL (``cache``).
        ``REPRO_PLAN``
            Graph-planning switch; unset or empty leaves ``plan=None``
            (ambient default: on).
        ``REPRO_DTYPE``
            Default cell dtype.
        ``REPRO_EXECUTOR``
            Executor backend name (see :data:`EXECUTORS`).
        ``REPRO_QUEUE``
            Sqlite work-queue path for the ``queue`` executor.
        ``REPRO_BATCH_SEEDS``
            Seed-stacked training switch.

        Both switches parse with :func:`repro.nn.plan.env_flag`, the parser
        :func:`~repro.nn.plan.plan_enabled_default` uses too.

        Explicit ``overrides`` win over the environment.  (``REPRO_PLAN`` is
        *also* read ambiently by :mod:`repro.nn.plan` at step time — that is
        the mechanism engines use to ship the switch to pool workers — but
        configuration decisions all flow through here.)
        """
        from repro.nn.plan import env_flag

        env = os.environ if environ is None else environ
        values: dict[str, Any] = {}
        if env.get("REPRO_BENCH_WORKERS"):
            values["workers"] = max(1, int(env["REPRO_BENCH_WORKERS"]))
        if env.get("REPRO_BENCH_CACHE_DIR"):
            values["cache"] = env["REPRO_BENCH_CACHE_DIR"]
        plan = env_flag(env.get("REPRO_PLAN"))
        if plan is not None:
            values["plan"] = plan
        if env.get("REPRO_DTYPE"):
            values["dtype"] = env["REPRO_DTYPE"]
        if env.get("REPRO_EXECUTOR"):
            values["executor"] = env["REPRO_EXECUTOR"].strip().lower()
        if env.get("REPRO_QUEUE"):
            values["queue"] = env["REPRO_QUEUE"]
        batch_seeds = env_flag(env.get("REPRO_BATCH_SEEDS"))
        if batch_seeds is not None:
            values["batch_seeds"] = batch_seeds
        values.update(overrides)
        return cls(**values)


#: legacy kwarg name -> ExecutionContext field it maps onto
_LEGACY_FIELDS = {
    "max_workers": "workers",
    "cache_dir": "cache",
    "cache": "cache",
    "batch_seeds": "batch_seeds",
    "plan": "plan",
    "dtype": "dtype",
    "retries": "retries",
}


def context_from_legacy(
    context: ExecutionContext | None, caller: str, **legacy: Any
) -> ExecutionContext:
    """Resolve the one-release compatibility shim between legacy kwargs and ``context=``.

    Each runner passes its legacy execution kwargs here with the :data:`_UNSET`
    sentinel as the not-passed marker.  Passing any of them explicitly emits a
    :class:`DeprecationWarning` naming the replacement; passing them *and* a
    ``context`` is ambiguous and raises.
    """
    passed = {name: value for name, value in legacy.items() if value is not _UNSET}
    if context is not None:
        if passed:
            raise TypeError(
                f"{caller}() got both context= and legacy execution kwargs "
                f"{sorted(passed)}; pass everything through the context"
            )
        return context
    if not passed:
        return ExecutionContext()
    fields = {}
    for name, value in passed.items():
        if name not in _LEGACY_FIELDS:
            raise TypeError(f"{caller}() got an unexpected legacy kwarg {name!r}")
        fields[_LEGACY_FIELDS[name]] = value
    replacements = ", ".join(
        f"{name}= (use ExecutionContext.{_LEGACY_FIELDS[name]})" for name in sorted(passed)
    )
    warnings.warn(
        f"{caller}(): {replacements} is deprecated; pass a single "
        f"repro.execution.ExecutionContext via context= instead",
        DeprecationWarning,
        stacklevel=3,
    )
    return ExecutionContext(**fields)
