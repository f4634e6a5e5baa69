"""The layer boundaries the traced run times, and the per-layer metrics they give.

:func:`install` wraps the program's public callables — one span name per
layer boundary — and returns the :class:`~spans.Patcher` whose ``restore``
removes every wrapper again.  :func:`layer_metrics` turns the recorded spans
and counters into the ``per_layer`` metrics of ``BENCHMARK.json``.

Besides the measured times, the convolution and linear wrappers compute a
first-principles cost from the shapes of each call: forward floating-point
operations and the bytes of input, weight and output the call must touch at
least.  These numbers are labelled "computed"; set beside the measured
milliseconds they show which layers run far below arithmetic speed, that is,
layers bound by Python dispatch rather than by the arithmetic.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Any, Callable, Iterator

from spans import Patcher, Span, Tracer

#: the workload's own root spans: one per report (cold) or served request
ROOT_SPANS = ("bench.report", "bench.request")


def _prod(values: tuple[int, ...]) -> int:
    return math.prod(int(v) for v in values)


def conv2d_cost(x_shape: tuple[int, ...], w_shape: tuple[int, ...], stride: int, padding: int,
                itemsize: int) -> tuple[int, int]:
    """Computed (forward FLOPs, bytes) of one ``conv2d`` call.

    ``x_shape`` is ``(..., C, H, W)`` (a leading seed axis folds into the
    batch) and ``w_shape`` is ``(..., O, C, kh, kw)``.  FLOPs count one
    multiply and one add per weight tap per output element; bytes count the
    input, the weight and the output once each.
    """
    out_c, in_c, kh, kw = (int(v) for v in w_shape[-4:])
    height, width = int(x_shape[-2]), int(x_shape[-1])
    batch = _prod(x_shape[:-3])
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    outputs = batch * out_c * out_h * out_w
    flop = 2 * outputs * in_c * kh * kw
    nbytes = itemsize * (_prod(x_shape) + _prod(w_shape) + outputs)
    return flop, nbytes


def linear_cost(x_shape: tuple[int, ...], w_shape: tuple[int, ...], itemsize: int) -> tuple[int, int]:
    """Computed (forward FLOPs, bytes) of one ``linear`` call: ``x @ W.T`` with ``W`` of (..., out, in)."""
    out_f, in_f = int(w_shape[-2]), int(w_shape[-1])
    rows = _prod(x_shape) // in_f
    flop = 2 * rows * out_f * in_f
    nbytes = itemsize * (_prod(x_shape) + _prod(w_shape) + rows * out_f)
    return flop, nbytes


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced layer boundary; the returned patcher's ``restore`` undoes it."""
    from repro.cli.serve import ExperimentServer
    from repro.data.dataset import DataLoader
    from repro.execution import cache as cache_mod
    from repro.execution import engine as engine_mod
    from repro.experiments import runner as runner_mod
    from repro.nn import functional as F
    from repro.nn.modules.norm import BatchNorm2d
    from repro.nn.plan import GraphPlan
    from repro.nn.tensor import Tensor
    from repro.optim.optimizer import Optimizer
    from repro.reporting import registry as registry_mod
    from repro.reporting import report as report_mod
    from repro.schedules.schedule import Schedule
    from repro.training.tasks import Task
    from repro.training.trainer import Trainer

    patcher = Patcher()

    def timed(name: str) -> Callable[[Any], Any]:
        return lambda fn: tracer.wrap(name, fn)

    # repro.experiments: imported by name into the runner module
    patcher.wrap(runner_mod, "build_workload", timed("experiments.build_workload"))

    # repro.training
    def wrap_fit(fit: Callable[..., Any]) -> Callable[..., Any]:
        def traced_fit(trainer: Any, *args: Any, **kwargs: Any) -> Any:
            span = tracer.open("training.fit")
            try:
                return fit(trainer, *args, **kwargs)
            finally:
                tracer.close(span)
                plan = trainer.last_plan
                if plan is not None:
                    tracer.add("plan.reused", plan.reused_checkouts)
                    tracer.add("plan.fresh", plan.fresh_checkouts)
                    tracer.add("plan.diverged", plan.diverged_steps)

        return traced_fit

    patcher.wrap(Trainer, "fit", wrap_fit)
    patcher.wrap_family(Task, "compute_loss", timed("training.forward"))
    patcher.wrap_family(Task, "evaluate", timed("training.evaluate"))

    # repro.nn
    patcher.wrap(Tensor, "backward", timed("nn.backward"))
    patcher.wrap(BatchNorm2d, "forward", timed("nn.batchnorm_forward"))

    def wrap_conv2d(conv2d: Callable[..., Any]) -> Callable[..., Any]:
        traced = tracer.wrap("nn.conv2d", conv2d)

        def costed(x: Any, weight: Any, bias: Any = None, stride: int = 1, padding: int = 0) -> Any:
            flop, nbytes = conv2d_cost(x.shape, weight.shape, stride, padding, x.data.itemsize)
            tracer.add("conv2d.flop", flop)
            tracer.add("conv2d.bytes", nbytes)
            return traced(x, weight, bias, stride=stride, padding=padding)

        return costed

    def wrap_linear(linear: Callable[..., Any]) -> Callable[..., Any]:
        traced = tracer.wrap("nn.linear", linear)

        def costed(x: Any, weight: Any, bias: Any = None) -> Any:
            flop, nbytes = linear_cost(x.shape, weight.shape, x.data.itemsize)
            tracer.add("linear.flop", flop)
            tracer.add("linear.bytes", nbytes)
            return traced(x, weight, bias)

        return costed

    patcher.wrap(F, "conv2d", wrap_conv2d)
    patcher.wrap(F, "linear", wrap_linear)

    class TimedScope:
        """Times the plan's enter and exit, not the step body between them."""

        def __init__(self, scope: Any) -> None:
            self.scope = scope

        def __enter__(self) -> Any:
            span = tracer.open("nn.plan_scope")
            try:
                return self.scope.__enter__()
            finally:
                tracer.close(span)

        def __exit__(self, *exc: Any) -> Any:
            span = tracer.open("nn.plan_scope")
            try:
                return self.scope.__exit__(*exc)
            finally:
                tracer.close(span)

    patcher.wrap(GraphPlan, "step", lambda step: lambda plan: TimedScope(step(plan)))

    # repro.optim and repro.schedules: subclasses override step
    patcher.wrap_family(Optimizer, "step", timed("optim.step"))
    patcher.wrap_family(Optimizer, "zero_grad", timed("optim.zero_grad"))
    patcher.wrap_family(Schedule, "step", timed("schedules.step"))

    # repro.data: time each batch the loader yields, not the consumer's work
    def wrap_iter(iterate: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
        def traced_iter(loader: Any) -> Iterator[Any]:
            batches = iterate(loader)
            while True:
                span = tracer.open("data.next_batch")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield batch

        return traced_iter

    patcher.wrap(DataLoader, "__iter__", wrap_iter)

    # repro.execution
    def wrap_engine_run(run: Callable[..., Any]) -> Callable[..., Any]:
        def traced_run(engine: Any, *args: Any, **kwargs: Any) -> Any:
            span = tracer.open("execution.engine_run")
            try:
                return run(engine, *args, **kwargs)
            finally:
                tracer.close(span)
                report = engine.last_report
                tracer.add("engine.cells", report.total)
                tracer.add("engine.hits", report.cache_hits)
                tracer.add("engine.corrupt", report.corrupt_entries)
                tracer.add("engine.errors", report.cache_errors)
                tracer.add("engine.retries", report.retry_attempts)

        return traced_run

    patcher.wrap(engine_mod.ExperimentEngine, "run", wrap_engine_run)
    patcher.wrap(cache_mod.RunCache, "get", timed("execution.cache_get"))
    patcher.wrap(cache_mod.RunCache, "put", timed("execution.cache_put"))
    patcher.wrap(cache_mod.RunCache, "__contains__", timed("execution.cache_contains"))
    # config_fingerprint is bound by name in both modules
    patcher.wrap(cache_mod, "config_fingerprint", timed("execution.fingerprint"))
    patcher.wrap(engine_mod, "config_fingerprint", timed("execution.fingerprint"))

    cell_ids = itertools.count()

    def wrap_run_cell(run_cell: Callable[[Any], Any]) -> Callable[[Any], Any]:
        traced = tracer.wrap("execution.run_cell", run_cell)

        def tagged(cell: Any) -> Any:
            outer = tracer.context()
            tracer.set_context(f"cell{next(cell_ids)}")
            try:
                return traced(cell)
            finally:
                tracer.set_context(outer)

        return tagged

    patcher.wrap(registry_mod, "run_cell", wrap_run_cell)

    # repro.reporting: Artifact is frozen, so swap registry entries for copies
    for key, artifact in list(registry_mod.ARTIFACTS.items()):
        patcher.replace_item(
            registry_mod.ARTIFACTS,
            key,
            dataclasses.replace(
                artifact,
                plan=tracer.wrap("reporting.plan", artifact.plan),
                build=tracer.wrap("reporting.build", artifact.build),
            ),
        )
    patcher.wrap(report_mod, "render_markdown", timed("reporting.render"))
    patcher.wrap(report_mod, "render_json", timed("reporting.render"))

    # repro.cli.serve: the socketserver hook runs once per request on its handler thread
    request_ids = itertools.count()

    def wrap_finish(finish: Callable[..., Any]) -> Callable[..., Any]:
        traced = tracer.wrap("serve.handle", finish)

        def tagged(server: Any, *args: Any) -> Any:
            tracer.set_context(f"srv{next(request_ids)}")
            try:
                return traced(server, *args)
            finally:
                tracer.set_context(None)

        return tagged

    patcher.wrap(ExperimentServer, "finish_request", wrap_finish)
    return patcher


def coverage(spans: list[Span]) -> float:
    """Share of the workload's root spans during which some traced layer was active.

    Roots are the runner's own spans: one per cold report, or one per client
    request, whose server-side spans run on a handler thread while the
    client waits.  Layer spans are clipped to the roots, so a handler that
    finishes after its client has the response adds nothing.
    """
    roots = sorted((span.start, span.end) for span in spans if span.name in ROOT_SPANS)
    wall = sum(end - start for start, end in roots)
    if wall <= 0:
        return 0.0
    active: list[list[float]] = []
    for start, end in sorted((span.start, span.end) for span in spans if span.name not in ROOT_SPANS):
        if active and start <= active[-1][1]:
            active[-1][1] = max(active[-1][1], end)
        else:
            active.append([start, end])
    covered = 0.0
    for root_start, root_end in roots:
        for start, end in active:
            covered += max(0.0, min(end, root_end) - max(start, root_start))
    return covered / wall


def layer_metrics(tracer: Tracer, totals: dict[str, dict[str, float]], ops: int,
                  extra: dict[str, float]) -> dict[str, float]:
    """The ``per_layer`` metric values of one traced run, normalised per report/request.

    ``totals`` is :func:`~spans.layer_totals` of the tracer's spans; ``ops``
    is the number of traced reports (cold workloads) or served requests;
    ``extra`` carries the values the workload measures itself (first-event
    latency, report bytes, overhead and coverage ratios).
    """
    counters = tracer.counters
    per_op = 1.0 / max(ops, 1)

    def ms(name: str) -> float:
        return 1000.0 * totals.get(name, {}).get("total_s", 0.0) * per_op

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) * per_op

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fit_s = totals.get("training.fit", {}).get("total_s", 0.0)
    # a training step is one compute_loss call; evaluation goes through evaluate
    steps = totals.get("training.forward", {}).get("calls", 0)
    conv_s = totals.get("nn.conv2d", {}).get("total_s", 0.0)
    linear_s = totals.get("nn.linear", {}).get("total_s", 0.0)
    metrics = {
        "experiments.build_workload_ms": ms("experiments.build_workload"),
        "experiments.build_workload_calls": calls("experiments.build_workload"),
        "training.fit_ms": ms("training.fit"),
        "training.steps": steps * per_op,
        "training.steps_per_s": ratio(steps, fit_s),
        "training.forward_ms": ms("training.forward"),
        "training.evaluate_ms": ms("training.evaluate"),
        "nn.backward_ms": ms("nn.backward"),
        "nn.conv2d_ms": ms("nn.conv2d"),
        "nn.conv2d_gflop": counters.get("conv2d.flop", 0.0) / 1e9 * per_op,
        "nn.conv2d_mbytes": counters.get("conv2d.bytes", 0.0) / 1e6 * per_op,
        "nn.conv2d_gflops_per_s": ratio(counters.get("conv2d.flop", 0.0) / 1e9, conv_s),
        "nn.batchnorm_forward_ms": ms("nn.batchnorm_forward"),
        "nn.linear_ms": ms("nn.linear"),
        "nn.linear_gflop": counters.get("linear.flop", 0.0) / 1e9 * per_op,
        "nn.linear_mbytes": counters.get("linear.bytes", 0.0) / 1e6 * per_op,
        "nn.linear_gflops_per_s": ratio(counters.get("linear.flop", 0.0) / 1e9, linear_s),
        "nn.plan_scope_ms": ms("nn.plan_scope"),
        "nn.plan_reuse_ratio": ratio(
            counters.get("plan.reused", 0.0),
            counters.get("plan.reused", 0.0) + counters.get("plan.fresh", 0.0),
        ),
        "nn.plan_diverged_steps": counters.get("plan.diverged", 0.0) * per_op,
        "optim.step_ms": ms("optim.step"),
        "optim.zero_grad_ms": ms("optim.zero_grad"),
        "schedules.step_ms": ms("schedules.step"),
        "schedules.step_calls": calls("schedules.step"),
        "data.next_batch_ms": ms("data.next_batch"),
        "execution.engine_self_ms": 1000.0 * totals.get("execution.engine_run", {}).get("self_s", 0.0) * per_op,
        "execution.cache_get_ms": ms("execution.cache_get"),
        "execution.cache_get_calls": calls("execution.cache_get"),
        "execution.cache_contains_ms": ms("execution.cache_contains"),
        "execution.cache_put_ms": ms("execution.cache_put"),
        "execution.cache_put_calls": calls("execution.cache_put"),
        "execution.fingerprint_ms": ms("execution.fingerprint"),
        "execution.fingerprint_calls": calls("execution.fingerprint"),
        "execution.cache_hit_ratio": ratio(counters.get("engine.hits", 0.0), counters.get("engine.cells", 0.0)),
        "execution.cache_corrupt": counters.get("engine.corrupt", 0.0) * per_op,
        "execution.cache_errors": counters.get("engine.errors", 0.0) * per_op,
        "execution.retry_attempts": counters.get("engine.retries", 0.0) * per_op,
        "reporting.plan_ms": ms("reporting.plan"),
        "reporting.build_ms": ms("reporting.build"),
        "reporting.render_ms": ms("reporting.render"),
        "trace.spans": len(tracer) * per_op,
    }
    metrics.update(extra)
    return metrics


def self_time_table(totals: dict[str, dict[str, float]], ops: int) -> list[tuple[str, float, float, float]]:
    """Rows of (span name, calls per op, inclusive ms per op, self ms per op), by self time."""
    per_op = 1.0 / max(ops, 1)
    rows = [
        (name, entry["calls"] * per_op, 1000.0 * entry["total_s"] * per_op, 1000.0 * entry["self_s"] * per_op)
        for name, entry in totals.items()
    ]
    return sorted(rows, key=lambda row: -row[3])

