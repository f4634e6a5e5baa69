"""Hot-path microbenchmark: step loops across dtype, planning and seed-batching.

Times the complete step (forward + backward + fused optimizer update) for the
two workload shapes that dominate the paper's reproduction — an MLP (pure
matmul) and the ResNet-20 CIFAR proxy (im2col conv + batchnorm) — along three
axes, appending every measurement to ``BENCH_hotpath.json`` so CI can archive
the perf trajectory:

* **dtype** — float32 vs float64 step loops (both planned, the production
  default);
* **graph planning** (:mod:`repro.nn.plan`) — planned vs unplanned float32
  loops, interleaved over ``_PLAN_REPEATS`` repetitions and reported as
  medians, including ``tracemalloc`` steady-state allocation peaks: the planned
  loop reuses every activation/gradient/workspace buffer after the capture
  step, so its per-step allocation high-water collapses;
* **seed batching** — the S=5 stacked step loop against five serial per-seed
  loops (the ``--batch-seeds`` execution path), both planned.  The stacked
  (S·N)-batch conv/pool GEMM keeps the conv-heavy ResNet-20 regime at or
  above serial speed (it was a 0.85x regression when conv was chunked per
  seed); the floor is asserted at >= 1.0.
* **plan compiler passes** (:mod:`repro.nn.plan_passes`, one fixed pipeline)
  — engagement entries: chain fusion and dead-node elimination on a
  tanh-GELU MLP dense in fusible elementwise chains (``mlp_plan_fused``),
  and buffer-lifetime aliasing on the conv-heavy ResNet-20 arena
  (``resnet20_plan_aliased``, whose ``arena_reduction`` — distinct storage
  vs per-position bytes — is a deterministic byte count, not a timing).

Scale follows ``REPRO_BENCH_SCALE`` (tiny/small/full) like the rest of the
harness; speedup floors are only asserted at >= small scale, where the loop
is long enough for the ratio to be stable.  Override the output path with
``REPRO_BENCH_HOTPATH_JSON``.  ``tools/bench_compare.py`` diffs two artifacts
and fails on step-loop regressions; CI runs it against the committed baseline
in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.experiments.settings import get_setting
from repro.experiments.workloads import build_workload
from repro.models.mlp import MLP
from repro.nn.losses import cross_entropy
from repro.optim import build_optimizer

RESULTS_PATH = Path(os.environ.get("REPRO_BENCH_HOTPATH_JSON", "BENCH_hotpath.json"))

_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
_STEPS = {"tiny": 8, "small": 40, "full": 120}.get(_SCALE, 40)
_WARMUP = 3

#: asserted only when the loop is long enough for the ratio to be stable;
#: the acceptance target is 1.5x, the floor leaves headroom for CI noise
_MIN_SPEEDUP = 1.2 if _STEPS >= 40 else None

#: planned-vs-unplanned floors (asserted at >= small scale).  On the
#: conv-heavy loop planning is a robust ~1.3x (large workspaces, page-fault
#: heavy when re-allocated); on the tiny MLP the time saved on 64KB
#: allocations roughly cancels the tape-verification bookkeeping, so the
#: asserted wins there are "never meaningfully slower" plus the
#: steady-state allocation-peak collapse.
_MIN_PLAN_SPEEDUP_MLP = 0.9 if _STEPS >= 40 else None
_MIN_PLAN_SPEEDUP_CONV = 1.1 if _STEPS >= 40 else None

DTYPES = ("float64", "float32")


def _record(model_name: str, entry: dict) -> None:
    """Merge one model's measurements into the shared JSON artifact."""
    payload: dict = {"scale": _SCALE, "steps": _STEPS, "numpy": np.__version__, "results": {}}
    if RESULTS_PATH.exists():
        try:
            previous = json.loads(RESULTS_PATH.read_text())
            payload["results"] = previous.get("results", {})
        except (json.JSONDecodeError, OSError):
            pass
    payload["results"][model_name] = entry
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _run_steps(model, optimizer, batches, loss_fn, steps, graph_plan):
    """Run ``steps`` train steps (optionally planned); returns the last loss."""
    loss = None
    for i in range(steps):
        batch = batches[i % len(batches)]
        with graph_plan.step() if graph_plan is not None else nullcontext():
            loss = loss_fn(model, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return loss


def _time_step_loop(build_fn, dtype: str, plan: bool = True) -> float:
    """Seconds for ``_STEPS`` train steps (forward+backward+optimizer)."""
    with nn.default_dtype(dtype):
        model, optimizer, batches, loss_fn = build_fn()
        graph_plan = nn.GraphPlan() if plan else None
        _run_steps(model, optimizer, batches, loss_fn, _WARMUP, graph_plan)
        start = time.perf_counter()
        loss = _run_steps(model, optimizer, batches, loss_fn, _STEPS, graph_plan)
        elapsed = time.perf_counter() - start
        assert np.isfinite(float(loss.data)), f"{dtype} step loop diverged"
        return elapsed


def _steady_state_alloc_peak(build_fn, dtype: str, plan: bool) -> int:
    """``tracemalloc`` high-water (bytes) of two steady-state training steps."""
    with nn.default_dtype(dtype):
        model, optimizer, batches, loss_fn = build_fn()
        graph_plan = nn.GraphPlan() if plan else None
        _run_steps(model, optimizer, batches, loss_fn, _WARMUP, graph_plan)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _run_steps(model, optimizer, batches, loss_fn, 2, graph_plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return int(peak)


def _build_mlp():
    rng = np.random.default_rng(0)
    model = MLP(in_features=256, num_classes=10, hidden_sizes=(256, 256), seed=0)
    optimizer = build_optimizer("sgdm", model.parameters(), lr=0.01)
    batches = [
        (rng.standard_normal((64, 256)), rng.integers(0, 10, size=64)) for _ in range(4)
    ]
    loss_fn = lambda m, b: cross_entropy(m(nn.Tensor(b[0])), b[1])  # noqa: E731
    return model, optimizer, batches, loss_fn


def _build_resnet20():
    workload = build_workload(get_setting("RN20-CIFAR10"), seed=0, size_scale=0.5)
    optimizer = build_optimizer("sgdm", workload.model.parameters(), lr=0.05)
    batches = [batch for batch, _ in zip(workload.train_loader, range(4))]
    loss_fn = workload.task.compute_loss
    return workload.model, optimizer, batches, loss_fn


def _bench(model_name: str, build_fn) -> dict:
    timings = {dtype: _time_step_loop(build_fn, dtype) for dtype in DTYPES}
    speedup = timings["float64"] / timings["float32"]
    entry = {
        "steps": _STEPS,
        "plan": True,
        "float64_seconds": round(timings["float64"], 4),
        "float32_seconds": round(timings["float32"], 4),
        "float32_speedup": round(speedup, 3),
        "float64_steps_per_second": round(_STEPS / timings["float64"], 2),
        "float32_steps_per_second": round(_STEPS / timings["float32"], 2),
    }
    _record(model_name, entry)
    print(f"\n[hotpath] {model_name}: {entry}")
    return entry


def test_mlp_step_loop_float32_vs_float64():
    entry = _bench("mlp", _build_mlp)
    if _MIN_SPEEDUP is not None:
        assert entry["float32_speedup"] >= _MIN_SPEEDUP, (
            f"float32 MLP step loop regressed: {entry['float32_speedup']}x < {_MIN_SPEEDUP}x"
        )


def test_resnet20_step_loop_float32_vs_float64():
    entry = _bench("resnet20", _build_resnet20)
    if _MIN_SPEEDUP is not None:
        assert entry["float32_speedup"] >= _MIN_SPEEDUP, (
            f"float32 ResNet-20 step loop regressed: {entry['float32_speedup']}x < {_MIN_SPEEDUP}x"
        )


#: emulated bf16 pays a cast-on-store quantization per stored tensor on top
#: of the float32 compute, so its throughput is a *fraction* of float32's;
#: the floor catches the emulation overhead blowing up (e.g. an accidental
#: extra copy per store), not a speedup that does not exist
_MIN_BF16_RELATIVE_THROUGHPUT = 0.25 if _STEPS >= 40 else None


def test_mlp_step_loop_bfloat16_overhead():
    """Emulated bf16 step loop: bounded overhead relative to native float32."""
    float32_seconds = _time_step_loop(_build_mlp, "float32")
    bf16_seconds = _time_step_loop(_build_mlp, "bfloat16")
    entry = {
        "steps": _STEPS,
        "plan": True,
        "float32_seconds": round(float32_seconds, 4),
        "bfloat16_seconds": round(bf16_seconds, 4),
        # dimensionless, gated by bench_compare: bf16 steps/s over float32
        # steps/s (< 1.0 by construction — quantization is pure overhead)
        "bf16_relative_throughput": round(float32_seconds / bf16_seconds, 3),
        "bfloat16_steps_per_second": round(_STEPS / bf16_seconds, 2),
    }
    _record("mlp_bf16", entry)
    print(f"\n[hotpath] mlp_bf16: {entry}")
    if _MIN_BF16_RELATIVE_THROUGHPUT is not None:
        assert entry["bf16_relative_throughput"] >= _MIN_BF16_RELATIVE_THROUGHPUT, (
            f"emulated bf16 overhead blew up: {entry['bf16_relative_throughput']}x "
            f"of float32 throughput < {_MIN_BF16_RELATIVE_THROUGHPUT}x"
        )


# ---------------------------------------------------------------------------
# planned vs unplanned float32 step loops (+ steady-state allocation peaks)
# ---------------------------------------------------------------------------

#: interleaved planned/unplanned repetitions behind each planned-vs-unplanned entry
_PLAN_REPEATS = 5


def _interleaved_plan_timings(build_fn) -> tuple[float, float, float]:
    """Median planned seconds, median unplanned seconds and median per-pair speedup.

    The two variants alternate (planned first on even repetitions, unplanned
    first on odd ones), so host drift lands on both; each pair's ratio is
    taken from two adjacent loops, and the medians shrug off a stalled one.
    """
    planned, unplanned, ratios = [], [], []
    for rep in range(_PLAN_REPEATS):
        order = (True, False) if rep % 2 == 0 else (False, True)
        seconds = {plan: _time_step_loop(build_fn, "float32", plan=plan) for plan in order}
        planned.append(seconds[True])
        unplanned.append(seconds[False])
        ratios.append(seconds[False] / seconds[True])
    return statistics.median(planned), statistics.median(unplanned), statistics.median(ratios)


def _bench_plan(entry_name: str, build_fn) -> dict:
    planned_seconds, unplanned_seconds, speedup = _interleaved_plan_timings(build_fn)
    planned_peak = _steady_state_alloc_peak(build_fn, "float32", plan=True)
    unplanned_peak = _steady_state_alloc_peak(build_fn, "float32", plan=False)
    entry = {
        "steps": _STEPS,
        "planned_seconds": round(planned_seconds, 4),
        "unplanned_seconds": round(unplanned_seconds, 4),
        "repeats": _PLAN_REPEATS,
        "plan_speedup": round(speedup, 3),
        "planned_steps_per_second": round(_STEPS / planned_seconds, 2),
        "unplanned_steps_per_second": round(_STEPS / unplanned_seconds, 2),
        "planned_step_alloc_peak_kb": round(planned_peak / 1024, 1),
        "unplanned_step_alloc_peak_kb": round(unplanned_peak / 1024, 1),
    }
    _record(entry_name, entry)
    print(f"\n[hotpath] {entry_name}: {entry}")
    return entry


def test_mlp_planned_vs_unplanned():
    entry = _bench_plan("mlp_plan", _build_mlp)
    assert entry["planned_step_alloc_peak_kb"] < entry["unplanned_step_alloc_peak_kb"], (
        "planning did not reduce the steady-state allocation peak"
    )
    if _MIN_PLAN_SPEEDUP_MLP is not None:
        assert entry["plan_speedup"] >= _MIN_PLAN_SPEEDUP_MLP, (
            f"planned MLP step loop regressed: {entry['plan_speedup']}x "
            f"< {_MIN_PLAN_SPEEDUP_MLP}x"
        )


def test_resnet20_planned_vs_unplanned():
    entry = _bench_plan("resnet20_plan", _build_resnet20)
    assert entry["planned_step_alloc_peak_kb"] < entry["unplanned_step_alloc_peak_kb"], (
        "planning did not reduce the steady-state allocation peak"
    )
    if _MIN_PLAN_SPEEDUP_CONV is not None:
        assert entry["plan_speedup"] >= _MIN_PLAN_SPEEDUP_CONV, (
            f"planned ResNet-20 step loop regressed: {entry['plan_speedup']}x "
            f"< {_MIN_PLAN_SPEEDUP_CONV}x"
        )


# ---------------------------------------------------------------------------
# plan compiler passes: chain fusion (elementwise MLP) and buffer aliasing
# ---------------------------------------------------------------------------

class _GeluMLP(nn.Module):
    """MLP with a tanh-GELU activation — dense in fusible elementwise chains."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        from repro.utils.seeding import spawn_rng

        rng = spawn_rng("gelu-mlp", seed=seed)
        self.fc1 = nn.Linear(256, 256, rng=rng)
        self.fc2 = nn.Linear(256, 256, rng=rng)
        self.head = nn.Linear(256, 10, rng=rng)

    @staticmethod
    def _gelu(h):
        return (h * 0.5) * ((h * 0.7978845608028654).tanh() + 1.0)

    def forward(self, x):
        h = self._gelu(self.fc1(x))
        h = self._gelu(self.fc2(h))
        return self.head(h)


def _build_gelu_mlp():
    rng = np.random.default_rng(0)
    model = _GeluMLP(seed=0)
    optimizer = build_optimizer("sgdm", model.parameters(), lr=0.01)
    batches = [
        (rng.standard_normal((64, 256)), rng.integers(0, 10, size=64)) for _ in range(4)
    ]
    loss_fn = lambda m, b: cross_entropy(m(nn.Tensor(b[0])), b[1])  # noqa: E731
    return model, optimizer, batches, loss_fn


def _time_planned_step_loop(build_fn, dtype: str):
    """Like :func:`_time_step_loop`, planned; also returns the compiled plan."""
    with nn.default_dtype(dtype):
        model, optimizer, batches, loss_fn = build_fn()
        graph_plan = nn.GraphPlan()
        _run_steps(model, optimizer, batches, loss_fn, _WARMUP, graph_plan)
        start = time.perf_counter()
        loss = _run_steps(model, optimizer, batches, loss_fn, _STEPS, graph_plan)
        elapsed = time.perf_counter() - start
        assert np.isfinite(float(loss.data)), f"{dtype} planned step loop diverged"
        return elapsed, graph_plan


def test_mlp_plan_fused():
    """Chain fusion and dead-node elimination must engage on the GELU MLP."""
    planned_seconds, plan = _time_planned_step_loop(_build_gelu_mlp, "float32")
    entry = {
        "steps": _STEPS,
        "planned_seconds": round(planned_seconds, 4),
        "fused_chains": plan.fused_chains,
        "dce_dropped": plan.dce_dropped,
    }
    _record("mlp_plan_fused", entry)
    print(f"\n[hotpath] mlp_plan_fused: {entry}")
    assert plan.fused_chains >= 1, "fusion pass found no chains in the GELU MLP"
    assert plan.dce_dropped >= 1, "dce pass dropped no schedule items in the GELU MLP"
    assert plan.diverged_steps == 0


def test_resnet20_plan_aliased():
    """Buffer aliasing must shrink the conv arena's distinct storage."""
    planned_seconds, plan = _time_planned_step_loop(_build_resnet20, "float32")
    raw_kb = plan.arena_nbytes_raw() / 1024
    arena_kb = plan.arena_nbytes() / 1024
    entry = {
        "steps": _STEPS,
        "planned_seconds": round(planned_seconds, 4),
        "arena_kb": round(arena_kb, 1),
        "arena_raw_kb": round(raw_kb, 1),
        # deterministic byte-count ratio (not a timing): gated by bench_compare
        "arena_reduction": round(raw_kb / arena_kb, 3),
        "aliased_positions": plan.aliased_positions,
    }
    _record("resnet20_plan_aliased", entry)
    print(f"\n[hotpath] resnet20_plan_aliased: {entry}")
    assert plan.aliased_positions > 0, "alias pass shared no arena positions"
    assert arena_kb < raw_kb
    assert plan.diverged_steps == 0


# ---------------------------------------------------------------------------
# seed-batched (vmap-style) step loops: 5 serial per-seed loops vs one stacked
# ---------------------------------------------------------------------------

NUM_SEEDS = 5

#: asserted only at >= small scale; the locally recorded value is ~2.5-3x for
#: the interpreter-bound tiny MLP, and the floor leaves headroom for CI noise
_MIN_BATCHED_SPEEDUP = 1.5 if _STEPS >= 40 else None

#: the conv regime must never fall below serial now that the batched conv is
#: one stacked (S·N) GEMM instead of a per-seed python loop
_MIN_CONV_BATCHED_SPEEDUP = 1.0 if _STEPS >= 40 else None


def _mlp_seed_workloads():
    """The tiny interpreter-bound workload the seed axis is built for."""
    from repro.nn.losses import cross_entropy

    rng = np.random.default_rng(0)
    batches = [
        (rng.standard_normal((16, 64)), rng.integers(0, 10, size=16)) for _ in range(4)
    ]

    def build(seed: int):
        return MLP(in_features=64, num_classes=10, hidden_sizes=(32, 32), seed=seed)

    def loss_fn(model, x, labels):
        return cross_entropy(model(x), labels)

    return build, batches, loss_fn


def _resnet20_seed_workloads():
    """The conv-heavy regime: one stacked GEMM across all seeds' images."""
    from repro.nn.losses import cross_entropy

    def build(seed: int):
        return build_workload(get_setting("RN20-CIFAR10"), seed=seed, size_scale=0.12).model

    workload = build_workload(get_setting("RN20-CIFAR10"), seed=0, size_scale=0.12)
    batches = [batch for batch, _ in zip(workload.train_loader, range(2))]

    def loss_fn(model, x, labels):
        return cross_entropy(model(x), labels)

    return build, batches, loss_fn


def _time_seed_loops(build_fn, batches, loss_fn) -> tuple[float, float]:
    """(serial_seconds, batched_seconds) for ``_STEPS`` S-seed training steps.

    Both paths run planned — the production default — so the comparison is
    purely serial-vs-stacked execution.
    """
    from repro import nn as nn_mod
    from repro.optim import build_optimizer as build_opt

    # serial: one full python pass per seed per step, one plan per seed
    models = [build_fn(seed) for seed in range(NUM_SEEDS)]
    optimizers = [build_opt("sgdm", m.parameters(), lr=0.01) for m in models]
    plans = [nn_mod.GraphPlan() for _ in range(NUM_SEEDS)]
    start = 0.0
    for i in range(_WARMUP + _STEPS):
        if i == _WARMUP:
            start = time.perf_counter()
        raw_x, labels = batches[i % len(batches)]
        for model, optimizer, seed_plan in zip(models, optimizers, plans):
            with seed_plan.step():
                loss = loss_fn(model, nn_mod.Tensor(raw_x), labels)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
    serial_seconds = time.perf_counter() - start

    # batched: one stacked pass covers all seeds
    stacked = nn_mod.stack_modules([build_fn(seed) for seed in range(NUM_SEEDS)])
    optimizer = build_opt("sgdm", stacked.parameters(), lr=0.01)
    graph_plan = nn_mod.GraphPlan()
    ones = np.ones(NUM_SEEDS)
    stacked_batches = [
        (
            np.ascontiguousarray(np.broadcast_to(x, (NUM_SEEDS,) + x.shape)),
            np.ascontiguousarray(np.broadcast_to(y, (NUM_SEEDS,) + y.shape)),
        )
        for x, y in batches
    ]
    for i in range(_WARMUP + _STEPS):
        if i == _WARMUP:
            start = time.perf_counter()
        raw_x, labels = stacked_batches[i % len(stacked_batches)]
        with graph_plan.step():
            loss = loss_fn(stacked, nn_mod.seed_stacked(raw_x), labels)
            optimizer.zero_grad()
            loss.backward(ones)
            optimizer.step()
    batched_seconds = time.perf_counter() - start
    assert np.all(np.isfinite(loss.data)), "seed-batched step loop diverged"
    return serial_seconds, batched_seconds


def _bench_seed_batched(entry_name: str, workloads_fn) -> dict:
    serial_seconds, batched_seconds = _time_seed_loops(*workloads_fn())
    entry = {
        "steps": _STEPS,
        "plan": True,
        "num_seeds": NUM_SEEDS,
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "batched_speedup": round(serial_seconds / batched_seconds, 3),
    }
    _record(entry_name, entry)
    print(f"\n[hotpath] {entry_name}: {entry}")
    return entry


def test_mlp_seed_batched_vs_serial_loop():
    """S=5 stacked MLP training must beat five serial per-seed loops."""
    entry = _bench_seed_batched("mlp_seed_batched", _mlp_seed_workloads)
    if _MIN_BATCHED_SPEEDUP is not None:
        assert entry["batched_speedup"] >= _MIN_BATCHED_SPEEDUP, (
            f"seed-batched MLP loop regressed: {entry['batched_speedup']}x "
            f"< {_MIN_BATCHED_SPEEDUP}x"
        )


def test_resnet20_seed_batched_vs_serial_loop():
    """Conv regime: the stacked (S·N) GEMM must be at least break-even."""
    entry = _bench_seed_batched("resnet20_seed_batched", _resnet20_seed_workloads)
    if _MIN_CONV_BATCHED_SPEEDUP is not None:
        assert entry["batched_speedup"] >= _MIN_CONV_BATCHED_SPEEDUP, (
            f"seed-batched ResNet-20 loop regressed below serial: "
            f"{entry['batched_speedup']}x < {_MIN_CONV_BATCHED_SPEEDUP}x"
        )


def test_artifact_written_and_well_formed():
    """Runs last in file order: every bench entry must be in the artifact."""
    if not RESULTS_PATH.exists():
        pytest.skip("timing tests did not run")
    payload = json.loads(RESULTS_PATH.read_text())
    for model_name in ("mlp", "resnet20"):
        entry = payload["results"].get(model_name)
        assert entry is not None, f"missing {model_name} entry in {RESULTS_PATH}"
        assert entry["float32_seconds"] > 0 and entry["float64_seconds"] > 0
    bf16 = payload["results"].get("mlp_bf16")
    assert bf16 is not None, f"missing mlp_bf16 entry in {RESULTS_PATH}"
    assert bf16["bfloat16_seconds"] > 0 and bf16["bf16_relative_throughput"] > 0
    for entry_name in ("mlp_plan", "resnet20_plan"):
        entry = payload["results"].get(entry_name)
        assert entry is not None, f"missing {entry_name} entry in {RESULTS_PATH}"
        assert entry["planned_seconds"] > 0 and entry["unplanned_seconds"] > 0
        assert entry["planned_step_alloc_peak_kb"] > 0
    for entry_name in ("mlp_seed_batched", "resnet20_seed_batched"):
        entry = payload["results"].get(entry_name)
        assert entry is not None, f"missing {entry_name} entry in {RESULTS_PATH}"
        assert entry["num_seeds"] == NUM_SEEDS
        assert entry["serial_seconds"] > 0 and entry["batched_seconds"] > 0
    fused = payload["results"].get("mlp_plan_fused")
    assert fused is not None, f"missing mlp_plan_fused entry in {RESULTS_PATH}"
    assert fused["fused_chains"] >= 1 and fused["planned_seconds"] > 0
    aliased = payload["results"].get("resnet20_plan_aliased")
    assert aliased is not None, f"missing resnet20_plan_aliased entry in {RESULTS_PATH}"
    assert aliased["aliased_positions"] > 0
    assert aliased["arena_reduction"] > 1.0
