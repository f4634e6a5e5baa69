"""Differential oracle for the plan compiler (:mod:`repro.nn.plan_passes`).

The contract: the one compiler pipeline — buffer aliasing, elementwise-chain
fusion and dead-node elimination, which every planned step compiles — must
leave planned training **bitwise identical** to the unplanned loop, for every
registry model in both dtypes.  The passes may only change allocation and
wall-clock behaviour; an unplanned run (``--no-plan``) is the oracle.  On top
of the equality wall, each pass must demonstrably *engage* on a workload
shaped for it (chains fused, arena positions shared, leaf items dropped), and
neither a mid-loop shape divergence nor an op swapped at a captured position
may ever apply a stale compiled schedule.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from test_batched_equivalence import _as_inputs, _model_case
from test_plan import _assert_bitwise
from repro import nn
from repro.models.registry import MODEL_REGISTRY
from repro.nn import plan_passes
from repro.nn.plan import GraphPlan
from repro.optim import SGD

DTYPES = ("float64", "float32")
STEPS = 4
#: The pass selections the compiler accepted before its pipeline was fixed.
#: Every one of them now compiles the same pipeline, so each wall cell checks
#: that pipeline for its model and dtype; the ``alias``/``fuse``/``dce`` cells
#: additionally check their pass's structural invariant on the compiled plan.
SPECS = ("none", "alias", "fuse", "dce", "parallel", "default", "all")

_runs: dict[tuple[str, str, bool], tuple[list, dict, GraphPlan | None]] = {}


def _train(name: str, dtype: str, planned: bool, steps: int = STEPS):
    """One serial step loop, planned or not."""
    build_fn, batch_fn = _model_case(name)
    losses = []
    plan = GraphPlan() if planned else None
    with nn.default_dtype(dtype):
        batch = batch_fn(np.random.default_rng(7))[0]
        loss_fn = batch_fn(np.random.default_rng(0))[1]
        model = build_fn(0)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        for _ in range(steps):
            inputs = _as_inputs(batch, stacked=False)
            with plan.step() if plan is not None else nullcontext():
                loss = loss_fn(model, *inputs)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            losses.append(loss.data.copy())
        state = model.state_dict()
    return losses, state, plan


def _run(name: str, dtype: str, planned: bool):
    """:func:`_train` once per (model, dtype, planned), shared by the wall cells."""
    key = (name, dtype, planned)
    if key not in _runs:
        _runs[key] = _train(name, dtype, planned)
    return _runs[key]


def _fused_chains(plan: GraphPlan) -> list:
    return [op for _start, op in plan._schedule if type(op) is not int]


def _check_alias(plan: GraphPlan) -> None:
    """Positions sharing storage have disjoint captured live ranges."""
    release = plan_passes._release_times(plan, _fused_chains(plan))
    last_tenant: dict[int, int] = {}
    for pos, buf in enumerate(plan._buffers):
        prev = last_tenant.get(id(buf))
        if prev is not None:
            assert release[prev] <= pos, f"position {pos} reuses {prev} while it is live"
        last_tenant[id(buf)] = pos
    assert plan.arena_nbytes() <= plan.arena_nbytes_raw()


def _check_fuse(plan: GraphPlan) -> None:
    """Fused members never also run as standalone schedule items."""
    chains = _fused_chains(plan)
    assert len(chains) == plan.fused_chains
    standalone = {op for _start, op in plan._schedule if type(op) is int}
    for chain in chains:
        assert len(chain.members) >= 2
        assert standalone.isdisjoint(chain.members)


def _check_dce(plan: GraphPlan) -> None:
    """Every captured closure is scheduled, fused into a chain, or dropped."""
    interior = sum(len(chain.members) - 1 for chain in _fused_chains(plan))
    assert len(plan._schedule) + interior + plan.dce_dropped == len(plan._bw_records)


_PASS_CHECKS = {"alias": _check_alias, "fuse": _check_fuse, "dce": _check_dce}


# ---------------------------------------------------------------------------
# the wall: the pipeline for every model in both dtypes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_pass_trajectory_bitwise_equals_unplanned(name, dtype, spec):
    plain_losses, plain_state, _ = _run(name, dtype, planned=False)
    plan_losses, plan_state, plan = _run(name, dtype, planned=True)
    for step, (a, b) in enumerate(zip(plan_losses, plain_losses)):
        _assert_bitwise(a, b, f"{name}/{dtype} loss at step {step}")
    assert plan_state.keys() == plain_state.keys()
    for key in plain_state:
        _assert_bitwise(plan_state[key], plain_state[key], f"{name}/{dtype} {key}")
    assert plan.diverged_steps == 0
    assert plan.topo_captures == 1
    assert plan.topo_replays == STEPS - 1
    assert plan._schedule is not None  # the pipeline compiled
    check = _PASS_CHECKS.get(spec)
    if check is not None:
        check(plan)


# ---------------------------------------------------------------------------
# each pass must engage on a workload shaped for it
# ---------------------------------------------------------------------------

def _chain_workload(planned: bool, steps: int = STEPS, swap_at: int | None = None):
    """A tanh-GELU MLP dense in single-consumer elementwise chains.

    ``swap_at`` replaces the ``tanh`` with a ``sigmoid`` on that one step:
    same shapes and parents, so only the op tags can tell the steps apart.
    """
    with nn.default_dtype("float64"):
        rng = np.random.default_rng(5)
        w1 = nn.Parameter(rng.standard_normal((8, 16)))
        w2 = nn.Parameter(rng.standard_normal((16, 4)))
        x = nn.Tensor(rng.standard_normal((12, 8)))
        optimizer = SGD([w1, w2], lr=0.05, momentum=0.9)
        plan = GraphPlan() if planned else None
        losses = []
        for step in range(steps):
            with plan.step() if plan is not None else nullcontext():
                h = x @ w1
                z = h * 0.797884
                gate = z.sigmoid() if step == swap_at else z.tanh()
                h = (h * 0.5) * (gate + 1.0)
                out = -((h @ w2).sigmoid().log())
                loss = out.sum() / 48.0
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            losses.append(loss.data.copy())
        return losses, (w1.data.copy(), w2.data.copy()), plan


def _assert_same_run(got, want, what: str) -> None:
    (got_losses, got_params), (want_losses, want_params) = got, want
    for step, (a, b) in enumerate(zip(got_losses, want_losses)):
        _assert_bitwise(a, b, f"{what} loss at step {step}")
    for a, b in zip(got_params, want_params):
        _assert_bitwise(a, b, f"{what} parameter")


def test_fusion_finds_chains_and_stays_bitwise():
    plain_losses, plain_params, _ = _chain_workload(False)
    losses, params, plan = _chain_workload(True)
    assert plan.fused_chains > 0
    _assert_same_run((losses, params), (plain_losses, plain_params), "fused")


def test_all_passes_on_chain_workload_bitwise():
    plain_losses, plain_params, _ = _chain_workload(False)
    losses, params, plan = _chain_workload(True)
    assert plan.fused_chains > 0 and plan.dce_dropped > 0 and plan.aliased_positions > 0
    _assert_same_run((losses, params), (plain_losses, plain_params), "planned")


@pytest.mark.parametrize("name", ["mlp", "resnet20"])
def test_alias_pass_shrinks_arena(name):
    _, _, plan = _train(name, "float32", planned=True)
    assert plan.aliased_positions > 0
    # distinct storage strictly smaller than one buffer per position
    assert plan.arena_nbytes() < plan.arena_nbytes_raw()


def test_dce_drops_leaf_items():
    _, _, plan = _train("mlp", "float32", planned=True)
    assert plan.dce_dropped > 0


def test_steady_state_counters_hold_under_all_passes():
    _, _, plan = _train("mlp", "float32", planned=True, steps=6)
    assert plan.fresh_checkouts == len(plan._buffers)
    assert plan.reused_checkouts == (plan.steps - 1) * plan.fresh_checkouts


# ---------------------------------------------------------------------------
# divergence safety: a compiled schedule must never outlive its tape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["all", "default"])
def test_shape_change_falls_back_under_passes(spec):
    """A shorter batch mid-loop diverges to allocation; ``spec`` as in :data:`SPECS`."""
    build_fn, batch_fn = _model_case("mlp")

    def run(planned: bool):
        plan = GraphPlan() if planned else None
        losses = []
        with nn.default_dtype("float32"):
            full = batch_fn(np.random.default_rng(7))[0]
            partial = tuple(arr[: max(1, len(arr) // 2)] for arr in full)
            loss_fn = batch_fn(np.random.default_rng(0))[1]
            model = build_fn(0)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for batch in (full, full, partial, full):
                inputs = _as_inputs(batch, stacked=False)
                with plan.step() if plan is not None else nullcontext():
                    loss = loss_fn(model, *inputs)
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                losses.append(loss.data.copy())
            state = model.state_dict()
        return losses, state, plan

    plain_losses, plain_state, _ = run(False)
    plan_losses, plan_state, plan = run(True)
    for step, (a, b) in enumerate(zip(plan_losses, plain_losses)):
        _assert_bitwise(a, b, f"loss at step {step}")
    for key in plain_state:
        _assert_bitwise(plan_state[key], plain_state[key], f"param {key}")
    assert plan.diverged_steps == 1


def test_swapped_op_does_not_replay_compiled_schedule(monkeypatch):
    """An op swapped at a captured position (same shapes) is caught by its tag."""
    replayed_steps: list[int] = []
    execute = GraphPlan.execute_schedule

    def recording(plan: GraphPlan) -> None:
        replayed_steps.append(plan.steps)
        execute(plan)

    monkeypatch.setattr(GraphPlan, "execute_schedule", recording)
    steps, swap_at = 5, 2
    plain = _chain_workload(False, steps=steps, swap_at=swap_at)
    losses, params, plan = _chain_workload(True, steps=steps, swap_at=swap_at)
    assert plan.fused_chains > 0
    # step indices are 0-based, plan.steps 1-based: capture is step 1, the
    # swapped step is plan step swap_at + 1, and the steps after it resume
    assert replayed_steps == [2, 4, 5]
    assert plan.diverged_steps == 1
    _assert_same_run((losses, params), plain[:2], "op-swapped")


# ---------------------------------------------------------------------------
# trainers: every planned fit compiles the pipeline
# ---------------------------------------------------------------------------

def _rn20_workloads(seeds):
    from repro.experiments.settings import get_setting
    from repro.experiments.workloads import build_workload

    return [build_workload(get_setting("RN20-CIFAR10"), seed=s, size_scale=0.1) for s in seeds]


def _assert_compiled(plan: GraphPlan | None) -> None:
    assert plan is not None and plan.steps == 2
    assert plan._schedule is not None
    assert plan.aliased_positions > 0 and plan.dce_dropped > 0
    assert plan.topo_replays == 1 and plan.diverged_steps == 0


def test_trainer_threads_plan_passes_to_its_plan():
    from repro.optim import build_optimizer
    from repro.training.trainer import Trainer

    with nn.default_dtype("float32"):
        (workload,) = _rn20_workloads([0])
        optimizer = build_optimizer("sgdm", workload.model.parameters(), lr=0.05)
        trainer = Trainer(
            model=workload.model,
            optimizer=optimizer,
            task=workload.task,
            train_loader=workload.train_loader,
            dtype="float32",
            plan=True,
        )
        trainer.fit(2)
    _assert_compiled(trainer.last_plan)


def test_batched_trainer_threads_plan_passes():
    from repro.data import StackedLoader
    from repro.optim import build_optimizer
    from repro.training.batched import BatchedTrainer

    with nn.default_dtype("float32"):
        workloads = _rn20_workloads([0, 1])
        model = nn.stack_modules([workload.model for workload in workloads])
        trainer = BatchedTrainer(
            model=model,
            optimizer=build_optimizer("sgdm", model.parameters(), lr=0.05),
            task=workloads[0].task,
            train_loader=StackedLoader([workload.train_loader for workload in workloads]),
            plan=True,
        )
        trainer.fit(2)
    _assert_compiled(trainer.last_plan)
