"""Compiler passes over a captured :class:`~repro.nn.plan.GraphPlan` tape.

After the capture step a plan holds a complete intermediate representation of
the training step: the arena checkout log (``_keys``), the graph signature
(``_sigs``/``_reqs``/``_ops``), the per-node registration watermarks
(``_node_pos``) and the backward execution records (``_bw_records`` — one
``(node, start, end)`` checkout range per executed closure).  ``compile_step``
runs three passes over that IR and installs a *backward schedule* the plan
replays on every later step.  The passes are not selectable: every planned
step compiles all three, and ``REPRO_PLAN=0`` / ``--no-plan`` (no plan at
all) is the unplanned oracle they are checked against.

``alias`` — buffer lifetime analysis + storage aliasing
    The arena cursor is a clock: every checkout position has a birth time (its
    own index) and a conservative release time derived from ownership.  A
    forward position belongs to the interior node whose op checked it out (the
    first node registered at-or-after it) and dies when that node's backward
    closure finishes — the closure is the node's last captured reader, because
    every consumer's closure runs *earlier* (consumers are topologically later,
    so their closures come first in reverse-topo order).  Positions whose
    contents outlive the step are pinned: the backward root's forward buffers
    (trainers read ``loss.data`` after the step scope), every closure range
    that touches a leaf parent (parameter/input gradients are read by
    optimizers and tests after backward), and anything checked out after
    backward.  A greedy scan then remaps each position onto the oldest
    same-``(shape, dtype)`` storage whose release time has passed.  Values are
    unaffected — positions only share storage when their captured live ranges
    are disjoint — so bitwise equality with unplanned execution is preserved.

``fuse`` — single-consumer elementwise chain fusion
    Chains of tagged elementwise nodes (``relu``/``tanh``/``sigmoid``/``exp``/
    ``log``/``neg``/``pow`` and ``add``/``sub``/``mul``/``div`` against a
    scalar constant) where each producer has exactly one consumer collapse
    into one :class:`FusedChain`.  The fused kernel replays the *same numpy
    calls in the same order* as the member closures, staged through
    preallocated buffers, and runs at the chain head's original schedule slot
    — so the single observable accumulation (into the head's parent) happens
    at the captured position with byte-identical values.  Interior gradients
    of a chain are unobservable by construction (single consumer), which is
    what licenses not materialising them.

``dce`` — dead-node elimination
    Drops schedule items that provably no-op: leaf closures (the shared
    ``_leaf_backward``) and interior nodes whose gradient can never flow from
    the root (no live consumer path with ``requires_grad``).  Dropped closures
    made zero checkouts during capture, so the arena walk is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.plan import GraphPlan
    from repro.nn.tensor import Tensor

__all__ = ["FusedChain", "compile_step"]


# ---------------------------------------------------------------------------
# fused elementwise chains
# ---------------------------------------------------------------------------

#: ops whose backward is a pure function of (incoming grad, forward data)
_UNARY_KINDS = frozenset({"relu", "tanh", "sigmoid", "exp", "log", "neg", "pow"})
#: binary ops fusible when one operand is a scalar constant leaf
_BINARY_KINDS = frozenset({"add", "sub", "mul", "div"})


class _Fus:
    """Per-node fusibility record: op kind plus resolved operand roles."""

    __slots__ = ("kind", "meta", "main", "const", "side")

    def __init__(self, kind: str, meta: object, main: int, const: int | None, side: int) -> None:
        self.kind = kind
        self.meta = meta
        self.main = main
        self.const = const
        self.side = side


def _is_identity(info: _Fus) -> bool:
    """Whether the op's backward passes the gradient through unchanged."""
    return info.kind == "add" or (info.kind == "sub" and info.side == 1)


class FusedChain:
    """One fused backward kernel replacing a chain of elementwise closures.

    ``steps`` replicate the member closures' numpy calls tail-to-head through
    preallocated staging buffers; the result accumulates into the chain
    head's main parent exactly like the head's original closure did
    (``own=False`` for identity heads so the accumulate's checkout lands on
    the captured position, ``own=True`` otherwise).
    """

    __slots__ = ("head_idx", "tail_idx", "parent_idx", "members", "steps", "final_own", "staging_nbytes")

    def __init__(
        self,
        head_idx: int,
        tail_idx: int,
        parent_idx: int,
        members: tuple[int, ...],
        steps: "list[Callable[[np.ndarray, list[Tensor]], np.ndarray]]",
        final_own: bool,
        staging_nbytes: int,
    ) -> None:
        self.head_idx = head_idx
        self.tail_idx = tail_idx
        self.parent_idx = parent_idx
        self.members = members
        self.steps = steps
        self.final_own = final_own
        self.staging_nbytes = staging_nbytes

    def execute(self, plan: "GraphPlan", nodes: "list[Tensor]") -> None:
        g = nodes[self.tail_idx].grad
        if g is None:
            return
        with np.errstate():
            for step in self.steps:
                g = step(g, nodes)
        parent = nodes[self.parent_idx]
        if parent.requires_grad:
            parent._accumulate(g, own=self.final_own)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusedChain(members={self.members}, parent={self.parent_idx})"


def _fusible(idx: int, sigs: list, reqs: list[bool], ops: dict[int, tuple]) -> _Fus | None:
    """Classify node ``idx`` as a fusible elementwise op, or ``None``."""
    tag = ops.get(idx)
    if tag is None:
        return None
    kind, meta = tag
    shape, dtnum, parents = sigs[idx]
    if not parents:
        return None
    if kind in _UNARY_KINDS:
        if len(parents) != 1:
            return None
        main, const, side = parents[0], None, -1
    elif kind in _BINARY_KINDS:
        if len(parents) != 2:
            return None

        def is_const(p: int) -> bool:
            s = sigs[p]
            return (
                s[2] is None
                and not reqs[p]
                and int(np.prod(s[0], dtype=np.int64)) <= 1
                and s[1] == dtnum
            )

        if is_const(parents[1]) and reqs[parents[0]]:
            side = 1
        elif is_const(parents[0]) and reqs[parents[1]]:
            side = 0
        else:
            return None
        if kind == "div" and side != 1:
            # only x / const has a fusible (single ufunc) backward
            return None
        const = parents[side]
        main = parents[1 - side]
    else:
        return None
    if not (reqs[idx] and reqs[main]):
        return None
    main_sig = sigs[main]
    if main_sig[0] != shape or main_sig[1] != dtnum:
        return None
    return _Fus(kind, meta, main, const, side)


def _member_step(
    m: int, info: _Fus, nodes: "list[Tensor]"
) -> "tuple[Callable[[np.ndarray, list[Tensor]], np.ndarray] | None, int]":
    """Build the staging kernel for one chain member (``None`` = identity).

    Each kernel performs the *same ufunc calls on the same operands* as the
    member's original backward closure (see the matching ops in
    :mod:`repro.nn.tensor`), differing only in where the result is stored —
    a chain-owned staging buffer instead of an arena checkout.
    """
    kind = info.kind
    if _is_identity(info):
        return None, 0
    data = nodes[m].data
    shape, dt = data.shape, data.dtype
    buf = np.empty(shape, dt)
    nbytes = buf.nbytes
    if kind == "neg" or (kind == "sub" and info.side == 0):

        def step(g: np.ndarray, nodes: list, _b=buf) -> np.ndarray:
            np.negative(g, out=_b)
            return _b

    elif kind == "mul":

        def step(g: np.ndarray, nodes: list, _b=buf, _c=info.const) -> np.ndarray:
            np.multiply(g, nodes[_c].data, out=_b)
            return _b

    elif kind == "div":

        def step(g: np.ndarray, nodes: list, _b=buf, _c=info.const) -> np.ndarray:
            np.true_divide(g, nodes[_c].data, out=_b)
            return _b

    elif kind == "exp":

        def step(g: np.ndarray, nodes: list, _b=buf, _i=m) -> np.ndarray:
            np.multiply(g, nodes[_i].data, out=_b)
            return _b

    elif kind == "log":

        def step(g: np.ndarray, nodes: list, _b=buf, _p=info.main) -> np.ndarray:
            np.true_divide(g, nodes[_p].data, out=_b)
            return _b

    elif kind == "tanh":

        def step(g: np.ndarray, nodes: list, _b=buf, _i=m) -> np.ndarray:
            np.power(nodes[_i].data, 2, out=_b)
            np.subtract(1.0, _b, out=_b)
            np.multiply(g, _b, out=_b)
            return _b

    elif kind == "sigmoid":
        buf2 = np.empty(shape, dt)
        nbytes += buf2.nbytes

        def step(g: np.ndarray, nodes: list, _b=buf, _b2=buf2, _i=m) -> np.ndarray:
            d = nodes[_i].data
            np.multiply(g, d, out=_b)
            np.subtract(1.0, d, out=_b2)
            np.multiply(_b, _b2, out=_b)
            return _b

    elif kind == "relu":
        mask = np.empty(shape, bool)
        nbytes += mask.nbytes

        def step(g: np.ndarray, nodes: list, _b=buf, _m=mask, _p=info.main) -> np.ndarray:
            np.greater(nodes[_p].data, 0, out=_m)
            np.multiply(g, _m, out=_b)
            return _b

    elif kind == "pow":
        buf2 = np.empty(shape, dt)
        nbytes += buf2.nbytes

        def step(
            g: np.ndarray, nodes: list, _b=buf, _b2=buf2, _p=info.main, _k=info.meta
        ) -> np.ndarray:
            np.multiply(g, _k, out=_b)
            np.power(nodes[_p].data, _k - 1, out=_b2)
            np.multiply(_b, _b2, out=_b)
            return _b

    else:  # pragma: no cover - _fusible admits only the kinds above
        raise AssertionError(f"unfusible kind {kind!r}")
    return step, nbytes


def _find_chains(
    records: list[tuple[int, int, int]],
    sigs: list,
    reqs: list[bool],
    ops: dict[int, tuple],
    nodes: "list[Tensor]",
    live: set[int],
) -> list[FusedChain]:
    """Extract maximal fusible producer->unique-consumer chains (length >= 2)."""
    consumers: dict[int, int] = {}
    for sig in sigs:
        parents = sig[2]
        if parents:
            for p in parents:
                consumers[p] = consumers.get(p, 0) + 1
    fus: dict[int, _Fus] = {}
    for idx, _start, _end in records:
        if idx in fus:
            continue
        info = _fusible(idx, sigs, reqs, ops)
        if info is not None:
            fus[idx] = info
    # link producer -> its unique fusible consumer (through the main operand)
    nxt: dict[int, int] = {}
    for idx, info in fus.items():
        m = info.main
        if m in fus and consumers.get(m, 0) == 1:
            nxt[m] = idx
    prev = {v: k for k, v in nxt.items()}
    chains: list[FusedChain] = []
    for start_idx in fus:
        if start_idx in prev or start_idx not in nxt:
            continue  # mid-chain, or no fusible consumer at all
        path = [start_idx]
        while path[-1] in nxt:
            path.append(nxt[path[-1]])
        if any(m not in live for m in path):
            continue  # gradient never reaches this chain; leave it to dce
        head, tail = path[0], path[-1]
        steps: list = []
        staging = 0
        for m in reversed(path):  # execution order: tail's grad flows to head
            step, nbytes = _member_step(m, fus[m], nodes)
            staging += nbytes
            if step is not None:
                steps.append(step)
        chains.append(
            FusedChain(
                head_idx=head,
                tail_idx=tail,
                parent_idx=fus[head].main,
                members=tuple(path),
                steps=steps,
                final_own=not _is_identity(fus[head]),
                staging_nbytes=staging,
            )
        )
    return chains


# ---------------------------------------------------------------------------
# liveness (``dce``)
# ---------------------------------------------------------------------------

def _compute_live(
    records: list[tuple[int, int, int]], sigs: list, reqs: list[bool], root_idx: int
) -> set[int]:
    """Nodes whose gradient is reachable from the backward root.

    Records run in execution order (reverse topological), so every consumer
    is processed before its producers and one pass suffices.
    """
    live = {root_idx}
    for idx, _start, _end in records:
        if idx in live and reqs[idx]:
            parents = sigs[idx][2]
            if parents:
                for p in parents:
                    if reqs[p]:
                        live.add(p)
    return live


# ---------------------------------------------------------------------------
# buffer lifetime analysis + aliasing (``alias``)
# ---------------------------------------------------------------------------

def _release_times(plan: "GraphPlan", chains: list[FusedChain]) -> list[float]:
    """Conservative release time (arena position) for every checkout position.

    ``inf`` pins a position to private storage for the whole step.  See the
    module docstring for the ownership model.
    """
    sigs = plan._sigs
    node_pos = plan._node_pos
    records = plan._bw_records
    total = len(plan._keys)
    bw_start, seed_end, bw_end = plan._bw_start, plan._bw_seed_end, plan._bw_end
    root_idx = plan._bw_root
    inf = float("inf")
    closure_end = {idx: end for idx, _start, end in records}
    for chain in chains:
        # fused kernels read member data at the head's slot, later than the
        # members' own (skipped) slots — extend their lifetimes accordingly
        head_end = closure_end[chain.head_idx]
        for m in chain.members:
            if closure_end.get(m, 0) < head_end:
                closure_end[m] = head_end
    release: list[float] = [inf] * total
    # forward segment: positions belong to the first interior node registered
    # at-or-after them (ops check buffers out, then register their result)
    ptr = 0
    for i in range(len(sigs)):
        if ptr >= bw_start:
            break
        if sigs[i][2] is None:
            continue
        npos = min(node_pos[i], bw_start)
        if npos > ptr:
            end = inf if i == root_idx else closure_end.get(i, inf)
            for p in range(ptr, npos):
                release[p] = end
            ptr = npos
    # positions between the last registration and backward (no_grad metrics)
    # keep the pinning default, as does everything after backward
    for p in range(bw_start, seed_end):
        release[p] = bw_end  # the root-gradient seed dies with backward
    for idx, start, end in records:
        parents = sigs[idx][2] or ()
        pinned = any(sigs[p][2] is None for p in parents)
        r = inf if pinned else bw_end
        for p in range(start, min(end, total)):
            release[p] = r
    return release


def _alias_storage(plan: "GraphPlan", chains: list[FusedChain]) -> list[int]:
    """Greedy storage remap: position -> position whose buffer it shares."""
    keys = plan._keys
    release = _release_times(plan, chains)
    total = len(keys)
    storage = list(range(total))
    # per-(shape, dtype) storages with their current release time
    free: dict[tuple, list[list]] = {}
    for p in range(total):
        rel = release[p]
        bucket = free.get(keys[p])
        reused = False
        if bucket:
            for entry in bucket:
                if entry[0] <= p:
                    storage[p] = entry[1]
                    entry[0] = rel
                    reused = True
                    break
        if not reused:
            if bucket is None:
                free[keys[p]] = [[rel, p]]
            else:
                bucket.append([rel, p])
    return storage


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def compile_step(plan: "GraphPlan") -> None:
    """Run ``dce``, ``fuse`` and ``alias`` and install the compiled backward schedule."""
    records = plan._bw_records
    sigs = plan._sigs
    reqs = plan._reqs
    ops = plan._ops
    live = _compute_live(records, sigs, reqs, plan._bw_root)
    chains = _find_chains(records, sigs, reqs, ops, plan._nodes, live)
    head_to_chain = {chain.head_idx: chain for chain in chains}
    fused_members = {m for chain in chains for m in chain.members if m != chain.head_idx}
    schedule: list[tuple] = []
    dropped = 0
    for idx, start, _end in records:
        chain = head_to_chain.get(idx)
        if chain is not None:
            schedule.append((start, chain))
            continue
        if idx in fused_members:
            continue  # executes inside its chain, at the head's slot
        if sigs[idx][2] is None or idx not in live:
            dropped += 1  # leaf default closure, or unreachable gradient
            continue
        schedule.append((start, idx))
    plan.fused_chains = len(chains)
    plan.dce_dropped = dropped
    plan._staging_nbytes = sum(chain.staging_nbytes for chain in chains)
    plan._pre_bw_tags = sum(1 for i in ops if i < plan._bw_nodes)
    storage = _alias_storage(plan, chains)
    buffers = plan._buffers
    plan._buffers = [buffers[storage[p]] for p in range(len(buffers))]
    plan.aliased_positions = sum(1 for p, sp in enumerate(storage) if sp != p)
    plan._schedule = schedule
