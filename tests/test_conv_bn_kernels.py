"""Bitwise oracles for the conv fold/unfold kernels and the one-node batch norm.

``im2col``/``col2im`` gather and scatter through cached index maps; the
references below are the kernels they replaced (a strided sliding-window copy
and a loop of strided ``+=`` over the kernel taps), kept here so the new
kernels are pinned to them bit for bit.  ``functional.batch_norm`` is pinned
the same way to the chain of ``Tensor`` ops it fuses, which stays in the
module as ``_BatchNorm._normalise_composed``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.batched import seed_stacked, stack_modules
from repro.nn.modules.norm import BatchNorm1d, BatchNorm2d
from repro.nn.tensor import Tensor

DTYPES = ("float64", "float32")
KERNELS = [(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)]


def ref_im2col(x, kernel_h, kernel_w, stride, padding):
    """Strided sliding-window view, then one gathering copy into column layout."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    src = windows.transpose(0, 1, 4, 5, 2, 3)
    cols = np.ascontiguousarray(src.reshape(n, c * kernel_h * kernel_w, out_h * out_w))
    return cols, out_h, out_w


def ref_col2im(cols, input_shape, kernel_h, kernel_w, stride, padding):
    """Strided ``+=`` of each kernel tap's columns, in (i, j) order, into zeros."""
    n, c, h, w = input_shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), cols.dtype)
    cols6 = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _images(rng, shape, dtype, contiguous):
    """NCHW data; the non-contiguous variant is a transposed view of the same values."""
    data = (rng.standard_normal(shape) * 3.0).astype(dtype)
    if contiguous:
        return data
    view = np.ascontiguousarray(data.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    assert not view.flags.c_contiguous and np.array_equal(view, data)
    return view


def _planned_steps(fn, steps=3):
    """``fn()`` under a capture step and the replay steps after it."""
    plan = nn.GraphPlan()
    results = []
    for _ in range(steps):
        with plan.step():
            results.append(fn())
    assert plan.steps == steps and plan.diverged_steps == 0
    return results


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


class TestFoldUnfold:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel,stride,padding", KERNELS)
    @pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
    def test_unfold_and_fold_match_reference(
        self, rng, dtype, kernel, stride, padding, contiguous, planned
    ):
        shape = (3, 2, 7, 6)
        x = _images(rng, shape, dtype, contiguous)
        want_cols, out_h, out_w = ref_im2col(x, kernel, kernel, stride, padding)
        grad_cols = rng.standard_normal(want_cols.shape).astype(dtype)
        want_fold = ref_col2im(grad_cols, shape, kernel, kernel, stride, padding)

        def run():
            cols, oh, ow = F.im2col(x, kernel, kernel, stride, padding)
            folded = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
            return cols.copy(), oh, ow, np.array(folded)

        for cols, oh, ow, folded in _planned_steps(run) if planned else [run()]:
            assert (oh, ow) == (out_h, out_w)
            assert _same(cols, want_cols)
            assert _same(folded, want_fold)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", [2, 3])
    def test_pooling_slabs_match_reference(self, rng, dtype, kernel):
        # pooling unfolds (rows, 1, H, W) slabs with stride == kernel
        slab = _images(rng, (5 * 3, 1, 6, 6), dtype, contiguous=True)
        want_cols, _, _ = ref_im2col(slab, kernel, kernel, kernel, 0)
        cols, _, _ = F.im2col(slab, kernel, kernel, kernel, 0)
        assert _same(cols, want_cols)
        grad_cols = rng.standard_normal(cols.shape).astype(dtype)
        assert _same(
            F.col2im(grad_cols, slab.shape, kernel, kernel, kernel, 0),
            ref_col2im(grad_cols, slab.shape, kernel, kernel, kernel, 0),
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fold_in_blocks_matches_reference(self, rng, dtype, monkeypatch):
        # a batch larger than one fold map folds block by block, images in order
        shape = (7, 3, 5, 5)
        cols = rng.standard_normal((7, 27, 25)).astype(dtype)
        monkeypatch.setattr(F, "FOLD_BLOCK_ENTRIES", 2 * 27 * 25 + 1)
        assert _same(F.col2im(cols, shape, 3, 3, 1, 1), ref_col2im(cols, shape, 3, 3, 1, 1))
        assert F._index_map(2, 3, 5, 5, 3, 3, 1, 1).size <= F.FOLD_BLOCK_ENTRIES

    def test_index_cache_stays_bounded_and_read_only(self):
        F._index_map.cache_clear()
        for h in range(4, 4 + 2 * F.INDEX_CACHE_SIZE):
            idx = F._index_map(1, 2, h, 5, 3, 3, 1, 1)
            assert idx.dtype == np.intp and not idx.flags.writeable
        info = F._index_map.cache_info()
        assert info.maxsize == F.INDEX_CACHE_SIZE
        assert info.currsize == F.INDEX_CACHE_SIZE
        with pytest.raises(ValueError):
            idx[0, 0, 0] = 1


# ---------------------------------------------------------------------------
# layers built on the kernels: new kernels vs the reference kernels patched in
# ---------------------------------------------------------------------------


def _with_reference_kernels(monkeypatch, fn):
    with monkeypatch.context() as patch:
        patch.setattr(F, "im2col", ref_im2col)
        patch.setattr(F, "col2im", ref_col2im)
        return fn()


def _conv_run(x_data, w_data, b_data, stride, padding, num_seeds=None):
    """Output and x/weight/bias gradients of one conv2d forward + backward."""
    if num_seeds is None:
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
    else:
        x = seed_stacked(x_data)
        x.requires_grad = True
        w = seed_stacked(w_data)
        w.requires_grad = True
        b = seed_stacked(b_data)
        b.requires_grad = True
    out = F.conv2d(x, w, b, stride=stride, padding=padding)
    # every seed receives the serial run's upstream gradient
    seed_shape = out.shape if num_seeds is None else out.shape[1:]
    grad = np.cos(np.arange(np.prod(seed_shape), dtype=out.data.dtype)).reshape(seed_shape)
    out.backward(np.broadcast_to(grad, out.shape))
    return [out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()]


class TestLayersOnTheKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel,stride,padding", KERNELS)
    @pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
    def test_serial_conv(self, rng, monkeypatch, dtype, kernel, stride, padding, planned):
        x = rng.standard_normal((4, 3, 6, 6)).astype(dtype)
        w = rng.standard_normal((5, 3, kernel, kernel)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        with nn.default_dtype(dtype):
            want = _with_reference_kernels(
                monkeypatch, lambda: _conv_run(x, w, b, stride, padding)
            )

            def run():
                return _conv_run(x, w, b, stride, padding)

            for got in _planned_steps(run) if planned else [run()]:
                assert all(_same(g, r) for g, r in zip(got, want))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 2, 0)])
    @pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
    def test_seed_batched_conv_slices_match_serial_reference(
        self, rng, monkeypatch, dtype, kernel, stride, padding, planned
    ):
        seeds = 3
        x = rng.standard_normal((seeds, 4, 2, 6, 6)).astype(dtype)
        w = rng.standard_normal((seeds, 3, 2, kernel, kernel)).astype(dtype)
        b = rng.standard_normal((seeds, 3)).astype(dtype)
        with nn.default_dtype(dtype):
            serial = [
                _with_reference_kernels(
                    monkeypatch, lambda s=s: _conv_run(x[s], w[s], b[s], stride, padding)
                )
                for s in range(seeds)
            ]

            def run():
                return _conv_run(x, w, b, stride, padding, num_seeds=seeds)

            for got in _planned_steps(run) if planned else [run()]:
                for s in range(seeds):
                    assert all(_same(g[s], r) for g, r in zip(got, serial[s])), s

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pool", ["max", "avg"])
    @pytest.mark.parametrize("batched", [False, True], ids=["serial", "seed_batched"])
    def test_pooling(self, rng, monkeypatch, dtype, pool, batched):
        shape = (2, 3, 2, 6, 6) if batched else (3, 2, 6, 6)
        data = rng.standard_normal(shape).astype(dtype)
        op = F.max_pool2d if pool == "max" else F.avg_pool2d

        def run():
            x = seed_stacked(data) if batched else Tensor(data)
            x.requires_grad = True
            out = op(x, 2)
            out.backward(np.sin(np.arange(out.size, dtype=out.data.dtype)).reshape(out.shape))
            return [out.data.copy(), x.grad.copy()]

        with nn.default_dtype(dtype):
            want = _with_reference_kernels(monkeypatch, run)
            for got in [run(), *_planned_steps(run)]:
                assert all(_same(g, r) for g, r in zip(got, want))


# ---------------------------------------------------------------------------
# one-node batch norm vs the composed chain
# ---------------------------------------------------------------------------

#: (module class, serial input shape, reduced axes, statistics shape) per layout;
#: the seed-batched layout prepends the seed axis to all three
BN_LAYOUTS = {
    "bn2d": (BatchNorm2d, (6, 4, 5, 3), (0, 2, 3), (1, 4, 1, 1)),
    "bn1d": (BatchNorm1d, (7, 4), (0,), (1, 4)),
}


def _bn_module(cls, rng, num_seeds):
    def one():
        module = cls(4)
        module.weight.data[...] = rng.standard_normal(4)
        module.bias.data[...] = rng.standard_normal(4)
        module._buffers["running_mean"][...] = rng.standard_normal(4)
        module._buffers["running_var"][...] = rng.random(4) + 0.5
        return module

    if num_seeds is None:
        return one()
    return stack_modules([one() for _ in range(num_seeds)])


def _bn_run(module, x_data, training, composed, axes, shape, num_seeds):
    """Output, running stats and x/weight/bias gradients of one forward + backward."""
    module.train(training)
    module.zero_grad()
    x = seed_stacked(x_data) if num_seeds is not None else Tensor(x_data)
    x.requires_grad = True
    if composed:
        out = module._normalise_composed(x, axes, shape)
    else:
        out = module(x)
        assert out._prev == (x, module.weight, module.bias)  # one node
    grad = np.cos(np.arange(out.size, dtype=out.data.dtype)).reshape(out.shape)
    out.backward(grad)
    return [
        out.data.copy(),
        module._buffers["running_mean"].copy(),
        module._buffers["running_var"].copy(),
        x.grad.copy(),
        module.weight.grad.copy(),
        module.bias.grad.copy(),
    ]


class TestOneNodeBatchNorm:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", sorted(BN_LAYOUTS))
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("seeds", [None, 2], ids=["serial", "seed_batched"])
    @pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
    def test_matches_composed_chain(self, dtype, layout, training, seeds, planned):
        cls, x_shape, axes, shape = BN_LAYOUTS[layout]
        if seeds is not None:
            x_shape = (seeds,) + x_shape
            axes = tuple(a + 1 for a in axes)
            shape = (seeds,) + shape
        steps = 3 if planned else 1
        data_rng = np.random.default_rng(7)
        batches = [(data_rng.standard_normal(x_shape) * 2.0 + 0.5).astype(dtype) for _ in range(steps)]
        with nn.default_dtype(dtype):
            composed = _bn_module(cls, np.random.default_rng(3), seeds)
            want = [
                _bn_run(composed, xb, training, True, axes, shape, seeds) for xb in batches
            ]
            fused = _bn_module(cls, np.random.default_rng(3), seeds)
            batch_iter = iter(batches)

            def run():
                return _bn_run(fused, next(batch_iter), training, False, axes, shape, seeds)

            got = _planned_steps(run, steps) if planned else [run()]
        # each step's values, including the running stats carried between steps
        for step_got, step_want in zip(got, want):
            names = ("out", "running_mean", "running_var", "x.grad", "weight.grad", "bias.grad")
            for name, g, r in zip(names, step_got, step_want):
                assert _same(g, r), name

    def test_emulated_dtype_keeps_the_composed_chain(self):
        module = BatchNorm2d(3)
        with nn.default_dtype("bfloat16"):
            x = Tensor(np.random.default_rng(0).standard_normal((4, 3, 2, 2)), requires_grad=True)
            out = module(x)
        assert out._prev != (x, module.weight, module.bias)

    def test_mixed_dtypes_keep_the_composed_chain(self):
        module = BatchNorm2d(3)  # float64 parameters
        x = Tensor(np.ones((4, 3, 2, 2), dtype=np.float32), requires_grad=True, dtype="float32")
        out = module(x)
        assert out._prev != (x, module.weight, module.bias)
