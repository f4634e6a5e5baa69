"""Self-tests of the benchmark runner's own helpers.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import threading
from pathlib import Path

import pytest

import layers
from spans import Patcher, Span, Tracer, layer_totals, percentile, self_times, tail_percentile, valid_metric_name
from workloads import Measurement

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- request-time statistics --------------------------------------------------


def test_windowed_median_averages_per_artifact_medians_per_window() -> None:
    sink = Measurement()
    # window 0: fig3 1, 1, 9 and table4 4 -> (1 + 4) / 2; window 1: table4 6, 8 -> 7
    for start, artifact, seconds in [(0.0, "fig3", 1.0), (0.5, "fig3", 9.0), (1.0, "table4", 4.0),
                                     (1.5, "fig3", 1.0), (2.5, "table4", 6.0), (3.9, "table4", 8.0)]:
        sink.record(start, artifact, seconds)
    assert sink.windowed_median_s(window=2.0) == pytest.approx((2.5 + 7.0) / 2)
    assert sink.mean_s() == pytest.approx(29.0 / 6)


def test_windowed_median_of_one_request_per_window_is_the_mean() -> None:
    sink = Measurement()
    for index, seconds in enumerate([3.0, 4.0, 8.0]):
        sink.record(3.0 * index, "table4", seconds)
    assert sink.windowed_median_s(window=2.0) == pytest.approx(sink.mean_s())


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("count, expected", [(1000, 99.0), (5000, 99.0), (500, 98.0), (20, 50.0)])
def test_tail_percentile_values(count: int, expected: float) -> None:
    assert tail_percentile(count) == pytest.approx(expected)


def test_tail_percentile_needs_more_than_ten_samples() -> None:
    assert tail_percentile(10) is None
    assert tail_percentile(0) is None
    assert tail_percentile(11) is not None


@pytest.mark.parametrize("count", [11, 57, 480, 999])
def test_tail_percentile_is_the_highest_with_ten_beyond(count: int) -> None:
    rng = random.Random(count)
    samples = rng.sample(range(100 * count), count)
    pct = tail_percentile(count)
    assert sum(value > percentile(samples, pct) for value in samples) >= 10
    # one sample fewer beyond: the next higher percentile no longer qualifies
    higher = 100.0 * (1.0 - 9 / count)
    assert sum(value > percentile(samples, higher) for value in samples) < 10


def test_percentile_interpolates_linearly() -> None:
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    assert percentile([7.0], 99.0) == 7.0


# -- span self-time arithmetic under a fake clock -----------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_nested_spans_on_two_threads() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    steps = [threading.Event() for _ in range(3)]
    done = [threading.Event() for _ in range(3)]
    other: dict[str, Span | None] = {}

    def second_thread() -> None:
        steps[0].wait(5)
        other["x"] = tracer.open("x")  # t=2, on its own stack: no parent
        done[0].set()
        steps[1].wait(5)
        clock.now = 5.0
        other["y"] = tracer.open("y")
        clock.now = 6.0
        tracer.close(other["y"])
        done[1].set()
        steps[2].wait(5)
        tracer.close(other["x"])  # t=8
        done[2].set()

    thread = threading.Thread(target=second_thread)
    thread.start()
    try:
        outer = tracer.open("outer")  # t=0
        clock.now = 1.0
        child = tracer.open("a")
        clock.now = 2.0
        steps[0].set()
        assert done[0].wait(5)
        clock.now = 4.0
        tracer.close(child)
        steps[1].set()
        assert done[1].wait(5)
        clock.now = 7.0
        tracer.close(outer)
        clock.now = 8.0
        steps[2].set()
        assert done[2].wait(5)
    finally:
        thread.join(timeout=5)
    assert not thread.is_alive()

    spans = {span.name: span for span in tracer.spans()}
    assert spans["a"].parent == spans["outer"].sid
    assert spans["x"].parent is None
    assert spans["y"].parent == spans["x"].sid
    assert spans["x"].thread != spans["outer"].thread
    selfs = self_times(list(spans.values()))
    assert selfs[spans["outer"].sid] == pytest.approx(7.0 - 3.0)
    assert selfs[spans["a"].sid] == pytest.approx(3.0)
    assert selfs[spans["x"].sid] == pytest.approx(6.0 - 1.0)
    assert selfs[spans["y"].sid] == pytest.approx(1.0)
    totals = layer_totals(list(spans.values()))
    assert totals["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 4.0}
    # self times of a thread's spans add up to its root span's duration
    assert sum(selfs.values()) == pytest.approx(7.0 + 6.0)


def test_self_times_count_overlapping_children_once() -> None:
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1, None),
        Span(1, "c", 1.0, 5.0, 0, 2, None),
        Span(2, "c", 3.0, 6.0, 0, 3, None),
        Span(3, "c", 9.0, 12.0, 0, 4, None),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_same_name_nesting_records_one_span() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("optim.step")
    assert tracer.open("optim.step") is None
    tracer.close(None)
    clock.now = 2.0
    tracer.close(outer)
    assert [span.name for span in tracer.spans()] == ["optim.step"]


def test_coverage_is_the_layers_share_of_the_roots() -> None:
    spans = [
        Span(0, "bench.report", 0.0, 10.0, None, 1, None),
        Span(1, "nn.conv2d", 1.0, 4.0, 0, 1, None),
        Span(2, "training.fit", 4.0, 9.0, 0, 1, None),
        Span(3, "nn.backward", 5.0, 6.0, 2, 1, None),
    ]
    assert layers.coverage(spans) == pytest.approx(0.8)


def test_coverage_clips_server_spans_to_their_requests() -> None:
    spans = [
        Span(0, "bench.request", 0.0, 10.0, None, 1, None),
        Span(1, "serve.handle", 1.0, 11.0, None, 2, "srv0"),  # ends after the client has its report
        Span(2, "bench.request", 11.0, 21.0, None, 1, None),
        Span(3, "serve.handle", 12.0, 20.0, None, 3, "srv1"),
    ]
    assert layers.coverage(spans) == pytest.approx((9.0 + 8.0) / 20.0)


def test_wait_closed_sees_spans_open_on_other_threads() -> None:
    tracer = Tracer()
    opened, release = threading.Event(), threading.Event()

    def handler() -> None:
        span = tracer.open("serve.handle")
        opened.set()
        release.wait(5)
        tracer.close(span)

    thread = threading.Thread(target=handler)
    thread.start()
    try:
        assert opened.wait(5)
        assert not tracer.wait_closed(timeout=0.01)
        release.set()
        assert tracer.wait_closed(timeout=5)
    finally:
        release.set()
        thread.join(timeout=5)
    assert not thread.is_alive()


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "nn.conv2d_ms", "a-b.c_9", "9lives"])
def test_valid_metric_names(name: str) -> None:
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "ms/op", "naïve", "a\n", "x+y"])
def test_invalid_metric_names(name: str) -> None:
    assert not valid_metric_name(name)


def test_benchmark_names_are_valid_and_unique() -> None:
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))


def test_layer_metrics_are_exactly_the_declared_per_layer_metrics() -> None:
    extra = {
        "serve.first_event_ms": 0.0,
        "reporting.report_bytes": 0.0,
        "trace.overhead_ratio": 1.0,
        "trace.coverage_ratio": 1.0,
    }
    produced = set(layers.layer_metrics(Tracer(), {}, 1, extra))
    assert produced == {entry["name"] for entry in SPEC["per_layer"]}


# -- computed cost --------------------------------------------------------------


def test_conv2d_cost_counts_multiply_adds_and_bytes() -> None:
    # 2 images, 3->4 channels, 3x3 kernel, 8x8 input, padding 1: 8x8 output
    flop, nbytes = layers.conv2d_cost((2, 3, 8, 8), (4, 3, 3, 3), stride=1, padding=1, itemsize=4)
    assert flop == 2 * (2 * 4 * 8 * 8) * 3 * 3 * 3
    assert nbytes == 4 * (2 * 3 * 64 + 4 * 3 * 9 + 2 * 4 * 64)
    flop_strided, _ = layers.conv2d_cost((2, 3, 8, 8), (4, 3, 3, 3), stride=2, padding=1, itemsize=4)
    assert flop_strided == flop // 4


def test_linear_cost() -> None:
    flop, nbytes = layers.linear_cost((16, 10), (5, 10), itemsize=8)
    assert flop == 2 * 16 * 5 * 10
    assert nbytes == 8 * (160 + 50 + 80)


# -- wrappers are fully removed ---------------------------------------------------


_MISSING = object()


def _snapshot(targets: list[tuple[object, object, bool]]) -> list[object]:
    return [owner[attr] if is_item else vars(owner).get(attr, _MISSING) for owner, attr, is_item in targets]


def test_restore_removes_every_wrapper() -> None:
    probe = layers.install(Tracer())
    targets = probe.targets()
    probe.restore()
    before = _snapshot(targets)

    patcher = layers.install(Tracer())
    assert patcher.targets() == targets
    installed = _snapshot(targets)
    assert all(now is not then for now, then in zip(installed, before))
    patcher.restore()
    assert len(patcher) == 0
    after = _snapshot(targets)
    assert all(now is then for now, then in zip(after, before))

    from repro.cli.serve import ExperimentServer

    assert "finish_request" not in vars(ExperimentServer)


def test_untraced_cell_records_zero_spans() -> None:
    from repro.reporting import registry
    from repro.reporting.registry import get_artifact, resolve_scale

    cell = get_artifact("table7").plan(resolve_scale("micro"))[0]
    tracer = Tracer()
    patcher = layers.install(tracer)
    try:
        traced = registry.run_cell(cell)
    finally:
        patcher.restore()
    names = {span.name for span in tracer.spans()}
    assert {"execution.run_cell", "training.fit", "nn.linear", "optim.step", "data.next_batch"} <= names
    assert tracer.counters["linear.flop"] > 0

    recorded = len(tracer)
    untraced = registry.run_cell(cell)
    assert len(tracer) == recorded
    assert untraced.to_dict() == traced.to_dict()


def test_patcher_restores_missing_attributes_and_items() -> None:
    class Base:
        def hook(self) -> str:
            return "base"

    class Child(Base):
        pass

    table = {"k": 1}
    patcher = Patcher()
    patcher.wrap(Child, "hook", lambda fn: lambda self: "wrapped " + fn(self))
    patcher.replace_item(table, "k", 2)
    assert Child().hook() == "wrapped base" and table["k"] == 2
    patcher.restore()
    assert "hook" not in vars(Child) and Child().hook() == "base" and table == {"k": 1}
