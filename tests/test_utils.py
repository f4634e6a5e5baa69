"""Tests for seeding, run records and text plotting utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.records import RunIndex, RunRecord, RunStore
from repro.utils.seeding import SeedSequence, set_global_seed, spawn_rng, stable_hash
from repro.utils.textplot import ascii_plot, ascii_table, format_mean_std, series_to_csv
from repro.utils.logging import get_logger, configure


class TestSeeding:
    def test_stable_hash_is_deterministic_across_processes(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_spawn_rng_streams(self):
        a = spawn_rng("data", 0, seed=3).standard_normal(5)
        b = spawn_rng("data", 0, seed=3).standard_normal(5)
        c = spawn_rng("data", 1, seed=3).standard_normal(5)
        np.testing.assert_allclose(a, b)
        assert not np.allclose(a, c)

    def test_global_seed_changes_default_stream(self):
        set_global_seed(1)
        a = spawn_rng("x").standard_normal(3)
        set_global_seed(2)
        b = spawn_rng("x").standard_normal(3)
        set_global_seed(0)
        assert not np.allclose(a, b)

    def test_seed_sequence(self):
        seq = SeedSequence(base_seed=1, namespace="trial")
        first, second = seq.next(), seq.next()
        assert first != second
        assert seq.issued == (first, second)
        assert seq.seed_for(0) == first


def record(schedule="rex", metric=1.0, budget=0.05, setting="A", optimizer="sgdm", seed=0, higher=False):
    return RunRecord(
        setting=setting,
        optimizer=optimizer,
        schedule=schedule,
        budget_fraction=budget,
        learning_rate=0.1,
        seed=seed,
        metric=metric,
        higher_is_better=higher,
    )


class TestRunStore:
    def test_filter_group_and_aggregate(self):
        store = RunStore(
            [
                record(metric=1.0, seed=0),
                record(metric=3.0, seed=1),
                record(schedule="linear", metric=2.0),
            ]
        )
        rex = store.filter(schedule="rex")
        assert len(rex) == 2
        assert rex.mean_metric() == 2.0
        assert rex.std_metric() == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert rex.best_metric() == 1.0
        assert store.filter(schedule=["rex", "linear"]).unique("schedule") == ["rex", "linear"]
        groups = store.group_by("schedule")
        assert set(groups) == {("rex",), ("linear",)}
        summary = rex.summary()
        assert summary["count"] == 2

    def test_best_metric_respects_direction(self):
        store = RunStore([record(metric=10.0, higher=True), record(metric=20.0, higher=True)])
        assert store.best_metric() == 20.0

    def test_empty_aggregation_raises(self):
        with pytest.raises(ValueError):
            RunStore().mean_metric()

    def test_save_and_load_roundtrip(self, tmp_path):
        store = RunStore([record(), record(schedule="linear", metric=2.5)])
        path = tmp_path / "results" / "store.json"
        store.save(path)
        loaded = RunStore.load(path)
        assert len(loaded) == 2
        assert loaded.filter(schedule="linear").mean_metric() == 2.5

    def test_where_predicate(self):
        store = RunStore([record(budget=0.01), record(budget=0.5)])
        low = store.where(lambda r: r.budget_fraction < 0.25)
        assert len(low) == 1



class TestRunIndex:
    """Indexed lookups return exactly what ``RunStore.filter`` returns."""

    @staticmethod
    def same(a: RunStore, b: RunStore) -> bool:
        return [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_exact_and_missing_lookups(self):
        store = RunStore([record(budget=b, schedule=s, seed=i) for i in range(2) for s in ("rex", "linear")
                          for b in (0.25, 1.0)])
        index = RunIndex(store, "schedule", "budget_fraction")
        for schedule in ("rex", "linear", "step"):
            for budget in (0.25, 1.0, 1, 0.5):
                assert self.same(index.lookup(schedule, budget),
                                 store.filter(schedule=schedule, budget_fraction=budget))

    def test_near_equal_query_matches_within_tolerance(self):
        store = RunStore([record(budget=0.1 + 0.2, metric=1.0), record(budget=0.05, metric=2.0)])
        hit = RunIndex(store, "schedule", "budget_fraction").lookup("rex", 0.3)
        assert len(hit) == 1 and hit.mean_metric() == 1.0

    def test_near_equal_keys_merge_in_store_order(self):
        store = RunStore([record(budget=0.3, metric=1.0), record(budget=0.05, metric=5.0),
                          record(budget=0.1 + 0.2, metric=2.0), record(budget=0.3, metric=4.0)])
        index = RunIndex(store, "schedule", "budget_fraction")
        merged = index.lookup("rex", 0.3)
        assert [r.metric for r in merged] == [1.0, 2.0, 4.0]
        assert self.same(merged, store.filter(schedule="rex", budget_fraction=0.3))


class TestTextPlot:
    def test_ascii_plot_contains_legend_and_title(self):
        plot = ascii_plot({"rex": [1, 2, 3], "linear": [3, 2, 1]}, title="demo", ylabel="lr")
        assert "demo" in plot
        assert "rex" in plot and "linear" in plot
        assert "y: lr" in plot

    def test_ascii_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError):
            ascii_plot({"a": [1, 2]}, x=[1])

    def test_ascii_table_alignment(self):
        table = ascii_table([["rex", 1.234], ["linear", 10.5]], headers=["method", "error"])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "method" in lines[0]
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_mean_std_matches_paper_style(self):
        assert format_mean_std(27.94, 0.46) == "27.94 ± .46"
        assert format_mean_std(40.14, 2.62) == "40.14 ± 2.62"

    def test_series_to_csv(self):
        csv = series_to_csv({"a": [1, 2]}, x=[0.1, 0.2], x_name="budget")
        lines = csv.splitlines()
        assert lines[0] == "budget,a"
        assert lines[1].startswith("0.1,")


class TestLogging:
    def test_logger_namespacing(self):
        configure()
        assert get_logger("training").name == "repro.training"
        assert get_logger("repro.x").name == "repro.x"
