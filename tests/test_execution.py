"""Tests for the execution subsystem: plan enumeration, run cache, engine."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution import (
    ExecutionContext,
    ExperimentEngine,
    RunCache,
    config_fingerprint,
    plan_budget_sweep,
    plan_lr_grid,
    plan_setting_table,
    run_configs,
)
from repro.experiments import RunConfig, run_setting_table, select_best_record, tune_learning_rate
from repro.experiments.runner import run_single
from repro.utils.records import RunRecord, RunStore

TINY = dict(size_scale=0.12, epoch_scale=0.1)


def tiny_config(**overrides) -> RunConfig:
    base = dict(
        setting="RN20-CIFAR10", schedule="rex", optimizer="sgdm", budget_fraction=0.25, **TINY
    )
    base.update(overrides)
    return RunConfig(**base)


def make_record(**overrides) -> RunRecord:
    base = dict(
        setting="RN20-CIFAR10",
        optimizer="sgdm",
        schedule="rex",
        budget_fraction=0.25,
        learning_rate=0.1,
        seed=0,
        metric=10.0,
    )
    base.update(overrides)
    return RunRecord(**base)


def stores_equal(a: RunStore, b: RunStore) -> bool:
    return [r.to_dict() for r in a] == [r.to_dict() for r in b]


class TestFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(tiny_config()) == config_fingerprint(tiny_config())

    def test_resolved_fields_hash_identically(self):
        # lr=None resolves to the setting default; spelling the default out
        # explicitly (and changing the setting's case) is the same cell.
        implicit = tiny_config(setting="rn20-cifar10", learning_rate=None)
        explicit = tiny_config(setting="RN20-CIFAR10", learning_rate=0.1)
        assert config_fingerprint(implicit) == config_fingerprint(explicit)

    def test_every_field_is_load_bearing(self):
        base = config_fingerprint(tiny_config())
        for change in (
            dict(schedule="linear"),
            dict(optimizer="adam"),
            dict(budget_fraction=0.5),
            dict(seed=1),
            dict(learning_rate=0.3),
            dict(size_scale=0.2),
            dict(epoch_scale=0.2),
            dict(schedule_kwargs={"delay_fraction": 0.5}),
            dict(dtype="float32"),
        ):
            assert config_fingerprint(tiny_config(**change)) != base, change

    def test_schedule_kwargs_order_is_canonical(self):
        a = tiny_config(schedule_kwargs={"a": 1, "b": 2})
        b = tiny_config(schedule_kwargs={"b": 2, "a": 1})
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_generic_dataclass_configs_supported(self):
        @dataclasses.dataclass(frozen=True)
        class Cell:
            task: str
            seed: int

        assert config_fingerprint(Cell("mrpc", 0)) == config_fingerprint(Cell("mrpc", 0))
        assert config_fingerprint(Cell("mrpc", 0)) != config_fingerprint(Cell("mrpc", 1))

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            config_fingerprint({"setting": "RN20-CIFAR10"})


class TestRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        config = tiny_config()
        record = make_record(extra={"total_steps": 4, "diverged": False})
        cache.put(config, record)
        assert cache.get(config) == record
        assert config in cache
        assert len(cache) == 1
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_then_invalidation_on_changed_kwargs(self, tmp_path):
        cache = RunCache(tmp_path)
        config = tiny_config(schedule="delayed_linear", schedule_kwargs={"delay_fraction": 0.25})
        assert cache.get(config) is None
        cache.put(config, make_record(schedule="delayed_linear"))
        changed = tiny_config(schedule="delayed_linear", schedule_kwargs={"delay_fraction": 0.5})
        assert cache.get(changed) is None
        assert cache.stats.misses == 2

    def test_corrupt_entry_evicted_and_repaired(self, tmp_path):
        cache = RunCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, make_record())
        path.write_text("garbage")
        assert cache.get(config) is None
        assert not path.exists()  # evicted, so the next put can repair it
        cache.put(config, make_record())
        assert cache.get(config) == make_record()

    def test_duplicate_put_is_skipped(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(tiny_config(), make_record())
        cache.put(tiny_config(), make_record())
        assert len(cache) == 1
        assert cache.stats.stores == 1 and cache.stats.skips == 1

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(tiny_config(), make_record())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_clear_tolerates_concurrent_prune(self, tmp_path, monkeypatch):
        """An entry deleted between the glob and the unlink must not crash.

        Regression: the cache directory is shared between processes, and
        ``clear`` crashed with ``FileNotFoundError`` when another process
        pruned an entry it had just listed — ``get`` already tolerated the
        same race with ``missing_ok=True``.  The race is reproduced
        deterministically by pruning the first listed entry from inside the
        glob itself.
        """
        from pathlib import Path

        cache = RunCache(tmp_path)
        cache.put(tiny_config(seed=0), make_record(seed=0))
        cache.put(tiny_config(seed=1), make_record(seed=1))
        real_glob = Path.glob

        def racing_glob(self, pattern):
            paths = sorted(real_glob(self, pattern))
            if paths and self == cache.cache_dir:
                paths[0].unlink()  # the concurrent pruner wins the race
            return iter(paths)

        monkeypatch.setattr(Path, "glob", racing_glob)
        assert cache.clear() == 2  # both listed entries end up gone
        monkeypatch.undo()
        assert len(cache) == 0

    def test_passed_fingerprint_addresses_the_same_entry(self, tmp_path):
        cache = RunCache(tmp_path)
        config = tiny_config()
        fingerprint = config_fingerprint(config)
        path = cache.put(config, make_record(), fingerprint=fingerprint)
        assert path == cache.path_for(config) == tmp_path / f"{fingerprint}.json"
        assert cache.get(config) == cache.get(config, fingerprint=fingerprint) == make_record()
        assert cache.contains(config, fingerprint=fingerprint) and config in cache
        assert not cache.contains(tiny_config(seed=1))


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=20,
)


class TestIntegrityDigest:
    """Reads hash the parsed record directly; that must be the digest writes store."""

    @settings(max_examples=200, deadline=None)
    @given(record=st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=6))
    def test_parsed_json_hashes_like_record_digest(self, record):
        from repro.execution.cache import _payload_hash, record_digest

        parsed = json.loads(json.dumps(record))
        assert _payload_hash(parsed) == record_digest(parsed)

    def test_stored_entries_verify(self, tmp_path):
        from repro.execution.cache import _payload_hash, record_digest

        cache = RunCache(tmp_path)
        cache.put(tiny_config(), make_record(metric=0.1 + 0.2, extra={"curve": [1.5, -0.0, 2]}))
        (path,) = tmp_path.glob("*.json")
        entry = json.loads(path.read_text())
        assert _payload_hash(entry["record"]) == record_digest(entry["record"]) == entry["integrity"]


class TestPlans:
    def test_budget_sweep_order_matches_legacy_loops(self):
        plan = plan_budget_sweep("RN20-CIFAR10", "rex", "sgdm", budgets=(0.05, 0.25), seeds=(0, 1))
        cells = [(c.budget_fraction, c.seed) for c in plan]
        assert cells == [(0.05, 0), (0.05, 1), (0.25, 0), (0.25, 1)]

    def test_setting_table_covers_cross_product(self):
        plan = plan_setting_table(
            "RN20-CIFAR10", schedules=("rex", "linear"), optimizers=("sgdm", "adam"), budgets=(0.25,)
        )
        assert len(plan) == 4
        assert [(c.optimizer, c.schedule) for c in plan] == [
            ("sgdm", "rex"),
            ("sgdm", "linear"),
            ("adam", "rex"),
            ("adam", "linear"),
        ]

    def test_lr_grid_plan_sorted_ascending(self):
        plan = plan_lr_grid(tiny_config(), candidates=[0.3, 0.03, 0.1])
        assert [c.learning_rate for c in plan] == [0.03, 0.1, 0.3]
        with pytest.raises(ValueError):
            plan_lr_grid(tiny_config(), candidates=[])


class TestEngine:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ExperimentEngine(max_workers=0)
        with pytest.raises(ValueError):
            ExperimentEngine(retries=-1)

    def test_serial_matches_direct_run_single(self):
        plan = plan_budget_sweep("RN20-CIFAR10", "rex", "sgdm", budgets=(0.25,), seeds=(0,), **TINY)
        direct = RunStore([run_single(c) for c in plan])
        engine = ExperimentEngine(max_workers=1)
        assert stores_equal(engine.run(plan), direct)
        assert engine.last_report.executed == 1
        assert engine.last_report.cache_hits == 0

    def test_parallel_identical_to_serial(self):
        """max_workers=2 must produce a record-for-record identical RunStore."""
        kwargs = dict(
            schedules=("rex", "linear"), optimizers=("sgdm",), budgets=(0.25,), **TINY
        )
        serial = run_setting_table("RN20-CIFAR10", **kwargs)
        parallel = run_setting_table(
            "RN20-CIFAR10", **kwargs, context=ExecutionContext(workers=2)
        )
        assert stores_equal(serial, parallel)

    def test_second_invocation_is_pure_cache(self, tmp_path, monkeypatch):
        """Same cache_dir twice: second table performs zero training runs."""
        kwargs = dict(schedules=("rex", "linear"), optimizers=("sgdm",), budgets=(0.25,), **TINY)
        first = run_setting_table(
            "RN20-CIFAR10", **kwargs, context=ExecutionContext(cache=tmp_path)
        )
        assert len(list(tmp_path.glob("*.json"))) == len(first)

        def bomb(config):
            raise AssertionError("training ran despite a warm cache")

        # The engine resolves its default run function at run() time, so
        # patching run_single proves no cell was retrained.
        monkeypatch.setattr("repro.experiments.runner.run_single", bomb)
        second = run_setting_table(
            "RN20-CIFAR10", **kwargs, context=ExecutionContext(cache=tmp_path)
        )
        assert stores_equal(first, second)

    def test_cached_equals_uncached(self, tmp_path):
        kwargs = dict(schedules=("rex",), optimizers=("sgdm",), budgets=(0.25,), **TINY)
        plain = run_setting_table("RN20-CIFAR10", **kwargs)
        context = ExecutionContext(cache=tmp_path)
        cached = run_setting_table("RN20-CIFAR10", **kwargs, context=context)
        reloaded = run_setting_table("RN20-CIFAR10", **kwargs, context=context)
        assert stores_equal(plain, cached)
        assert stores_equal(plain, reloaded)

    def test_transient_failure_retried_once(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return make_record()

        engine = ExperimentEngine(run_fn=flaky)
        store = engine.run([tiny_config()])
        assert len(store) == 1
        assert calls["n"] == 2
        assert engine.last_report.retried == 1

    def test_persistent_failure_raises(self):
        def broken(config):
            raise RuntimeError("permanent")

        engine = ExperimentEngine(run_fn=broken)
        with pytest.raises(RuntimeError, match="permanent"):
            engine.run([tiny_config()])
        assert engine.last_report.failures

    def test_run_configs_convenience(self, tmp_path):
        plan = plan_budget_sweep("RN20-CIFAR10", "rex", "sgdm", budgets=(0.25,), seeds=(0,), **TINY)
        store = run_configs(plan, cache_dir=tmp_path)
        assert len(store) == 1
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_streams_into_existing_store(self):
        store = RunStore([make_record(schedule="linear")])
        engine = ExperimentEngine(run_fn=lambda c: make_record())
        out = engine.run([tiny_config()], store=store)
        assert out is store
        assert len(store) == 2


def _record_or_kill_worker(config):
    """Kill the hosting process when it is a pool worker; succeed in-process.

    Module-level so it pickles into ProcessPoolExecutor workers.  The parent
    pid is baked into the config, so the serial-fallback re-run (which executes
    in the parent) returns normally.
    """
    if os.getpid() != config.parent_pid:
        os._exit(1)
    return make_record(seed=config.index)


@dataclasses.dataclass(frozen=True)
class _KillCell:
    parent_pid: int
    index: int


class TestEngineFailureModes:
    def test_completed_cells_cached_before_a_later_failure(self, tmp_path):
        """A crash partway through a sweep must not discard finished cells."""

        def second_cell_fails(config):
            if config.seed == 1:
                raise RuntimeError("boom")
            return make_record(seed=config.seed)

        engine = ExperimentEngine(cache=tmp_path, retries=0, run_fn=second_cell_fails)
        with pytest.raises(RuntimeError):
            engine.run([tiny_config(seed=0), tiny_config(seed=1)])
        # cell 0 finished first and must already be persisted
        assert len(list(tmp_path.glob("*.json"))) == 1
        resumed = ExperimentEngine(cache=tmp_path, run_fn=lambda c: make_record(seed=c.seed)).run(
            [tiny_config(seed=0), tiny_config(seed=1)]
        )
        assert len(resumed) == 2
        assert [r.seed for r in resumed] == [0, 1]

    def test_broken_pool_falls_back_to_serial(self):
        """Workers dying hard (OOM-kill style) must not lose the sweep."""
        cells = [_KillCell(parent_pid=os.getpid(), index=i) for i in range(3)]
        engine = ExperimentEngine(max_workers=2, run_fn=_record_or_kill_worker)
        store = engine.run(cells)
        assert [r.seed for r in store] == [0, 1, 2]
        assert engine.last_report.retried >= 1


class TestSeedOverride:
    def test_explicit_seeds_pin_the_table(self):
        plan = plan_setting_table(
            "RN20-CIFAR10", schedules=("rex",), optimizers=("sgdm",), budgets=(0.25,), seeds=(0, 7)
        )
        assert [c.seed for c in plan] == [0, 7]

    def test_default_remains_seed_sequence(self):
        plan = plan_setting_table(
            "RN20-CIFAR10", schedules=("rex",), optimizers=("sgdm",), budgets=(0.25,), num_seeds=1
        )
        # the derived sequence is namespaced, not literally 0
        assert plan[0].seed != 0


class TestTieBreaking:
    def test_plain_tie_resolves_to_smaller_lr(self):
        records = [
            make_record(learning_rate=0.3, metric=10.0),
            make_record(learning_rate=0.1, metric=10.0),
        ]
        assert select_best_record(records).learning_rate == 0.1

    def test_higher_is_better_sentinel_tie(self):
        # Two diverged runs both carry the 0.0 sentinel: smaller lr wins.
        records = [
            make_record(
                learning_rate=0.9, metric=0.0, higher_is_better=True, extra={"diverged": True}
            ),
            make_record(
                learning_rate=0.3, metric=0.0, higher_is_better=True, extra={"diverged": True}
            ),
        ]
        assert select_best_record(records).learning_rate == 0.3

    def test_genuine_zero_beats_diverged_zero(self):
        # A real 0.0 score ties the divergence sentinel; the non-diverged run
        # must win even though its learning rate is larger.
        records = [
            make_record(
                learning_rate=0.1, metric=0.0, higher_is_better=True, extra={"diverged": True}
            ),
            make_record(
                learning_rate=0.3, metric=0.0, higher_is_better=True, extra={"diverged": False}
            ),
        ]
        best = select_best_record(records)
        assert best.learning_rate == 0.3
        assert not best.extra["diverged"]

    def test_lower_is_better_inf_sentinel_tie(self):
        records = [
            make_record(learning_rate=0.9, metric=float("inf"), extra={"diverged": True}),
            make_record(learning_rate=0.3, metric=float("inf"), extra={"diverged": True}),
        ]
        assert select_best_record(records).learning_rate == 0.3

    def test_nan_ranks_worst(self):
        records = [
            make_record(learning_rate=0.1, metric=float("nan")),
            make_record(learning_rate=0.3, metric=50.0),
        ]
        assert select_best_record(records).learning_rate == 0.3

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            select_best_record([])

    def test_tune_learning_rate_through_engine(self, tmp_path):
        config = tiny_config()
        context = ExecutionContext(cache=tmp_path)
        first = tune_learning_rate(config, candidates=[0.03, 0.1], context=context)
        again = tune_learning_rate(config, candidates=[0.03, 0.1], context=context)
        assert len(first.all_records) == 2
        assert first.best_lr == again.best_lr
        assert stores_equal(first.all_records, again.all_records)


class TestSeedBatchedEngine:
    """The batch_seeds engine path: grouping, cache splitting, seed-list reuse."""

    def _plan(self, seeds, budget=0.05):
        return plan_budget_sweep(
            "VAE-MNIST", "cosine", "adam", budgets=(budget,), seeds=seeds, **TINY
        )

    def test_batched_store_equals_serial(self, tmp_path):
        plan = self._plan((0, 1, 2))
        serial = ExperimentEngine().run(plan)
        engine = ExperimentEngine(batch_seeds=True)
        batched = engine.run(plan)
        assert stores_equal(serial, batched)
        assert engine.last_report.batched_cells == 1
        assert engine.last_report.batched_records == 3
        assert engine.last_report.executed == 3

    def test_batched_cell_caches_per_seed_records(self, tmp_path):
        """A 5-seed batched cell writes one cache entry per seed, individually."""
        cache = RunCache(tmp_path / "cache")
        plan = self._plan((0, 1, 2, 3, 4))
        ExperimentEngine(cache=cache, batch_seeds=True).run(plan)
        assert len(cache) == 5
        for config in plan:
            assert config in cache

    def test_seed_subset_reuses_batched_cache(self, tmp_path, monkeypatch):
        """A later --seeds 3 run reuses seeds 0-2 from a cached --seeds 5 run."""
        cache = RunCache(tmp_path / "cache")
        ExperimentEngine(cache=cache, batch_seeds=True).run(self._plan((0, 1, 2, 3, 4)))

        def bomb(config):
            raise AssertionError("a cached cell must not retrain")

        monkeypatch.setattr("repro.experiments.runner.run_single", bomb)
        monkeypatch.setattr("repro.experiments.batched.run_single", bomb)
        engine = ExperimentEngine(cache=cache, batch_seeds=True)
        engine.run(self._plan((0, 1, 2)))
        assert engine.last_report.cache_hits == 3
        assert engine.last_report.executed == 0
        # and the reverse: a superset run trains only the new seeds
        monkeypatch.undo()
        engine = ExperimentEngine(cache=cache, batch_seeds=True)
        engine.run(self._plan((0, 1, 2, 3, 4, 5, 6)))
        assert engine.last_report.cache_hits == 5
        assert engine.last_report.executed == 2
        assert engine.last_report.batched_cells == 1

    def test_cache_files_identical_to_serial(self, tmp_path):
        """Batched and serial caches are byte-identical file for file."""
        plan = self._plan((0, 1))
        serial_cache = RunCache(tmp_path / "serial")
        batched_cache = RunCache(tmp_path / "batched")
        ExperimentEngine(cache=serial_cache).run(plan)
        ExperimentEngine(cache=batched_cache, batch_seeds=True).run(plan)
        serial_files = sorted(p.name for p in (tmp_path / "serial").glob("*.json"))
        batched_files = sorted(p.name for p in (tmp_path / "batched").glob("*.json"))
        assert serial_files == batched_files and serial_files
        for name in serial_files:
            assert (tmp_path / "serial" / name).read_text() == (
                tmp_path / "batched" / name
            ).read_text()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_fallback_is_not_counted_as_batched(self):
        """batched_cells reports real stacked execution, not fallen-back groups."""
        plan = plan_budget_sweep(
            "VAE-MNIST",
            "cosine",
            "sgdm",
            budgets=(1.0,),
            seeds=(0, 1),
            learning_rate=1e6,  # diverges -> SeedDivergence -> serial fallback
            size_scale=0.12,
            epoch_scale=0.5,
        )
        engine = ExperimentEngine(batch_seeds=True)
        store = engine.run(plan)
        assert engine.last_report.batched_cells == 0
        assert engine.last_report.batched_records == 0
        assert engine.last_report.executed == 2
        assert all(record.extra["diverged"] for record in store)

    def test_custom_run_fn_disables_grouping(self):
        """A non-default run_fn must see every cell: no silent batched bypass."""
        calls = []

        def fake_run(config):
            calls.append(config.seed)
            return make_record(seed=config.seed, budget_fraction=config.budget_fraction)

        plan = self._plan((0, 1, 2))
        engine = ExperimentEngine(run_fn=fake_run, batch_seeds=True)
        engine.run(plan)
        assert sorted(calls) == [0, 1, 2]
        assert engine.last_report.batched_cells == 0

    def test_feedback_schedules_are_unbatchable_by_class(self):
        """Batchability is judged by schedule behaviour, not by registry name."""
        from repro.experiments import is_batchable
        from repro.schedules.plateau import DecayOnPlateauSchedule
        from repro.schedules.registry import SCHEDULE_REGISTRY, register_schedule

        try:
            register_schedule("plateau2", DecayOnPlateauSchedule)
            assert not is_batchable(tiny_config(schedule="plateau2"))
            register_schedule("opaque", lambda *a, **k: None)
            assert not is_batchable(tiny_config(schedule="opaque"))
            assert not is_batchable(tiny_config(schedule="not-registered"))
        finally:
            SCHEDULE_REGISTRY.pop("plateau2", None)
            SCHEDULE_REGISTRY.pop("opaque", None)

    def test_plateau_cells_stay_serial(self):
        from repro.experiments import is_batchable

        assert not is_batchable(tiny_config(schedule="plateau"))
        assert is_batchable(tiny_config(schedule="rex"))
        plan = plan_budget_sweep(
            "VAE-MNIST", "plateau", "adam", budgets=(0.05,), seeds=(0, 1), **TINY
        )
        engine = ExperimentEngine(batch_seeds=True)
        store = engine.run(plan)
        assert engine.last_report.batched_cells == 0
        assert stores_equal(store, ExperimentEngine().run(plan))

    def test_mixed_plan_preserves_order(self):
        """Batched groups interleaved with serial cells keep plan order."""
        plan = (
            self._plan((0, 1))
            + plan_budget_sweep("VAE-MNIST", "plateau", "adam", budgets=(0.05,), seeds=(0,), **TINY)
            + self._plan((2, 3), budget=0.1)
        )
        engine = ExperimentEngine(batch_seeds=True)
        store = engine.run(plan)
        serial = ExperimentEngine().run(plan)
        assert stores_equal(store, serial)
        assert engine.last_report.batched_cells == 2

    @pytest.mark.skipif(os.environ.get("REPRO_SKIP_SLOW") == "1", reason="process pool")
    def test_parallel_batched_matches_serial(self, tmp_path):
        """Batched cells survive the process pool (pickling) unchanged."""
        plan = self._plan((0, 1, 2)) + self._plan((0, 1, 2), budget=0.1)
        serial = ExperimentEngine().run(plan)
        engine = ExperimentEngine(max_workers=2, batch_seeds=True)
        batched = engine.run(plan)
        assert stores_equal(serial, batched)
        assert engine.last_report.batched_cells == 2

    def test_run_setting_table_batch_seeds_kwarg(self):
        kwargs = dict(
            setting="VAE-MNIST",
            schedules=("cosine",),
            optimizers=("adam",),
            budgets=(0.05,),
            seeds=(0, 1),
            **TINY,
        )
        assert stores_equal(
            run_setting_table(**kwargs),
            run_setting_table(context=ExecutionContext(batch_seeds=True), **kwargs),
        )
