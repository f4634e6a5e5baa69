"""The data path: one gather per batch, one generation per (spec, seed).

``DataLoader`` asks its dataset for a whole batch through ``Dataset.take``;
array-backed datasets answer with one fancy-index gather per field.  The
synthetic generators are memoised per process and hand out read-only arrays.
Neither change may alter a single byte of what training sees, so every batch
here is compared with a per-sample ``np.stack`` reference kept in this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    Compose,
    DataLoader,
    Dataset,
    ImageClassificationSpec,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    SequenceTaskSpec,
    Subset,
    SyntheticCIFAR10,
    SyntheticCIFAR100,
    SyntheticDetection,
    SyntheticGlueTask,
    SyntheticImageNet,
    SyntheticMNIST,
    SyntheticSTL10,
    TransformedDataset,
    glue_task_specs,
    make_detection_scenes,
    make_image_classification,
    make_sequence_classification,
    train_test_split,
)
from repro.data import synthetic
from repro.experiments.settings import get_setting
from repro.experiments.workloads import build_workload
from repro.utils.seeding import get_global_seed, set_global_seed


def _stacked_reference(dataset: Dataset, indices) -> tuple[np.ndarray, ...]:
    """What the loader built before ``take``: one ``__getitem__`` per sample, stacked per field."""
    samples = [dataset[int(i)] for i in indices]
    return tuple(np.stack([sample[f] for sample in samples], axis=0) for f in range(len(samples[0])))


class _RecordingDataset(Dataset):
    """Pass-through dataset that records the indices of every ``take``."""

    def __init__(self, inner: Dataset) -> None:
        self.inner = inner
        self.taken: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.inner)

    def __getitem__(self, index: int) -> tuple[np.ndarray, ...]:
        return self.inner[index]

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, ...]:
        self.taken.append(np.array(indices, copy=True))
        return self.inner.take(indices)


def _storage(dataset: Dataset) -> list[np.ndarray]:
    """Every array a dataset (or the chain it wraps) holds."""
    while not isinstance(dataset, ArrayDataset):
        dataset = dataset.dataset
    return list(dataset.arrays)


def _assert_batch_equal(batch, reference) -> None:
    assert len(batch) == len(reference)
    for got, want in zip(batch, reference):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _assert_fresh(batch, dataset: Dataset) -> None:
    """C-ordered, writeable, and sharing memory with neither the dataset nor each other."""
    for i, field in enumerate(batch):
        assert field.flags.c_contiguous
        assert field.flags.writeable
        for array in _storage(dataset):
            assert not np.shares_memory(field, array)
        for other in batch[i + 1 :]:
            assert not np.shares_memory(field, other)


def _glue(name: str, split: str) -> SyntheticGlueTask:
    task = next(t for t in glue_task_specs(size_scale=0.2) if t.name == name)
    return SyntheticGlueTask(task, split, seed=1)


DATASETS = {
    "cifar10": lambda: SyntheticCIFAR10("train", seed=1, size_scale=0.1),
    "cifar100": lambda: SyntheticCIFAR100("test", seed=1, size_scale=0.1),
    "stl10": lambda: SyntheticSTL10("train", seed=1, size_scale=0.1),
    "imagenet": lambda: SyntheticImageNet("train", seed=1, size_scale=0.05),
    "mnist": lambda: SyntheticMNIST("train", seed=1, size_scale=0.2),
    "detection": lambda: SyntheticDetection("test", seed=1, size_scale=0.1),
    "glue-single": lambda: _glue("CoLA", "train"),
    "glue-pair": lambda: _glue("MNLI", "test"),
    "glue-regression": lambda: _glue("STS-B", "train"),
    "subset": lambda: train_test_split(SyntheticMNIST("train", seed=1, size_scale=0.2), seed=2)[0],
    "subset-of-subset": lambda: Subset(
        train_test_split(SyntheticCIFAR10("train", seed=1, size_scale=0.1), seed=2)[0],
        np.arange(40)[::-3],
    ),
    "non-contiguous-fields": lambda: ArrayDataset(
        np.arange(6 * 4 * 5, dtype=np.float32).reshape(6, 4, 5).transpose(0, 2, 1),
        np.arange(6 * 14).reshape(6, 14)[:, ::3],
    ),
}


class TestGatherEqualsPerSampleStack:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_take_equals_stacked_samples(self, name):
        dataset = DATASETS[name]()
        n = len(dataset)
        indices = np.random.default_rng(0).permutation(n)[: min(n, 13)]
        batch = dataset.take(indices)
        _assert_batch_equal(batch, _stacked_reference(dataset, indices))
        _assert_fresh(batch, dataset)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_shuffled_multi_epoch_loader(self, name):
        dataset = _RecordingDataset(DATASETS[name]())
        n = len(dataset)
        batch_size = 7 if n % 7 else 5
        assert n % batch_size, "the last batch must be partial"
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, seed=4)
        epochs = []
        for _ in range(3):
            start = len(dataset.taken)
            batches = list(loader)
            taken = dataset.taken[start:]
            assert len(batches) == len(taken) == len(loader)
            assert len(taken[-1]) == n % batch_size
            for batch, indices in zip(batches, taken):
                _assert_batch_equal(batch, _stacked_reference(dataset.inner, indices))
                _assert_fresh(batch, dataset.inner)
            order = np.concatenate(taken)
            np.testing.assert_array_equal(np.sort(order), np.arange(n))
            epochs.append(order)
        assert not np.array_equal(epochs[0], epochs[1])

    def test_batches_of_one_epoch_do_not_alias(self):
        # SyntheticMNIST is ArrayDataset(x, x): both fields of a batch gather from one array
        dataset = SyntheticMNIST("train", seed=1, size_scale=0.2)
        assert dataset.arrays[0] is dataset.arrays[1]
        batches = list(DataLoader(dataset, batch_size=16, shuffle=True, seed=0))
        fields = [field for batch in batches for field in batch]
        for i, field in enumerate(fields):
            for other in fields[i + 1 :]:
                assert not np.shares_memory(field, other)
        batches[0][0][...] = -1.0  # a consumer may write into its batch
        assert np.all(batches[0][1] >= 0.0)
        assert np.all(dataset.arrays[0] >= 0.0)

    def test_transformed_dataset_draws_once_per_sample_in_order(self):
        base = SyntheticCIFAR10("train", seed=1, size_scale=0.1)
        transform = Compose(
            [RandomHorizontalFlip(0.5), RandomCrop(1), Normalize([0.1] * 3, [0.9] * 3)]
        )
        loaded = TransformedDataset(base, transform, seed=3)
        reference = TransformedDataset(base, transform, seed=3)
        recording = _RecordingDataset(loaded)
        loader = DataLoader(recording, batch_size=9, shuffle=True, drop_last=False, seed=2)
        for _ in range(2):
            start = len(recording.taken)
            batches = list(loader)
            assert len(batches) == len(recording.taken) - start == len(loader)
            for batch, indices in zip(batches, recording.taken[start:]):
                _assert_batch_equal(batch, _stacked_reference(reference, indices))
                _assert_fresh(batch, base)
        # the two transform RNG streams advanced by exactly the same draws
        assert loaded._rng.random() == reference._rng.random()

    def test_drop_last_loader(self):
        dataset = _RecordingDataset(SyntheticSTL10("train", seed=1, size_scale=0.1))
        loader = DataLoader(dataset, batch_size=5, shuffle=True, drop_last=True, seed=1)
        batches = list(loader)
        assert len(batches) == len(loader) == len(dataset) // 5
        for batch, indices in zip(batches, dataset.taken):
            assert len(indices) == 5
            _assert_batch_equal(batch, _stacked_reference(dataset.inner, indices))


def _counting_spawn_rng(monkeypatch) -> dict[str, int]:
    """Count generator bodies run, keyed by the RNG namespace each one opens first."""
    counts: dict[str, int] = {}
    real = synthetic.spawn_rng

    def counting(*namespace, seed=None):
        counts[namespace[0]] = counts.get(namespace[0], 0) + 1
        return real(*namespace, seed=seed)

    monkeypatch.setattr(synthetic, "spawn_rng", counting)
    return counts


#: trial seeds no other test uses, so every key below starts cold in the memo
_FRESH_SEED = 7_100_003


class TestOneGenerationPerSpecAndSeed:
    def test_splits_and_build_workload_generate_once(self, monkeypatch):
        counts = _counting_spawn_rng(monkeypatch)
        for _ in range(3):
            train, test = SyntheticCIFAR10.splits(seed=_FRESH_SEED, size_scale=0.2)
        workload = build_workload(get_setting("RN20-CIFAR10"), seed=_FRESH_SEED, size_scale=0.2)
        build_workload(get_setting("RN20-CIFAR10"), seed=_FRESH_SEED, size_scale=0.2)
        assert counts.get("image_classification") == 1
        assert workload.train_loader.dataset.arrays[0] is train.arrays[0]
        assert workload.eval_loader.dataset.arrays[0] is test.arrays[0]

    def test_mnist_workload_generates_once(self, monkeypatch):
        counts = _counting_spawn_rng(monkeypatch)
        for _ in range(3):
            build_workload(get_setting("VAE-MNIST"), seed=_FRESH_SEED + 1, size_scale=0.2)
        SyntheticMNIST.splits(seed=_FRESH_SEED + 1, size_scale=0.2)
        assert counts.get("image_classification") == 1

    def test_detection_generates_once_per_split(self, monkeypatch):
        counts = _counting_spawn_rng(monkeypatch)
        for _ in range(3):
            build_workload(get_setting("YOLO-VOC"), seed=_FRESH_SEED + 2, size_scale=0.1)
        assert counts.get("detection") == 2  # train and held-out test use different seeds

    def test_glue_splits_generate_once(self, monkeypatch):
        counts = _counting_spawn_rng(monkeypatch)
        task = glue_task_specs(size_scale=0.2)[0]
        for _ in range(3):
            SyntheticGlueTask.splits(task, seed=_FRESH_SEED + 3)
        assert counts.get("seq_train") == counts.get("seq_test") == 1

    def test_distinct_keys_generate_separately(self, monkeypatch):
        counts = _counting_spawn_rng(monkeypatch)
        spec = ImageClassificationSpec(num_classes=3, num_train=9, num_test=3, image_size=4)
        first = make_image_classification(spec, seed=_FRESH_SEED + 4)
        second = make_image_classification(spec, seed=_FRESH_SEED + 5)
        assert counts.get("image_classification") == 2
        assert first[0].tobytes() != second[0].tobytes()

    def test_seed_none_follows_the_global_seed(self):
        spec = ImageClassificationSpec(num_classes=3, num_train=9, num_test=3, image_size=4)
        previous = get_global_seed()
        try:
            set_global_seed(_FRESH_SEED + 6)
            under_first = make_image_classification(spec, seed=None)
            set_global_seed(_FRESH_SEED + 7)
            under_second = make_image_classification(spec, seed=None)
        finally:
            set_global_seed(previous)
        assert under_first is make_image_classification(spec, seed=_FRESH_SEED + 6)
        assert under_second is make_image_classification(spec, seed=_FRESH_SEED + 7)
        assert under_first[0].tobytes() != under_second[0].tobytes()


_SEQ_SPEC = SequenceTaskSpec(name="memo", num_train=24, num_test=8, pair=True, num_classes=3)
_IMG_SPEC = ImageClassificationSpec(num_classes=4, num_train=16, num_test=8, image_size=5)

GENERATORS = {
    "image": (
        lambda: make_image_classification(_IMG_SPEC, seed=_FRESH_SEED + 8),
        lambda: synthetic._image_classification.__wrapped__(_IMG_SPEC, _FRESH_SEED + 8),
    ),
    "sequence": (
        lambda: make_sequence_classification(_SEQ_SPEC, seed=_FRESH_SEED + 8),
        lambda: synthetic._sequence_classification.__wrapped__(_SEQ_SPEC, _FRESH_SEED + 8),
    ),
    "detection": (
        lambda: make_detection_scenes(6, seed=_FRESH_SEED + 8),
        lambda: synthetic._detection_scenes.__wrapped__(6, 16, 4, 3, 3, 0.3, _FRESH_SEED + 8),
    ),
}


class TestReadOnlyMemo:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_cached_arrays_raise_on_write(self, name):
        memoised, _ = GENERATORS[name]
        for array in memoised():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
            with pytest.raises(ValueError):
                array += 1

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_memoised_result_equals_a_fresh_generation(self, name):
        memoised, fresh = GENERATORS[name]
        cached = memoised()
        assert memoised() is cached
        regenerated = fresh()  # bypasses the cache
        assert len(regenerated) == len(cached)
        for got, want in zip(cached, regenerated):
            assert got is not want
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_datasets_hold_read_only_arrays_and_yield_writeable_batches(self):
        train, _ = SyntheticCIFAR10.splits(seed=1, size_scale=0.1)
        assert not any(array.flags.writeable for array in train.arrays)
        images, labels = next(iter(DataLoader(train, batch_size=4)))
        assert images.flags.writeable and labels.flags.writeable
