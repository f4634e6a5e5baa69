"""Dataset and DataLoader abstractions (numpy-native, torch-like API)."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.utils.seeding import spawn_rng

__all__ = ["Dataset", "ArrayDataset", "Subset", "DataLoader", "train_test_split"]


class Dataset:
    """Abstract map-style dataset: defines ``__len__`` and ``__getitem__``.

    ``__getitem__`` returns a tuple of numpy arrays (inputs..., target);
    :meth:`take` returns the same fields for a batch of indices.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, ...]:
        """The samples at ``indices``, stacked field by field along a new first axis.

        The default fetches one sample at a time, in order, so datasets that
        draw randomness per sample (e.g. :class:`~repro.data.transforms.TransformedDataset`)
        consume it exactly as per-sample access would.  Array-backed datasets
        override this with one gather per field.
        """
        samples = [self[int(i)] for i in indices]
        return tuple(np.stack(field, axis=0) for field in zip(*samples))


class ArrayDataset(Dataset):
    """Dataset backed by pre-materialised arrays sharing a first dimension."""

    def __init__(self, *arrays: np.ndarray) -> None:
        if not arrays:
            raise ValueError("ArrayDataset needs at least one array")
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise ValueError(f"all arrays must share the first dimension, got lengths {lengths}")
        self.arrays = tuple(np.asarray(a) for a in arrays)

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index: int) -> tuple[np.ndarray, ...]:
        return tuple(a[index] for a in self.arrays)

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, ...]:
        """One fancy-index gather per field: fresh, writeable, C-ordered copies.

        A gather keeps the layout of a non-contiguous field's trailing axes;
        ``ascontiguousarray`` (a no-op in the usual case) gives it the C order
        a per-sample ``np.stack`` would.
        """
        return tuple(np.ascontiguousarray(a[indices]) for a in self.arrays)


class Subset(Dataset):
    """A view of a dataset restricted to the given indices."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(dataset)):
            raise IndexError("subset indices out of range")
        self.dataset = dataset
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> tuple[np.ndarray, ...]:
        return self.dataset[int(self.indices[index])]

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, ...]:
        """Map ``indices`` into the parent dataset and delegate the gather to it."""
        return self.dataset.take(self.indices[indices])


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[Subset, Subset]:
    """Randomly split a dataset into train/test subsets."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = spawn_rng("train_test_split", seed=seed)
    n = len(dataset)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    return Subset(dataset, perm[n_test:]), Subset(dataset, perm[:n_test])


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Each batch is one :meth:`Dataset.take` call on the batch's indices, so a
    dataset yielding ``(image, label)`` produces batches ``(images, labels)``.
    Batches are fresh arrays the consumer may modify in place.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = False,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(dataset) == 0:
            raise ValueError("cannot build a DataLoader over an empty dataset")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = spawn_rng("dataloader", seed=seed)
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            yield self.dataset.take(idx)
