"""Run records: a small, file-backed store for experiment results.

The benchmark harness produces many (setting, schedule, budget, optimizer,
seed) -> metric entries.  ``RunRecord`` is the atomic unit and ``RunStore``
aggregates them, supports filtering/grouping, and round-trips to JSON so that
expensive sweeps can be cached between benchmark invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from itertools import pairwise
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

__all__ = ["RunIndex", "RunRecord", "RunStore"]

#: float attributes closer than this match in :meth:`RunStore.filter`
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RunRecord:
    """One trained run and its final evaluation metric.

    Attributes
    ----------
    setting:
        Experiment short name, e.g. ``"RN20-CIFAR10"``.
    optimizer:
        Base optimizer name, e.g. ``"sgdm"`` or ``"adam"``.
    schedule:
        Schedule name, e.g. ``"rex"`` or ``"linear"``.
    budget_fraction:
        Fraction of the maximum epochs used for this run (0 < f <= 1).
    learning_rate:
        Initial learning rate used for the run.
    seed:
        Trial seed.
    metric:
        Final evaluation metric (lower-is-better unless stated by the setting).
    metric_name:
        Name of the metric (``"error"``, ``"elbo"``, ``"mAP"``, ``"glue"``...).
    higher_is_better:
        Direction of the metric.
    extra:
        Free-form extras (per-epoch history, per-task scores, timings).
    """

    setting: str
    optimizer: str
    schedule: str
    budget_fraction: float
    learning_rate: float
    seed: int
    metric: float
    metric_name: str = "error"
    higher_is_better: bool = False
    extra: dict[str, Any] = field(default_factory=dict)

    def key(self) -> tuple[str, str, str, float]:
        return (self.setting, self.optimizer, self.schedule, round(self.budget_fraction, 6))

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["metric"] = float(self.metric)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        return cls(**d)


class RunStore:
    """A collection of :class:`RunRecord` with grouping/aggregation helpers."""

    def __init__(self, records: Iterable[RunRecord] | None = None) -> None:
        self._records: list[RunRecord] = list(records or [])

    # -- container protocol -------------------------------------------------
    def add(self, record: RunRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[RunRecord]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> RunRecord:
        return self._records[idx]

    # -- queries ------------------------------------------------------------
    def filter(self, **criteria: Any) -> "RunStore":
        """Return a sub-store of records whose attributes match ``criteria``.

        Values may be scalars or lists/sets of acceptable values.
        """
        def matches(rec: RunRecord) -> bool:
            for key, want in criteria.items():
                have = getattr(rec, key)
                if isinstance(want, (list, tuple, set, frozenset)):
                    if have not in want:
                        return False
                elif isinstance(want, float) and isinstance(have, float):
                    if abs(have - want) > FLOAT_TOLERANCE:
                        return False
                elif have != want:
                    return False
            return True

        return RunStore(r for r in self._records if matches(r))

    def where(self, predicate: Callable[[RunRecord], bool]) -> "RunStore":
        return RunStore(r for r in self._records if predicate(r))

    def unique(self, attr: str) -> list[Any]:
        seen: dict[Any, None] = {}
        for rec in self._records:
            seen.setdefault(getattr(rec, attr), None)
        return list(seen)

    def group_by(self, *attrs: str) -> dict[tuple, "RunStore"]:
        groups: dict[tuple, RunStore] = {}
        for rec in self._records:
            key = tuple(getattr(rec, a) for a in attrs)
            groups.setdefault(key, RunStore()).add(rec)
        return groups

    # -- aggregation --------------------------------------------------------
    def metrics(self) -> np.ndarray:
        return np.array([r.metric for r in self._records], dtype=float)

    def mean_metric(self) -> float:
        if not self._records:
            raise ValueError("cannot aggregate an empty RunStore")
        return float(self.metrics().mean())

    def std_metric(self) -> float:
        if not self._records:
            raise ValueError("cannot aggregate an empty RunStore")
        vals = self.metrics()
        return float(vals.std(ddof=1)) if len(vals) > 1 else 0.0

    def best_metric(self) -> float:
        if not self._records:
            raise ValueError("cannot aggregate an empty RunStore")
        higher = self._records[0].higher_is_better
        vals = self.metrics()
        return float(vals.max() if higher else vals.min())

    def summary(self) -> dict[str, float]:
        return {
            "mean": self.mean_metric(),
            "std": self.std_metric(),
            "best": self.best_metric(),
            "count": float(len(self)),
        }

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [r.to_dict() for r in self._records]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RunStore":
        payload = json.loads(Path(path).read_text())
        return cls(RunRecord.from_dict(d) for d in payload)


class RunIndex:
    """A :class:`RunStore` grouped once by ``attrs``, for repeated equality lookups.

    ``lookup(*values)`` returns exactly what ``store.filter(**dict(zip(attrs,
    values)))`` returns — the same records in store order — without rescanning
    the store: a lookup is a dict hit.  When a value matches no group key
    exactly, or the store holds two float keys within :data:`FLOAT_TOLERANCE`
    of each other (so one value could match several groups), the lookup falls
    back to :meth:`RunStore.filter` and its tolerance.
    """

    def __init__(self, store: RunStore, *attrs: str) -> None:
        self.store = store
        self.attrs = attrs
        self.groups = store.group_by(*attrs)
        self.exact = not any(
            abs(high - low) <= FLOAT_TOLERANCE
            for column in zip(*self.groups)
            # ints join the check: ``filter`` matches an int key to an equal float
            for low, high in pairwise(sorted({v for v in column if isinstance(v, (int, float))}))
        )

    def lookup(self, *values: Any) -> RunStore:
        """The records whose ``attrs`` equal ``values`` (floats within the tolerance)."""
        if self.exact:
            group = self.groups.get(values)
            if group is not None:
                return group
        return self.store.filter(**dict(zip(self.attrs, values, strict=True)))
