"""In-memory span tracer and the statistics helpers of the benchmark runner.

A :class:`Tracer` records one span per call into a wrapped layer: its name,
start, end, parent span and the cell or request id active on the calling
thread.  Parents are tracked per thread, because the report server handles
each request on its own thread.  Spans stay in memory until the run ends.

:class:`Patcher` installs the timing wrappers on the program's public
callables and removes every one of them again, so an untraced run executes
the program's own functions.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: the shape every metric name in ``BENCHMARK.json`` and the result line must have
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: least number of samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name (letters, digits, ``_``, ``.``, ``-``)."""
    return METRIC_NAME.fullmatch(name) is not None


def tail_percentile(count: int, ceiling: float = 99.0) -> float | None:
    """The highest percentile (at most ``ceiling``) with ≥10 of ``count`` samples beyond it.

    With ``count`` samples, percentile ``p`` leaves ``count * (1 - p/100)``
    samples above it; requiring at least :data:`TAIL_SAMPLES` there gives
    ``p = 100 * (1 - 10/count)``, which lies above the median only from 20
    samples on.  ``None`` with 10 or fewer samples, where no percentile has
    ten samples beyond it.
    """
    if count <= TAIL_SAMPLES:
        return None
    return min(ceiling, 100.0 * (1.0 - TAIL_SAMPLES / count))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (the ``numpy`` default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(slots=True)
class Span:
    """One finished call into a wrapped layer (times in seconds)."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    ctx: str | None

    @property
    def duration(self) -> float:
        """Wall time between entry and exit."""
        return self.end - self.start


class Tracer:
    """Records nested spans per thread; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = 0
        self.counters: dict[str, float] = {}

    # -- per-thread state ---------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, ctx: str | None) -> None:
        """Tag spans opened on this thread from now on with ``ctx`` (cell/request id)."""
        self._local.ctx = ctx

    def context(self) -> str | None:
        """The cell or request id active on this thread."""
        return getattr(self._local, "ctx", None)

    # -- recording ------------------------------------------------------------
    def open(self, name: str) -> Span | None:
        """Start a span; ``None`` when the innermost open span already has ``name``.

        Suppressing same-name nesting keeps a subclass method that calls
        ``super()`` (``AdamW.step`` → ``Adam.step``) from counting twice.
        """
        stack = self._stack()
        if stack and stack[-1].name == name:
            return None
        parent = stack[-1].sid if stack else None
        span = Span(next(self._ids), name, self.clock(), math.nan, parent, threading.get_ident(), self.context())
        stack.append(span)
        with self._lock:
            self._open += 1
        return span

    def close(self, span: Span | None) -> None:
        """Finish ``span`` (a no-op for a suppressed ``None``)."""
        if span is None:
            return
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self._spans.append(span)
            self._open -= 1

    def wait_closed(self, timeout: float) -> bool:
        """Wait until every opened span has closed, on any thread; False on timeout.

        A server thread may still be finishing a request after its client
        has the response; its span must close before the wrappers go.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._open == 0:
                    return True
            time.sleep(0.001)
        return False

    def add(self, counter: str, amount: float) -> None:
        """Add ``amount`` to a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def spans(self) -> list[Span]:
        """Every finished span, in the order they were opened."""
        with self._lock:
            return sorted(self._spans, key=lambda span: span.sid)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it that its child spans cover.

    Children are spans whose ``parent`` is the span; the covered part is the
    union of their intervals clipped to the parent, so overlapping children
    are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            low, high = max(child.start, cursor), min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[span.sid] = span.duration - covered
    return result


def layer_totals(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only outermost spans of a name, so a recursive
    layer is not counted twice.
    """
    selfs = self_times(spans)
    by_id = {span.sid: span for span in spans}
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[span.sid]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            entry["total_s"] += span.duration
    return totals


class Patcher:
    """Replaces attributes and mapping entries, then restores the originals exactly."""

    _MISSING = object()

    def __init__(self) -> None:
        #: (owner, attribute or key, whether it is a mapping key, original or _MISSING)
        self._saved: list[tuple[Any, Any, bool, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr = value``, remembering whether ``owner`` defined it itself."""
        self._saved.append((owner, attr, False, vars(owner).get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def replace_item(self, mapping: dict[Any, Any], key: Any, value: Any) -> None:
        """Set ``mapping[key] = value``, remembering the original entry."""
        self._saved.append((mapping, key, True, mapping[key]))
        mapping[key] = value

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        self.replace(owner, attr, make(getattr(owner, attr)))

    def wrap_family(self, base: type, attr: str, make: Callable[[Any], Any]) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that defines its own."""
        seen: set[type] = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in vars(cls):
                self.replace(cls, attr, make(vars(cls)[attr]))
            pending.extend(cls.__subclasses__())

    def targets(self) -> list[tuple[Any, Any, bool]]:
        """Every (owner, attribute or key, is-mapping-key) this patcher replaced."""
        return [(owner, attr, is_item) for owner, attr, is_item, _ in self._saved]

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, is_item, original = self._saved.pop()
            if is_item:
                owner[attr] = original
            elif original is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._saved)
