"""Fault-site wrappers: caches and run functions that fail on schedule.

Each injector wraps one fabric seam and consults a shared
:class:`~repro.faults.plan.FaultPlan` at its sites.  The injections land on
the *real* code paths — :class:`FaultyHTTPRunCache` overrides only the
transport seam, so the production retry loop and payload verification are
what recover; :class:`FaultyRunCache` tampers the actual on-disk bytes, so
the production quarantine path is what catches it.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.execution.cache import RunCache, config_fingerprint
from repro.execution.remote_cache import HTTPRunCache
from repro.execution.retry import RetryPolicy, hash_uniform
from repro.faults.plan import FaultPlan, FaultRule, InjectedFault

__all__ = [
    "FaultyHTTPRunCache",
    "FaultyRunCache",
    "FaultyRunFn",
    "corrupt_payload_bytes",
]


def corrupt_payload_bytes(blob: bytes) -> bytes:
    """Deterministically tamper a cache-entry payload so verification must fail.

    Flips the first character of the ``integrity`` digest (the cheapest
    change that is *guaranteed* to break the record-digest check while
    staying valid JSON — a realistic single-bit-rot shape).  Payloads without
    an integrity field are truncated mid-byte instead: a torn write.
    """
    try:
        payload = json.loads(blob)
        integrity = payload.get("integrity")
    except (json.JSONDecodeError, AttributeError):
        payload, integrity = None, None
    if isinstance(integrity, str) and integrity:
        flipped = "0" if integrity[0] != "0" else "1"
        payload["integrity"] = flipped + integrity[1:]
        return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    return blob[: max(1, len(blob) // 2)]


class FaultyRunCache:
    """A local :class:`RunCache` whose stored bytes rot on schedule.

    Sites: ``cache.get`` / ``cache.put`` (keyed by fingerprint).  The
    ``corrupt`` kind tampers the entry's on-disk bytes *before* delegating,
    so the inner cache's own integrity verification — quarantine, the
    ``corrupt`` counter, miss-and-retrain — is what the injection exercises.
    ``get`` only consults the plan when the entry exists: corrupting a file
    that is not there injects nothing, and the fire counters must never
    claim otherwise.
    """

    def __init__(self, inner: RunCache, plan: FaultPlan, site: str = "cache") -> None:
        if not isinstance(inner, RunCache):
            raise TypeError(
                f"FaultyRunCache corrupts on-disk entries and needs a RunCache, got {inner!r}"
            )
        self.inner = inner
        self.plan = plan
        self.site = site
        #: keep the inner tier's name so engine reports group identically to
        #: the fault-free topology
        self.tier_name = getattr(inner, "tier_name", "local")

    @property
    def stats(self) -> Any:
        """The inner cache's counters (quarantines land there)."""
        return self.inner.stats

    def _apply(self, rule: FaultRule, fingerprint: str) -> None:
        if rule.delay:
            time.sleep(rule.delay)
        if rule.kind == "corrupt":
            path = self.inner.cache_dir / f"{fingerprint}.json"
            if path.is_file():
                path.write_bytes(corrupt_payload_bytes(path.read_bytes()))
        elif rule.kind in ("error", "status"):
            raise InjectedFault(f"injected {rule.kind} at {self.site} (key {fingerprint[:12]})")
        # "slow" is just the delay above

    def get(self, config: Any, fingerprint: str | None = None) -> Any:
        """Read through the inner cache, rotting the stored entry on schedule."""
        if fingerprint is None:
            fingerprint = self.inner.fingerprint(config)
        if self.inner.contains(config, fingerprint=fingerprint):
            rule = self.plan.decide(f"{self.site}.get", fingerprint)
            if rule is not None:
                self._apply(rule, fingerprint)
        return self.inner.get(config, fingerprint=fingerprint)

    def put(self, config: Any, record: Any, fingerprint: str | None = None) -> None:
        """Store through the inner cache, then rot/fail the write on schedule."""
        if fingerprint is None:
            fingerprint = self.inner.fingerprint(config)
        self.inner.put(config, record, fingerprint=fingerprint)
        rule = self.plan.decide(f"{self.site}.put", fingerprint)
        if rule is not None:
            self._apply(rule, fingerprint)

    # -- transparent delegation ----------------------------------------------
    def fingerprint(self, config: Any) -> str:
        """Delegate to the inner cache."""
        return self.inner.fingerprint(config)

    def read_blob(self, fingerprint: str) -> bytes | None:
        """Delegate to the inner cache (its own verification applies)."""
        return self.inner.read_blob(fingerprint)

    def write_blob(self, fingerprint: str, blob: bytes) -> None:
        """Delegate to the inner cache."""
        self.inner.write_blob(fingerprint, blob)

    def contains(self, config: Any, fingerprint: str | None = None) -> bool:
        """Delegate to the inner cache."""
        return self.inner.contains(config, fingerprint=fingerprint)

    def __contains__(self, config: Any) -> bool:
        return self.contains(config)

    def __len__(self) -> int:
        return len(self.inner)

    def clear(self) -> int:
        """Delegate to the inner cache."""
        return self.inner.clear()


class _CorruptingResponse:
    """A response wrapper whose body reads back tampered (a torn read)."""

    def __init__(self, response: Any) -> None:
        self._response = response

    def __enter__(self) -> "_CorruptingResponse":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    def read(self) -> bytes:
        """The real body, tampered."""
        return corrupt_payload_bytes(self._response.read())

    @property
    def status(self) -> int:
        """The wrapped response's status."""
        return getattr(self._response, "status", 200)

    def close(self) -> None:
        """Close the wrapped response."""
        self._response.close()


class FaultyHTTPRunCache(HTTPRunCache):
    """An :class:`HTTPRunCache` whose transport misbehaves on schedule.

    Overrides exactly the :meth:`~HTTPRunCache._open` seam; sites are
    ``remote.get`` / ``remote.put`` / ``remote.head`` (keyed by
    fingerprint).  ``error`` raises a ``URLError`` (connection-level
    failure), ``status`` raises an HTTP 503, ``corrupt`` serves the real
    response through a tampering reader, ``slow`` sleeps ``rule.delay``
    first.  Because only the transport is faked, the production
    :class:`~repro.execution.retry.RetryPolicy` loop, error counters and
    payload verification all run for real.
    """

    def __init__(
        self,
        base_url: str,
        plan: FaultPlan,
        timeout: float = 10.0,
        retry_policy: RetryPolicy | None = None,
        site: str = "remote",
    ) -> None:
        super().__init__(base_url, timeout=timeout, retry_policy=retry_policy)
        self.plan = plan
        self.site = site

    def _open(self, request: urllib.request.Request, *, op: str, key: str) -> Any:
        rule = self.plan.decide(f"{self.site}.{op}", key)
        if rule is not None:
            if rule.delay:
                time.sleep(rule.delay)
            if rule.kind == "error":
                raise urllib.error.URLError(
                    InjectedFault(f"injected transport error at {self.site}.{op}")
                )
            if rule.kind == "status":
                import io

                raise urllib.error.HTTPError(
                    request.full_url, 503, "injected 503", {}, io.BytesIO(b"")  # type: ignore[arg-type]
                )
            if rule.kind == "corrupt":
                return _CorruptingResponse(super()._open(request, op=op, key=key))
            # "slow" already applied
        return super()._open(request, op=op, key=key)


@dataclass
class FaultyRunFn:
    """A picklable run function that injects one child-process failure per cell.

    For the process-pool (and serial) executors: selected cells — a
    deterministic hash draw per fingerprint under ``rate`` — raise
    :class:`InjectedFault` on their *first* execution and run normally on the
    retry, exercising the engine's retry budget without ever poisoning a
    cell permanently.  First-ness is tracked by marker files under
    ``marker_dir`` because pool children share no memory; the markers double
    as the injection counters (:meth:`fired`).
    """

    marker_dir: str
    seed: int = 0
    rate: float = 1.0
    site: str = "engine.cell"

    def __call__(self, cell: Any) -> Any:
        from repro.reporting.registry import run_cell

        fingerprint = config_fingerprint(cell)
        if hash_uniform(self.seed, self.site, fingerprint) < self.rate:
            marker = Path(self.marker_dir) / f"{fingerprint}.crashed"
            if not marker.exists():
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.write_text(self.site)
                raise InjectedFault(f"injected child failure for cell {fingerprint[:12]}")
        return run_cell(cell)

    def fired(self) -> int:
        """How many cells have been failed-once so far."""
        root = Path(self.marker_dir)
        return len(list(root.glob("*.crashed"))) if root.is_dir() else 0
