"""Remote, tiered and sharded backends for the content-addressed run cache.

Content addressing makes every cache entry location-transparent: a record is
identified by the SHA-256 fingerprint of its resolved config, writers of the
same cell write identical bytes, and first-write-wins is safe everywhere.
This module exploits that to move the cache off one machine:

:class:`CacheServer`
    A stdlib ``http.server`` daemon exposing a :class:`~repro.execution.cache.RunCache`
    directory over GET/PUT-by-fingerprint (``python -m repro cache-server``
    via ``repro serve``'s machinery, or embedded in tests).  The on-disk
    layout is exactly the local cache's ``<fingerprint>.json``, so a directory
    can be served remotely and mounted locally at the same time.
:class:`HTTPRunCache`
    The matching client with the duck-typed ``get``/``put`` cache surface —
    a drop-in wherever ``cache_dir=`` goes today.
:class:`TieredRunCache`
    Read-through/write-back composition of caches (typically local in front
    of remote): gets fall through the tiers and backfill the nearer ones,
    puts write through to every tier.
:class:`ShardedRunCache`
    Fingerprint-hash routing across N backends, for horizontal scale-out of
    the store itself.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.execution.cache import (
    CacheStats,
    RunCache,
    config_fingerprint,
    entry_payload,
    verify_entry,
)
from repro.execution.retry import RetryPolicy
from repro.utils.records import RunRecord

__all__ = ["CacheServer", "HTTPRunCache", "ShardedRunCache", "TieredRunCache"]

_RECORD_ROUTE = "/records/"


class _Transient(Exception):
    """A transport-level failure worth another attempt (connection refused,
    timeout, 5xx).  The retry loop keys on this wrapper rather than on
    ``URLError`` directly because ``HTTPError`` *is* a ``URLError`` — and a
    404 or 4xx must propagate immediately, not burn the retry budget."""

    def __init__(self, cause: object) -> None:
        super().__init__(str(cause))
        self.cause = cause


class _Permanent(Exception):
    """A definitive HTTP status (404 miss, other 4xx) — retrying cannot help."""

    def __init__(self, status: int) -> None:
        super().__init__(f"HTTP {status}")
        self.status = status


def _is_fingerprint(token: str) -> bool:
    return len(token) == 64 and all(c in "0123456789abcdef" for c in token)


class _CacheHandler(BaseHTTPRequestHandler):
    """Request handler speaking the fingerprint store protocol.

    Routes: ``GET/HEAD /records/<fp>``, ``PUT /records/<fp>``,
    ``DELETE /records`` (clear), ``GET /stats`` and ``GET /healthz``.
    """

    server: "CacheServer"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (the daemon is traffic-facing)."""

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _fingerprint_or_404(self) -> str | None:
        if self.path.startswith(_RECORD_ROUTE):
            token = self.path[len(_RECORD_ROUTE):]
            if _is_fingerprint(token):
                return token
        self._send_json(404, {"error": f"no route {self.path!r}"})
        return None

    def do_GET(self) -> None:
        """Serve a record's exact cached bytes, the stats counters, or health."""
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
            return
        if self.path == "/stats":
            store = self.server.store
            self._send_json(200, {"count": len(store), **store.stats.as_dict()})
            return
        fingerprint = self._fingerprint_or_404()
        if fingerprint is None:
            return
        blob = self.server.store.read_blob(fingerprint)
        if blob is None:
            self._send_json(404, {"error": "miss", "fingerprint": fingerprint})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_HEAD(self) -> None:
        """Existence probe for one fingerprint (no body either way)."""
        if not self.path.startswith(_RECORD_ROUTE):
            self.send_response(404)
            self.end_headers()
            return
        token = self.path[len(_RECORD_ROUTE):]
        exists = _is_fingerprint(token) and self.server.store.read_blob(token) is not None
        self.send_response(200 if exists else 404)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_PUT(self) -> None:
        """Store the request body under its fingerprint (atomic, first write wins)."""
        fingerprint = self._fingerprint_or_404()
        if fingerprint is None:
            return
        length = int(self.headers.get("Content-Length", "0"))
        blob = self.rfile.read(length)
        try:
            # Full integrity check at the door: the URL fingerprint, the
            # config payload's content hash and the record digest must all
            # agree, so a client with a corrupting transport cannot poison
            # the shared store.
            verify_entry(fingerprint, json.loads(blob))
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(400, {"error": f"malformed record payload: {exc}"})
            return
        self.server.store.write_blob(fingerprint, blob)
        self._send_json(200, {"stored": fingerprint})

    def do_DELETE(self) -> None:
        """``DELETE /records`` drops every entry (test/maintenance surface)."""
        if self.path.rstrip("/") != "/records":
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        removed = self.server.store.clear()
        self._send_json(200, {"removed": removed})


class CacheServer(ThreadingHTTPServer):
    """HTTP daemon serving one :class:`RunCache` directory by content hash.

    ``port=0`` binds an ephemeral port (the test default); :attr:`url` reports
    the bound address.  :meth:`start` runs the accept loop on a daemon thread
    so the server embeds in the serve front-end and in tests.
    """

    daemon_threads = True

    def __init__(self, cache_dir: str | Path, host: str = "127.0.0.1", port: int = 0) -> None:
        self.store = RunCache(cache_dir)
        super().__init__((host, port), _CacheHandler)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """Base URL clients should point an :class:`HTTPRunCache` at."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CacheServer":
        """Serve on a background daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(target=self.serve_forever, name="cache-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the accept loop down and join the background thread."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


class HTTPRunCache:
    """Client half of the remote store: ``get``/``put`` over GET/PUT by hash.

    Drop-in for :class:`~repro.execution.cache.RunCache` wherever the engine,
    workers or the serve front-end accept a cache.  Every record request runs
    under a :class:`~repro.execution.retry.RetryPolicy`: transient transport
    failures (connection refused, timeout, 5xx) are retried with exponential
    backoff before the client gives up.  An *exhausted* ``get`` counts in
    :attr:`CacheStats.errors` — not as a miss, so a down store cannot
    masquerade as a cold cache — and the caller still gets ``None`` and can
    train.  An exhausted ``put`` likewise records an error but never raises:
    a run that just spent minutes training must not be aborted by a flaky
    store (callers that need delivery confirmation, like the queue worker's
    publish-before-complete step, check membership after the put instead).

    Fetched payloads are verified against their content hash before the
    record is trusted (:func:`~repro.execution.cache.verify_entry`); a
    corrupted wire payload counts in :attr:`CacheStats.corrupt` and reads as
    a miss.
    """

    tier_name = "remote"

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry_policy = RetryPolicy() if retry_policy is None else retry_policy
        self.stats = CacheStats()

    def _url(self, fingerprint: str) -> str:
        return f"{self.base_url}{_RECORD_ROUTE}{fingerprint}"

    def _open(self, request: urllib.request.Request, *, op: str, key: str) -> Any:
        """The transport seam: one HTTP round-trip.

        Every network touch funnels through here so the fault-injection layer
        (:class:`repro.faults.FaultyHTTPRunCache`) can override exactly one
        method to inject transport errors, slow responses and corrupted bytes
        while the *real* retry and verification paths stay in play.
        """
        return urllib.request.urlopen(request, timeout=self.timeout)

    def _count_retry(self, retry_index: int, exc: BaseException, delay: float) -> None:
        self.stats.retries += 1

    def _request(self, request: urllib.request.Request, *, op: str, key: str) -> bytes:
        """One policy-governed request; returns the response body bytes.

        Raises :class:`_Permanent` for definitive statuses (404 and other
        4xx), re-raises a 4xx :class:`urllib.error.HTTPError` for ``PUT``
        callers that want the traceback, and :class:`_Transient` once the
        retry budget is spent on transport failures or 5xx responses.
        """

        def attempt() -> bytes:
            try:
                with self._open(request, op=op, key=key) as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                status = exc.code
                exc.close()
                if status >= 500:
                    raise _Transient(f"HTTP {status}") from exc
                raise _Permanent(status) from exc
            except (urllib.error.URLError, OSError) as exc:
                raise _Transient(exc) from exc

        return self.retry_policy.call(
            attempt,
            retry_on=(_Transient,),
            key=f"{op}:{key}",
            on_retry=self._count_retry,
        )

    def fingerprint(self, config: Any) -> str:
        """Content hash addressing ``config`` (same hash as every other backend)."""
        return config_fingerprint(config)

    def get(self, config: Any, fingerprint: str | None = None) -> RunRecord | None:
        """Fetch the record for ``config`` from the store, or ``None`` on a miss.

        Only a 404 is a *miss* (the entry genuinely is not there); any other
        HTTP status — a 5xx from a broken backend, a 403 from a misconfigured
        proxy — counts in :attr:`CacheStats.errors` instead, so a down cache
        server shows up in ``EngineReport.cache_tiers`` rather than
        masquerading as a cold cache.  Transient transport failures are
        retried under :attr:`retry_policy` first — a single flaky connection
        no longer forces a redundant retrain.  Either way the caller gets
        ``None`` on failure and can still train.
        """
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        request = urllib.request.Request(self._url(fingerprint), method="GET")
        try:
            blob = self._request(request, op="get", key=fingerprint)
        except _Permanent as exc:
            if exc.status == 404:
                self.stats.misses += 1
            else:
                self.stats.errors += 1
            return None
        except _Transient:
            self.stats.errors += 1
            return None
        try:
            record = verify_entry(fingerprint, json.loads(blob))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError):
            # The wire (or the far store) handed us bytes that do not hash to
            # the fingerprint we asked for: a torn read, not a cold cache.
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def put(self, config: Any, record: RunRecord, fingerprint: str | None = None) -> None:
        """Upload ``record`` under ``config``'s fingerprint (idempotent server-side).

        An unreachable or broken store counts in :attr:`CacheStats.errors`
        (after the retry budget is spent) instead of raising: the training
        work is already done and the caller may have other (local) tiers that
        can still keep the record.  A 4xx rejection, by contrast, means *we*
        sent a malformed payload — that is a bug worth a traceback, so it
        propagates.
        """
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        blob = json.dumps(entry_payload(config, record, fingerprint), indent=2, sort_keys=True).encode("utf-8")
        request = urllib.request.Request(
            self._url(fingerprint),
            data=blob,
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        try:
            self._request(request, op="put", key=fingerprint)
        except _Permanent as exc:
            raise urllib.error.HTTPError(
                request.full_url, exc.status, str(exc), hdrs=None, fp=None  # type: ignore[arg-type]
            ) from exc
        except _Transient:
            self.stats.errors += 1
            return
        self.stats.stores += 1

    def contains(self, config: Any, fingerprint: str | None = None) -> bool:
        """Whether the store holds a verified entry for ``config`` (one HEAD probe)."""
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        request = urllib.request.Request(self._url(fingerprint), method="HEAD")
        try:
            self._request(request, op="head", key=fingerprint)
            return True
        except (_Permanent, _Transient):
            return False

    def __contains__(self, config: Any) -> bool:
        return self.contains(config)

    def __len__(self) -> int:
        # A failed /stats probe is a broken backend, not an empty store: count
        # it in ``stats.errors`` (surfaced through ``EngineReport.cache_tiers``)
        # so an outage cannot masquerade as "0 records" in reports.  The
        # ``len()`` contract still forces an int, so 0 comes back either way.
        try:
            with urllib.request.urlopen(f"{self.base_url}/stats", timeout=self.timeout) as response:
                return int(json.loads(response.read())["count"])
        except (urllib.error.URLError, OSError, json.JSONDecodeError, KeyError, ValueError):
            self.stats.errors += 1
            return 0

    def clear(self) -> int:
        """Drop every entry in the remote store; return how many were removed."""
        request = urllib.request.Request(f"{self.base_url}/records", method="DELETE")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return int(json.loads(response.read())["removed"])

    def ping(self) -> bool:
        """Whether the store answers its health check."""
        try:
            with urllib.request.urlopen(f"{self.base_url}/healthz", timeout=self.timeout) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError):
            return False


class TieredRunCache:
    """Read-through / write-back composition of caches, nearest tier first.

    ``get`` consults the tiers in order; a hit at tier *i* backfills every
    nearer tier before returning, so the next lookup is local.  ``put`` writes
    through to every tier, publishing fresh records fleet-wide while keeping
    the local copy hot.  The composite exposes its own :class:`CacheStats`;
    per-tier counters stay on the member caches (the engine reports both).
    """

    tier_name = "tiered"

    def __init__(self, *tiers: Any) -> None:
        if not tiers:
            raise ValueError("TieredRunCache needs at least one tier")
        from repro.execution.context import resolve_cache_spec

        self.tiers = [resolve_cache_spec(tier) for tier in tiers]
        self.stats = CacheStats()

    def fingerprint(self, config: Any) -> str:
        """Content hash addressing ``config`` (shared by every tier)."""
        return config_fingerprint(config)

    def get(self, config: Any, fingerprint: str | None = None) -> RunRecord | None:
        """Nearest hit wins; backfill the tiers in front of it (read-through)."""
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        for i, tier in enumerate(self.tiers):
            record = tier.get(config, fingerprint=fingerprint)
            if record is not None:
                for nearer in self.tiers[:i]:
                    # backfill is an optimisation; a tier that cannot take the
                    # copy (disk full, transport down) must not turn a hit
                    # into an aborted run
                    try:
                        nearer.put(config, record, fingerprint=fingerprint)
                    except (urllib.error.URLError, OSError):
                        self.stats.errors += 1
                self.stats.hits += 1
                return record
        self.stats.misses += 1
        return None

    def put(self, config: Any, record: RunRecord, fingerprint: str | None = None) -> None:
        """Write ``record`` through to every tier that will take it.

        A tier whose transport is down (remote store unreachable mid-run) is
        counted in this composite's :attr:`CacheStats.errors` and skipped —
        the surviving tiers still get the record, so training degrades to
        local caching instead of losing the finished run.
        """
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        for tier in self.tiers:
            try:
                tier.put(config, record, fingerprint=fingerprint)
            except (urllib.error.URLError, OSError):
                self.stats.errors += 1
        self.stats.stores += 1

    def contains(self, config: Any, fingerprint: str | None = None) -> bool:
        """Whether any tier holds an entry for ``config``."""
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        return any(tier.contains(config, fingerprint=fingerprint) for tier in self.tiers)

    def __contains__(self, config: Any) -> bool:
        return self.contains(config)

    def __len__(self) -> int:
        return max(len(tier) for tier in self.tiers)

    def clear(self) -> int:
        """Clear every tier; return the largest per-tier removal count."""
        return max(tier.clear() for tier in self.tiers)


class ShardedRunCache:
    """Route each fingerprint to one of N backends by content hash.

    The router is stateless and deterministic (``int(fp[:8], 16) % N``), so
    any client with the same shard list reads and writes the same placement —
    horizontal scale-out with no coordination.
    """

    tier_name = "sharded"

    def __init__(self, *shards: Any) -> None:
        if not shards:
            raise ValueError("ShardedRunCache needs at least one shard")
        from repro.execution.context import resolve_cache_spec

        self.shards = [resolve_cache_spec(shard) for shard in shards]
        self.stats = CacheStats()

    def _shard_for(self, fingerprint: str) -> Any:
        return self.shards[int(fingerprint[:8], 16) % len(self.shards)]

    def fingerprint(self, config: Any) -> str:
        """Content hash addressing ``config`` (also the routing key)."""
        return config_fingerprint(config)

    def get(self, config: Any, fingerprint: str | None = None) -> RunRecord | None:
        """Look the record up on its owning shard."""
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        record = self._shard_for(fingerprint).get(config, fingerprint=fingerprint)
        if record is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return record

    def put(self, config: Any, record: RunRecord, fingerprint: str | None = None) -> None:
        """Store the record on its owning shard."""
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        self._shard_for(fingerprint).put(config, record, fingerprint=fingerprint)
        self.stats.stores += 1

    def contains(self, config: Any, fingerprint: str | None = None) -> bool:
        """Whether the owning shard holds an entry for ``config``."""
        if fingerprint is None:
            fingerprint = config_fingerprint(config)
        return self._shard_for(fingerprint).contains(config, fingerprint=fingerprint)

    def __contains__(self, config: Any) -> bool:
        return self.contains(config)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def clear(self) -> int:
        """Clear every shard; return the total number of removed entries."""
        return sum(shard.clear() for shard in self.shards)
