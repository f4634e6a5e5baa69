"""The ``repro serve`` front-end: paper artifacts as a traffic-serving service.

A :class:`ExperimentServer` accepts artifact/sweep requests from many
concurrent clients over HTTP, streams NDJSON progress events while cells
train, and finishes each stream with the rendered report — byte-identical to
what a local ``python -m repro report`` writes, because both sides share the
registry's plan/build specs and renderers.

Three properties make it a *fabric* rather than a script runner:

* **Single-flight dedup** — every request's cells are claimed fingerprint-by-
  fingerprint in a shared :class:`~repro.execution.queue.SingleFlight` table;
  concurrent requests for overlapping sweeps train each unique cell exactly
  once, with the latecomers waiting on the first requester's claim and then
  reading the record from the shared cache.
* **Location-transparent caching** — the shared cache can be a local
  directory, a remote ``http(s)://`` store, or a tiered composition of both;
  every record served was either trained once, fleet-wide, or never trained
  at all.
* **Pluggable execution** — cells run inline (serial or process pool) or are
  submitted to the sqlite :class:`~repro.execution.queue.WorkQueue`, where
  detached ``python -m repro worker`` processes lease, heartbeat and complete
  them.  Cells trained inside the server process run one request at a time
  (the engine's in-process training lock); the cache-only assembly of each
  report never waits on it.

Endpoints: ``GET /healthz``, ``GET /stats``, ``GET /v1/artifacts`` and
``GET/POST /v1/report`` (``artifact=``, ``scale=``, ``seeds=``, ``dtype=``).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

from repro.execution.context import ExecutionContext
from repro.execution.engine import EngineReport, ExperimentEngine
from repro.execution.queue import QueueWorker, SingleFlight

__all__ = ["ExperimentServer", "request_report", "run_worker", "serve_forever"]

#: rounds of claim → run → wait a request attempts before giving up; each
#: round either trains cells, waits on another request, or observes the cache
#: already satisfied — repeated no-progress rounds indicate a wedged fleet
_MAX_ROUNDS = 100


class ExperimentServer(ThreadingHTTPServer):
    """Threaded HTTP server turning artifact requests into deduped cell runs.

    Parameters
    ----------
    context:
        The :class:`ExecutionContext` every request executes under.  Its
        ``cache`` is resolved once and shared across all requests — that
        shared object (plus the :class:`SingleFlight` claim table) is what
        makes concurrent identical requests cost one training run per unique
        cell.  A cache is required; a serve fabric without one could not
        share work at all.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (test default).
    wait_timeout:
        Seconds a request waits on another request's claim before re-checking
        the cache and re-claiming (self-healing if a peer crashed).
    """

    daemon_threads = True

    def __init__(
        self,
        context: ExecutionContext,
        host: str = "127.0.0.1",
        port: int = 8765,
        wait_timeout: float = 600.0,
    ) -> None:
        self.context = context
        self.cache = context.resolve_cache()
        if self.cache is None:
            raise ValueError("repro serve requires a cache (directory or http(s):// store URL)")
        self.queue = context.resolve_queue()
        self.flight = SingleFlight()
        self.wait_timeout = wait_timeout
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.reports = 0
        self.cells_trained = 0
        self._thread: threading.Thread | None = None
        super().__init__((host, port), _ServeHandler)

    # -- engine factory ------------------------------------------------------
    def make_engine(self) -> ExperimentEngine:
        """A fresh engine over the *shared* cache/queue for one request slice."""
        from repro.reporting.registry import run_cell

        return ExperimentEngine(
            cache=self.cache,
            max_workers=self.context.workers,
            retries=self.context.retries,
            run_fn=run_cell,
            batch_seeds=self.context.batch_seeds,
            plan=self.context.plan,
            executor=self.context.executor,
            queue=self.queue,
            queue_inline=self.context.queue_inline,
        )

    def note_report(self, report: EngineReport) -> None:
        """Fold one request slice's engine report into the server counters."""
        with self._stats_lock:
            self.cells_trained += report.executed + report.remote

    def stats(self) -> dict[str, Any]:
        """Service counters for ``GET /stats`` (and the test suite)."""
        with self._stats_lock:
            counters = {
                "requests": self.requests,
                "reports": self.reports,
                "cells_trained": self.cells_trained,
            }
        counters["in_flight"] = self.flight.in_flight()
        counters["cache_entries"] = len(self.cache)
        counters["executor"] = self.context.executor
        return counters

    @property
    def url(self) -> str:
        """Base URL clients should point ``repro request`` at."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentServer":
        """Serve on a background daemon thread (embedding/tests); returns self."""
        self._thread = threading.Thread(target=self.serve_forever, name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the accept loop and release the socket."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request into the server's artifact machinery."""

    server: ExperimentServer
    protocol_version = "HTTP/1.0"  # close-delimited bodies make NDJSON streaming trivial

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        """Silence default per-request stderr noise."""

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _params(self) -> dict[str, str]:
        parsed = urllib.parse.urlsplit(self.path)
        return {key: values[-1] for key, values in urllib.parse.parse_qs(parsed.query).items()}

    def do_GET(self) -> None:
        """Dispatch the read-only routes and the streaming report route."""
        route = urllib.parse.urlsplit(self.path).path
        if route == "/healthz":
            self._send_json(200, {"ok": True})
        elif route == "/stats":
            self._send_json(200, self.server.stats())
        elif route == "/v1/artifacts":
            from repro.reporting.registry import available_artifacts

            self._send_json(200, {"artifacts": available_artifacts()})
        elif route == "/v1/report":
            self._handle_report(self._params())
        else:
            self._send_json(404, {"error": f"no route {route!r}"})

    def do_POST(self) -> None:
        """``POST /v1/report`` with a JSON body mirroring the GET query params."""
        route = urllib.parse.urlsplit(self.path).path
        if route != "/v1/report":
            self._send_json(404, {"error": f"no route {route!r}"})
            return
        length = int(self.headers.get("Content-Length", "0"))
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
            params = {key: str(value) for key, value in body.items()}
        except (json.JSONDecodeError, AttributeError):
            self._send_json(400, {"error": "body must be a JSON object"})
            return
        self._handle_report(params)

    # -- the report stream ---------------------------------------------------
    def _handle_report(self, params: dict[str, str]) -> None:
        from repro.reporting.registry import get_artifact, resolve_scale, run_cell
        from repro.reporting.report import render_json, render_markdown

        server = self.server
        with server._stats_lock:
            server.requests += 1
        try:
            artifact = get_artifact(params["artifact"])
            seeds = None
            if params.get("seeds"):
                seeds = tuple(int(token) for token in params["seeds"].split(",") if token.strip())
            scale = resolve_scale(
                params.get("scale", "small"), dtype=params.get("dtype") or None, seeds=seeds
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            self._send_json(400, {"error": str(message)})
            return

        cells = artifact.plan(scale)
        from repro.execution.cache import config_fingerprint

        # Each cell is hashed once per request: the existence checks, the
        # claims and both engine passes below are all keyed by these.
        fingerprints = [config_fingerprint(cell) for cell in cells]
        unique: dict[str, Any] = {}
        for fingerprint, cell in zip(fingerprints, cells):
            unique.setdefault(fingerprint, cell)

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()

        def emit(event: dict[str, Any]) -> None:
            self.wfile.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
            self.wfile.flush()

        emit(
            {
                "event": "plan",
                "artifact": artifact.name,
                "scale": scale.name,
                "cells": len(cells),
                "unique_cells": len(unique),
            }
        )
        try:
            for round_idx in range(_MAX_ROUNDS):
                missing = {
                    fingerprint: cell
                    for fingerprint, cell in unique.items()
                    if not server.cache.contains(cell, fingerprint=fingerprint)
                }
                if not missing:
                    break
                mine, theirs = server.flight.claim(list(missing))
                if mine:
                    engine = server.make_engine()
                    try:
                        engine.run([missing[fingerprint] for fingerprint in mine], fingerprints=mine)
                    finally:
                        server.flight.release(mine)
                    report = engine.last_report
                    server.note_report(report)
                    emit(
                        {
                            "event": "executed",
                            "cells": len(mine),
                            "trained": report.executed,
                            "remote": report.remote,
                            "cache_hits": report.cache_hits,
                            "executor": report.executor,
                        }
                    )
                if theirs:
                    server.flight.wait(theirs, timeout=server.wait_timeout)
                    emit({"event": "joined", "cells": len(theirs)})
            else:
                raise RuntimeError(f"no progress after {_MAX_ROUNDS} claim rounds")

            # Everything is cached now; one serial pass assembles the records
            # in plan order and the registry build + renderers produce bytes
            # identical to a local `python -m repro report`.
            engine = ExperimentEngine(cache=server.cache, run_fn=run_cell)
            store = engine.run(cells, fingerprints=fingerprints)
            result = artifact.build(store, scale)
            emit(
                {
                    "event": "report",
                    "artifact": artifact.name,
                    "scale": scale.name,
                    "markdown": render_markdown(result, scale),
                    "json": render_json(result, scale),
                }
            )
            with server._stats_lock:
                server.reports += 1
        except BrokenPipeError:
            return  # client went away; nothing to tell it
        except Exception as exc:  # surface the failure inside the stream
            try:
                emit({"event": "error", "error": repr(exc)})
            except BrokenPipeError:
                pass


def serve_forever(
    context: ExecutionContext,
    host: str = "127.0.0.1",
    port: int = 8765,
    announce: Callable[[str], None] = print,
) -> None:
    """Run the experiment server until interrupted (the CLI entry point)."""
    server = ExperimentServer(context, host=host, port=port)
    announce(
        f"repro serve listening on {server.url} "
        f"(executor={context.executor}, cache={context.cache!r}"
        + (f", queue={context.queue!r}" if context.queue is not None else "")
        + ")"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("repro serve: shutting down")
    finally:
        server.server_close()


def run_worker(
    queue: str | Path,
    cache: Any,
    visibility_timeout: float = 60.0,
    idle_exit: float | None = None,
    max_jobs: int | None = None,
    announce: Callable[[str], None] = print,
) -> int:
    """Run one queue worker loop (the ``repro worker`` entry point).

    Returns the number of jobs processed, after the queue has idled for
    ``idle_exit`` seconds or ``max_jobs`` jobs completed (with neither bound,
    runs until the process is killed).
    """
    worker = QueueWorker(queue, cache, visibility_timeout=visibility_timeout)
    announce(f"repro worker {worker.owner}: leasing from {queue!r}")
    processed = worker.run_forever(idle_exit=idle_exit, max_jobs=max_jobs)
    announce(
        f"repro worker {worker.owner}: processed {processed} jobs "
        f"({worker.completed} completed, {worker.failed} failed)"
    )
    return processed


def request_report(
    base_url: str,
    artifact: str,
    scale: str = "small",
    seeds: str | None = None,
    dtype: str | None = None,
    out_dir: str | Path | None = None,
    timeout: float = 3600.0,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Request one artifact from a running server; optionally write its report.

    Streams the server's NDJSON events (echoing them through ``progress``),
    returns the final ``report`` event, and — when ``out_dir`` is given —
    writes ``<name>.md`` / ``<name>.json`` with the server's exact bytes, so
    the files are ``cmp``-identical to a local ``python -m repro report``.
    """
    params = {"artifact": artifact, "scale": scale}
    if seeds:
        if not isinstance(seeds, str):
            seeds = ",".join(str(seed) for seed in seeds)
        params["seeds"] = seeds
    if dtype:
        params["dtype"] = dtype
    url = f"{base_url.rstrip('/')}/v1/report?{urllib.parse.urlencode(params)}"
    try:
        response = urllib.request.urlopen(url, timeout=timeout)
    except urllib.error.HTTPError as error:
        try:
            detail = json.loads(error.read()).get("error", str(error))
        except (ValueError, OSError):
            detail = str(error)
        raise RuntimeError(f"server rejected request: {detail}") from error
    with response:
        for line in response:
            event = json.loads(line)
            kind = event.get("event")
            if kind == "error":
                raise RuntimeError(f"server error: {event.get('error')}")
            if kind == "report":
                if out_dir is not None:
                    out = Path(out_dir)
                    out.mkdir(parents=True, exist_ok=True)
                    (out / f"{event['artifact']}.md").write_text(event["markdown"])
                    (out / f"{event['artifact']}.json").write_text(event["json"])
                return event
            if progress is not None:
                progress(json.dumps(event, sort_keys=True))
    raise RuntimeError("server stream ended without a report event")
