"""The benchmark's three workloads and the correctness gate each run passes.

``conv_cold`` and ``vae_cold`` regenerate one paper table into a fresh
on-disk run cache, as ``repro report --scale S --only A`` does: plan, train
every cell, build, render and write the markdown and JSON report.
``serve_warm`` fills a cache, starts the report server in-process and
requests reports from it in a closed loop; nothing trains while it is timed.

A "request" is one report a user asks for: served on ``serve_warm``,
generated cold on the other two.  Each workload's ``run`` times requests with
tracing off; :func:`measure_traced` alternates untraced and traced phases, so
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import layers
from spans import Tracer

#: seconds per window of :meth:`Measurement.windowed_median_s`
WINDOW_S = 2.0

#: ``--seed`` value that runs each table with its default trial seeds, i.e.
#: exactly what ``repro report`` writes
DEFAULT_SEED = 0


def trial_seeds(seed: int, pool: list[int]) -> tuple[int, ...] | None:
    """The trial seeds a cold report runs for benchmark seed ``seed``.

    ``DEFAULT_SEED`` keeps each table's own derived seeds (``None``); any
    other seed picks one trial seed from ``pool``, the trial seeds on which
    no cell of either cold table diverges.  A diverged cell stops training
    early, so a seed outside the pool would do less work than the others.
    """
    if seed == DEFAULT_SEED:
        return None
    return (pool[(seed - 1) % len(pool)],)


def report_digest(markdown: str, payload: str) -> str:
    """SHA-256 over a report's markdown and JSON bytes."""
    return hashlib.sha256(markdown.encode() + b"\0" + payload.encode()).hexdigest()


@dataclass
class Measurement:
    """What one timed region produced: per-operation samples and failures."""

    #: wall seconds per request: a report generated cold, or a served report
    op_s: list[float] = field(default_factory=list)
    #: ``time.perf_counter()`` at the start of each request of ``op_s``
    op_start: list[float] = field(default_factory=list)
    #: the artifact each request of ``op_s`` asked for
    op_artifact: list[str] = field(default_factory=list)
    #: CPU seconds per report (cold), or one value per phase: CPU per request (serve)
    cpu_s: list[float] = field(default_factory=list)
    #: client-observed seconds to the server's first (``plan``) event
    first_event_s: list[float] = field(default_factory=list)
    cells: int = 0
    report_bytes: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def mean_s(self) -> float:
        """Mean wall seconds per request."""
        return statistics.fmean(self.op_s)

    def windowed_median_s(self, window: float = WINDOW_S) -> float:
        """The median request time within each ``window`` seconds, averaged over the run.

        Requests are grouped by start time.  Within a window the median is
        taken per artifact and those medians are averaged, because the serve
        mix is bimodal (fig3 is served in half the time of either table) and
        a median over the mix would sit in the sparse gap between the modes.
        The windows are averaged, not pooled: the host's speed shifts by a
        third from one few-second stretch to the next, and a median pooled
        over the run moves with whichever speed held for most of it, while
        an average moves with the share of time at each.  A cold report takes
        longer than a window, so on the cold workloads each window holds one
        report and this is the mean report time.
        """
        windows: dict[int, dict[str, list[float]]] = {}
        origin = self.op_start[0]
        for start, artifact, seconds in zip(self.op_start, self.op_artifact, self.op_s, strict=True):
            windows.setdefault(int((start - origin) / window), {}).setdefault(artifact, []).append(seconds)
        return statistics.fmean(
            statistics.fmean(statistics.median(samples) for samples in by_artifact.values())
            for by_artifact in windows.values()
        )

    def record(self, start: float, artifact: str, seconds: float) -> None:
        """One finished request: its start time, the artifact it asked for and its wall time."""
        self.op_start.append(start)
        self.op_artifact.append(artifact)
        self.op_s.append(seconds)


class ColdReport:
    """Regenerate one artifact cold, into a fresh on-disk cache per report."""

    def __init__(self, name: str, artifact: str, scale: str, seed: int, workdir: Path,
                 expected_digest: str | None, seed_pool: list[int]) -> None:
        self.name = name
        self.artifact_name = artifact
        self.scale_name = scale
        self.seed = seed
        self.seed_pool = seed_pool
        self.workdir = workdir
        self.expected_digest = expected_digest
        self._reports = 0
        self.digests: set[str] = set()
        self._last: tuple[Path, Any, str, str] | None = None

    def setup(self) -> None:
        """Resolve the scale and artifact and create an empty working directory."""
        from repro.reporting.registry import get_artifact, resolve_scale

        self.scale = resolve_scale(self.scale_name, seeds=trial_seeds(self.seed, self.seed_pool))
        self.cells = len(get_artifact(self.artifact_name).plan(self.scale))
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def close(self) -> None:
        """Nothing outlives a cold report."""

    def trace_phase(self, seconds: float) -> float:
        """A traced run alternates single untraced and traced reports."""
        return 0.0

    def _report(self, sink: Measurement) -> None:
        from repro.execution import ExecutionContext
        from repro.reporting import report as report_mod
        from repro.reporting.registry import execute_artifact, get_artifact

        self._reports += 1
        root = self.workdir / f"r{self._reports}"
        sink.attempted += 1
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        try:
            context = ExecutionContext(cache=str(root / "cache"))
            context = context.replace(cache=context.resolve_cache())
            artifact = get_artifact(self.artifact_name)
            store, engine_report = execute_artifact(artifact, self.scale, context=context)
            result = artifact.build(store, self.scale)
            md_path, json_path = report_mod.write_report(result, self.scale, root / "out")
        except Exception as exc:  # a raised cell fails this report, not the run
            sink.failures.append(f"{self.name}: report raised {exc!r}")
            return
        wall = time.perf_counter() - start_wall
        cpu = time.process_time() - start_cpu
        if engine_report.failures or engine_report.executed != engine_report.total:
            sink.failures.append(
                f"{self.name}: cold report trained {engine_report.executed}/{engine_report.total} cells"
            )
            return
        diverged = sum(1 for record in store if record.extra.get("diverged"))
        if diverged:
            sink.failures.append(f"{self.name}: {diverged} cells diverged")
            return
        markdown, payload = md_path.read_text(), json_path.read_text()
        self.digests.add(report_digest(markdown, payload))
        if self._last is not None:
            shutil.rmtree(self._last[0], ignore_errors=True)
        self._last = (root, context, markdown, payload)
        sink.record(start_wall, self.artifact_name, wall)
        sink.cpu_s.append(cpu)
        sink.cells += self.cells
        sink.report_bytes += len(markdown.encode()) + len(payload.encode())

    def run(self, seconds: float, sink: Measurement, tracer: Tracer | None = None,
            min_requests: int = 0) -> None:
        """Cold reports back to back: at least one, then until ``seconds`` have passed.

        ``min_requests`` is ignored: a few reports of several seconds each
        already give a steady median.
        """
        start = time.perf_counter()
        while True:
            root = tracer.open("bench.report") if tracer is not None else None
            try:
                self._report(sink)
            finally:
                if tracer is not None:
                    tracer.close(root)
            if time.perf_counter() - start >= seconds:
                break
        sink.wall_s += time.perf_counter() - start

    def verify(self) -> list[str]:
        """Cold renders agree with each other, the warm re-render and the recorded digest."""
        from repro.reporting import report as report_mod
        from repro.reporting.registry import execute_artifact, get_artifact

        failures: list[str] = []
        if len(self.digests) > 1:
            failures.append(f"{self.name}: cold reports of one seed differ ({len(self.digests)} digests)")
        if self._last is None:
            return failures + [f"{self.name}: no report finished"]
        _, context, markdown, payload = self._last
        artifact = get_artifact(self.artifact_name)
        store, engine_report = execute_artifact(artifact, self.scale, context=context)
        result = artifact.build(store, self.scale)
        if engine_report.cache_hits != engine_report.total:
            failures.append(f"{self.name}: warm re-render missed the cache")
        warm = (report_mod.render_markdown(result, self.scale), report_mod.render_json(result, self.scale))
        if warm != (markdown, payload):
            failures.append(f"{self.name}: warm re-render differs from the cold render")
        digest = report_digest(markdown, payload)
        if self.seed == DEFAULT_SEED and digest != self.expected_digest:
            failures.append(f"{self.name}: report digest {digest} != recorded {self.expected_digest}")
        return failures


class ServeWarm:
    """One closed-loop client requesting reports from a warm in-process server.

    The server handles each request on its own thread, but the interpreter
    lock runs one thread at a time: a second in-process client adds no
    throughput, it only doubles latency and its spread through contention
    for the lock.
    """

    name = "serve_warm"
    #: artifacts in the request mix, all at micro scale
    ARTIFACTS = ("table4", "table7", "fig3")
    SCALE = "micro"

    def __init__(self, seed: int, workdir: Path, expected_digests: dict[str, str]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected_digests = expected_digests
        self.server: Any = None
        self.expected: dict[str, tuple[str, str]] = {}
        self.cells: dict[str, int] = {}
        self._setups = 0
        self._phases = 0

    def setup(self) -> None:
        """Train the mix's cells into a fresh cache, render locally, start the server."""
        from repro.cli.serve import ExperimentServer
        from repro.execution import ExecutionContext
        from repro.reporting.registry import execute_artifact, get_artifact, resolve_scale
        from repro.reporting.report import render_json, render_markdown

        self.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self._setups += 1
        context = ExecutionContext(cache=str(self.workdir / f"cache{self._setups}"))
        context = context.replace(cache=context.resolve_cache())
        scale = resolve_scale(self.SCALE)
        for name in self.ARTIFACTS:
            artifact = get_artifact(name)
            execute_artifact(artifact, scale, context=context)
            # the expected bytes are rendered from the warm cache, as the server does
            store, _ = execute_artifact(artifact, scale, context=context)
            result = artifact.build(store, scale)
            self.expected[name] = (render_markdown(result, scale), render_json(result, scale))
            self.cells[name] = len(store)
        self.server = ExperimentServer(context, port=0).start()
        with urllib.request.urlopen(f"{self.server.url}/healthz", timeout=30) as response:
            if json.loads(response.read()) != {"ok": True}:
                raise RuntimeError("report server failed its health check")

    def close(self) -> None:
        """Stop the server of the latest set-up."""
        if self.server is not None:
            self.server.stop()
            self.server = None

    def trace_phase(self, seconds: float) -> float:
        """A traced run alternates two untraced and two traced request phases."""
        return seconds / 4

    def _request(self, name: str, sink: Measurement, tracer: Tracer | None) -> None:
        from repro.cli.serve import request_report

        first: list[float] = []
        failure = None
        sink.attempted += 1
        start = time.perf_counter()
        root = tracer.open("bench.request") if tracer is not None else None
        try:
            event = request_report(
                self.server.url,
                name,
                scale=self.SCALE,
                timeout=60,
                progress=lambda _line: first or first.append(time.perf_counter()),
            )
            if (event["markdown"], event["json"]) != self.expected[name]:
                failure = f"serve_warm: served {name} differs from the local render"
        except Exception as exc:  # a failed request counts; the loop goes on
            failure = f"serve_warm: request for {name} raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.close(root)
        latency = time.perf_counter() - start
        if failure is not None:
            sink.failures.append(failure)
            return
        sink.record(start, name, latency)
        sink.cells += self.cells[name]
        sink.report_bytes += sum(len(text.encode()) for text in self.expected[name])
        if first:
            sink.first_event_s.append(first[0] - start)

    def run(self, seconds: float, sink: Measurement, tracer: Tracer | None = None,
            min_requests: int = 0) -> None:
        """Closed-loop requests for ``seconds``, then on until ``min_requests`` were served.

        Each round requests every artifact of the mix once, in an order drawn
        from the seed.  The extension stops after four times ``seconds``
        whatever the count.
        """
        self._phases += 1
        rng = random.Random(f"{self.seed}-{self._phases}")
        served = len(sink.op_s)
        start, cpu = time.perf_counter(), time.process_time()
        deck: list[str] = []
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (len(sink.op_s) - served >= min_requests or elapsed >= 4 * seconds):
                break
            if not deck:
                deck = list(self.ARTIFACTS)
                rng.shuffle(deck)
            self._request(deck.pop(), sink, tracer)
        sink.wall_s += time.perf_counter() - start
        sink.cpu_s.append((time.process_time() - cpu) / max(len(sink.op_s) - served, 1))

    def verify(self) -> list[str]:
        """The local renders served against match the recorded default-seed digests."""
        failures = []
        for name, (markdown, payload) in self.expected.items():
            key = f"{name}@{self.SCALE}"
            digest = report_digest(markdown, payload)
            if digest != self.expected_digests.get(key):
                failures.append(f"serve_warm: local {key} digest {digest} != recorded")
        return failures


def measure_traced(workload: Any, seconds: float, tracer: Tracer) -> tuple[Measurement, Measurement]:
    """Alternate untraced and traced phases until ``seconds`` have passed.

    Returns (traced, untraced).  Each untraced phase runs with every wrapper
    removed and must record no span.
    """
    traced, untraced = Measurement(), Measurement()
    phase = workload.trace_phase(seconds)
    start = time.perf_counter()
    while not traced.op_s or time.perf_counter() - start < seconds:
        before = len(tracer)
        workload.run(phase, untraced)
        if len(tracer) != before:
            untraced.failures.append(f"{workload.name}: an untraced phase recorded spans")
        patcher = layers.install(tracer)
        try:
            workload.run(phase, traced, tracer)
            if not tracer.wait_closed(timeout=10.0):
                traced.failures.append(f"{workload.name}: a traced span never closed")
        finally:
            patcher.restore()
        if not traced.op_s and traced.attempted >= 3:
            break  # nothing succeeds; the failures say why
    return traced, untraced
