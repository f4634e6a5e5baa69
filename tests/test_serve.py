"""End-to-end tests for ``python -m repro serve``: the experiment server.

The headline contract: two clients concurrently requesting the same artifact
trigger exactly one training run per unique cell (single-flight dedup), and
the reports each client writes are byte-identical to what a local
``repro report`` produces from the same cache.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.request

import pytest

from repro.cli.serve import ExperimentServer, request_report
from repro.execution import ExecutionContext
from repro.reporting import execute_artifact, get_artifact, resolve_scale, write_report

ARTIFACT = "table4"
SCALE = "micro"
SEEDS = (0,)


@pytest.fixture()
def server(tmp_path):
    context = ExecutionContext(cache=tmp_path / "cache")
    srv = ExperimentServer(context, port=0)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def local_report(tmp_path_factory):
    """``name -> {suffix: bytes}`` of a local ``repro report``, each trained once."""
    reports: dict[str, dict[str, bytes]] = {}

    def render(name: str) -> dict[str, bytes]:
        if name not in reports:
            root = tmp_path_factory.mktemp(f"local-{name}")
            artifact = get_artifact(name)
            scale = resolve_scale(SCALE, seeds=SEEDS)
            store, _ = execute_artifact(artifact, scale, context=ExecutionContext(cache=root / "cache"))
            write_report(artifact.build(store, scale), scale, root / "out")
            reports[name] = {
                suffix: (root / "out" / f"{name}{suffix}").read_bytes() for suffix in (".md", ".json")
            }
        return reports[name]

    return render


def fetch_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read())


class TestEndpoints:
    def test_healthz_and_stats(self, server):
        assert fetch_json(f"{server.url}/healthz")["ok"]
        stats = fetch_json(f"{server.url}/stats")
        assert stats["requests"] == 0 and stats["cells_trained"] == 0

    def test_artifact_listing(self, server):
        listing = fetch_json(f"{server.url}/v1/artifacts")
        assert ARTIFACT in listing["artifacts"]

    def test_unknown_artifact_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/report?artifact=nope", timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/nothing", timeout=10.0)
        assert excinfo.value.code == 404

    def test_server_requires_cache(self):
        with pytest.raises(ValueError, match="cache"):
            ExperimentServer(ExecutionContext())


class TestServedReports:
    def test_report_stream_and_byte_identical_output(self, server, tmp_path, local_report):
        """One request: NDJSON events arrive in order, files match local output."""
        events = []
        out = tmp_path / "served"
        report = request_report(
            server.url,
            ARTIFACT,
            scale=SCALE,
            seeds=SEEDS,
            out_dir=out,
            progress=lambda line: events.append(json.loads(line)),
        )
        kinds = [event["event"] for event in events]
        assert kinds[0] == "plan" and "executed" in kinds
        assert report["event"] == "report" and report["artifact"] == ARTIFACT

        for suffix, local in local_report(ARTIFACT).items():
            served = (out / f"{ARTIFACT}{suffix}").read_bytes()
            assert served == local, f"served {suffix} differs from local report"

    def test_concurrent_clients_train_each_cell_once(self, server, tmp_path):
        """Single-flight dedup: two identical in-flight requests share one run."""
        results: dict[str, dict] = {}

        def client(name: str) -> None:
            results[name] = request_report(
                server.url, ARTIFACT, scale=SCALE, seeds=SEEDS, out_dir=tmp_path / name
            )

        threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results["c0"]["markdown"] == results["c1"]["markdown"]
        assert results["c0"]["json"] == results["c1"]["json"]
        assert (tmp_path / "c0" / f"{ARTIFACT}.md").read_bytes() == (
            tmp_path / "c1" / f"{ARTIFACT}.md"
        ).read_bytes()

        stats = server.stats()
        unique_cells = stats["cache_entries"]
        assert unique_cells > 0
        # every unique cell trained exactly once across BOTH clients
        assert stats["cells_trained"] == unique_cells
        assert stats["requests"] == 2

    def test_concurrent_clients_train_different_artifacts(self, server, tmp_path, local_report):
        """Requests missing different cells train in one process, one at a time.

        Grad mode and the active graph plan are process-global, so without
        the engine's in-process training lock one request's evaluation
        (``no_grad``) lands in the middle of the other's backward pass.  The
        third client repeats the second's artifact and joins its cells.
        """
        names = (ARTIFACT, "table7", "table7")
        start = threading.Barrier(len(names))
        errors: dict[int, Exception] = {}

        def client(idx: int) -> None:
            start.wait()
            try:
                request_report(server.url, names[idx], scale=SCALE, seeds=SEEDS, out_dir=tmp_path / str(idx))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors[idx] = exc

        threads = [threading.Thread(target=client, args=(idx,)) for idx in range(len(names))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a client never finished"

        assert not errors, f"served requests failed: {errors}"
        for idx, name in enumerate(names):
            for suffix, local in local_report(name).items():
                served = (tmp_path / str(idx) / f"{name}{suffix}").read_bytes()
                assert served == local, f"client {idx}: served {name}{suffix} differs from local report"
        stats = server.stats()
        assert stats["cells_trained"] == stats["cache_entries"]

    def test_second_request_is_pure_cache(self, server, tmp_path):
        request_report(server.url, ARTIFACT, scale=SCALE, seeds=SEEDS)
        trained_once = server.stats()["cells_trained"]
        events = []
        request_report(
            server.url,
            ARTIFACT,
            scale=SCALE,
            seeds=SEEDS,
            progress=lambda line: events.append(json.loads(line)),
        )
        assert server.stats()["cells_trained"] == trained_once
        assert all(event["event"] != "executed" for event in events)

    def test_each_unique_cell_is_hashed_once_per_request(self, server, monkeypatch):
        """The plan's fingerprints key every later check, claim, read and write."""
        from repro.execution import cache as cache_mod
        from repro.execution import engine as engine_mod
        from repro.execution import queue as queue_mod
        from repro.execution import remote_cache as remote_mod

        calls = []
        original = cache_mod.config_fingerprint

        def counted(config):
            calls.append(config)
            return original(config)

        for module in (cache_mod, engine_mod, queue_mod, remote_mod):
            monkeypatch.setattr(module, "config_fingerprint", counted)
        for warm in (False, True):
            calls.clear()
            events = []
            request_report(
                server.url,
                ARTIFACT,
                scale=SCALE,
                seeds=SEEDS,
                progress=lambda line: events.append(json.loads(line)),
            )
            unique = events[0]["unique_cells"]
            assert ("executed" in [event["event"] for event in events]) is not warm
            assert 0 < len(calls) <= unique, f"{len(calls)} fingerprints for {unique} cells (warm={warm})"

    def test_client_raises_on_server_error(self, server):
        with pytest.raises(RuntimeError):
            request_report(server.url, "definitely-not-an-artifact")
