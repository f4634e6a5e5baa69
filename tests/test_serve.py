"""End-to-end tests for ``python -m repro serve``: the experiment server.

The headline contract: two clients concurrently requesting the same artifact
trigger exactly one training run per unique cell (single-flight dedup), and
the reports each client writes are byte-identical to what a local
``repro report`` produces from the same cache.
"""

from __future__ import annotations

import json
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
    def test_report_stream_and_byte_identical_output(self, server, tmp_path):
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

        local_dir = tmp_path / "local"
        artifact = get_artifact(ARTIFACT)
        scale = resolve_scale(SCALE, seeds=SEEDS)
        store, _ = execute_artifact(
            artifact, scale, context=ExecutionContext(cache=tmp_path / "local-cache")
        )
        write_report(artifact.build(store, scale), scale, local_dir)
        for suffix in (".md", ".json"):
            served = (out / f"{ARTIFACT}{suffix}").read_bytes()
            local = (local_dir / f"{ARTIFACT}{suffix}").read_bytes()
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
