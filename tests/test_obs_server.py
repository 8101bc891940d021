"""Live telemetry endpoint tests (repro.obs.server) — real HTTP GETs
against an ephemeral-port server, the curl-equivalent checks."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.service import MiningService, RetryPolicy
from tests.test_service_e2e import build_dataset


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def get(url: str):
    """(status, content_type, body_bytes) for one GET, errors included."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read(),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read()


#: one exposition-format sample line: name{labels} value
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


def assert_prometheus_parses(text: str) -> dict[str, float]:
    """Minimal exposition-format parser; returns bare-name samples."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
            continue
        assert _SAMPLE.match(line), f"unparsable sample line: {line!r}"
        name_part, value = line.rsplit(" ", 1)
        values[name_part] = float(value)
    return values


class TestEndpoints:
    def test_metrics_parses_as_prometheus_text(self):
        registry = obs.MetricsRegistry()
        registry.counter("jobs_done").inc(4, state="ok")
        registry.histogram("latency").observe(0.2)
        with obs.TelemetryServer(registry=registry) as server:
            status, content_type, body = get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        values = assert_prometheus_parses(body.decode("utf-8"))
        assert values['jobs_done{state="ok"}'] == 4
        assert values["latency_count"] == 1

    def test_metrics_503_without_registry(self):
        with obs.TelemetryServer(registry=lambda: None) as server:
            status, _ctype, body = get(server.url + "/metrics")
        assert status == 503
        assert "registry" in json.loads(body)["error"]

    def test_metrics_defaults_to_installed_collector(self):
        collector = obs.install()
        collector.metrics.counter("live_counter").inc(7)
        with obs.TelemetryServer() as server:
            status, _ctype, body = get(server.url + "/metrics")
        assert status == 200
        assert "live_counter 7" in body.decode("utf-8")

    def test_healthz(self):
        with obs.TelemetryServer(registry=lambda: None) as server:
            status, content_type, body = get(server.url + "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_jobs_404_without_provider(self):
        with obs.TelemetryServer(registry=lambda: None) as server:
            status, _ctype, body = get(server.url + "/jobs")
        assert status == 404

    def test_unknown_path_lists_endpoints(self):
        with obs.TelemetryServer(registry=lambda: None) as server:
            status, _ctype, body = get(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["endpoints"] == [
            "/metrics", "/healthz", "/jobs"
        ]

    def test_provider_crash_is_a_500_not_a_dead_server(self):
        def boom() -> dict:
            raise RuntimeError("provider exploded")

        with obs.TelemetryServer(registry=lambda: None, jobs=boom) as server:
            status, _ctype, body = get(server.url + "/jobs")
            assert status == 500
            assert "exploded" in json.loads(body)["error"]
            # and the next probe still answers
            status, _ctype, _body = get(server.url + "/healthz")
            assert status == 200


class TestLiveService:
    def test_jobs_reflects_queued_to_done_transition(self):
        loader = lambda name: build_dataset(name)  # noqa: E731
        collector = obs.install()
        with MiningService(
            loader=loader,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.0),
        ) as service:
            with obs.TelemetryServer(
                registry=collector.metrics, jobs=service.stats,
            ) as server:
                before = json.loads(get(server.url + "/jobs")[2])
                assert before["submitted"] == 0
                assert before["cache"] is None      # no cache_dir given

                job_id = service.submit(
                    "tiny", "llama3", "rag", "zero_shot"
                )
                queued = json.loads(get(server.url + "/jobs")[2])
                assert queued["jobs"]["queued"] == 1
                assert queued["attempts"] == 0

                service.result(job_id)

                after = json.loads(get(server.url + "/jobs")[2])
                assert after == service.stats()
                assert after["submitted"] == 1
                assert after["jobs"]["done"] == 1
                assert after["jobs"]["queued"] == 0
                assert after["attempts"] == 1
                assert after["cache_hits"] == 0

                # the same run's metrics are live on /metrics
                status, _ctype, body = get(server.url + "/metrics")
                assert status == 200
                text = body.decode("utf-8")
                assert_prometheus_parses(text)
                assert "service_jobs_submitted 1" in text
