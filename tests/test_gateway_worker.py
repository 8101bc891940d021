"""In-process tests of the gateway worker's protocol loop.

The worker mines on its own main thread through the job core
(``repro.service.run_job``); these tests drive it over ``StringIO``
pipes: done events, shared-cache hits, per-dataset snapshot reloads,
no helper threads, and the SIGTERM/SIGINT drain contract (finish the
in-flight job, or abandon it at the drain deadline).
"""

from __future__ import annotations

import io
import json
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.datasets.snapshot import load_dataset, save_dataset
from repro.gateway import protocol
from repro.gateway.worker import GatewayWorker
from repro.mining.ragpipe import RAGPipeline
from repro.service import cache_key, graph_fingerprint
from tests.test_service_e2e import build_dataset

_HANDLED_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGALRM)


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


@pytest.fixture()
def restore_signals():
    """run() installs drain handlers; put pytest's back whatever happens."""
    saved = {signum: signal.getsignal(signum) for signum in _HANDLED_SIGNALS}
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for signum, handler in saved.items():
            signal.signal(signum, handler)


def snapshot(tmp_path, name: str, extra_users: int = 0) -> str:
    dataset = build_dataset(name)
    for index in range(extra_users):
        dataset.graph.add_node(f"x{index}", "User", {
            "id": 1000 + index, "screen_name": f"@extra{index}",
        })
    suffix = f"-{extra_users}" if extra_users else ""
    return str(save_dataset(dataset, tmp_path / f"{name}{suffix}.json"))


def fingerprint(path: str) -> str:
    return graph_fingerprint(load_dataset(path).graph)


def job(dataset: str, path: str, method: str = "rag", **knobs) -> dict:
    spec = protocol.parse_submit({
        "dataset": dataset, "model": "llama3", "method": method,
        "prompt_mode": "zero_shot", **knobs,
    })
    return protocol.job_message(cache_key(spec, fingerprint(path)), spec, path)


def worker(tmp_path, stdin: str = "", **kwargs) -> GatewayWorker:
    return GatewayWorker(
        cache_dir=tmp_path / "cache",
        stdin=io.StringIO(stdin), stdout=io.StringIO(), **kwargs,
    )


def events(w: GatewayWorker) -> list[dict]:
    return [json.loads(line) for line in w._stdout.getvalue().splitlines()]


class TestJobs:
    def test_job_yields_ok_done(self, tmp_path):
        path = snapshot(tmp_path, "tiny")
        message = job("tiny", path)
        w = worker(tmp_path)
        w.handle_job(message)
        (done,) = events(w)
        assert done["event"] == "done" and done["ok"], done
        assert done["job_id"] == message["job_id"]
        assert done["computed_id"] == message["job_id"]
        assert not done["cache_hit"]
        assert done["attempts"] == 1 and done["retries"] == 0
        assert done["rules"] > 0
        assert w.jobs_handled == 1

    def test_resubmit_is_cache_hit(self, tmp_path):
        path = snapshot(tmp_path, "tiny")
        message = job("tiny", path)
        w = worker(tmp_path)
        w.handle_job(message)
        w.handle_job(message)
        # a fresh worker process on the same cache directory, too
        fresh = worker(tmp_path)
        fresh.handle_job(message)
        first, second = events(w)
        (third,) = events(fresh)
        for replay in (second, third):
            assert replay["ok"] and replay["cache_hit"]
            assert replay["attempts"] == 0
            assert replay["rules"] == first["rules"]
            assert replay["computed_id"] == message["job_id"]

    def test_failed_snapshot_load_is_a_failed_done(self, tmp_path):
        path = snapshot(tmp_path, "tiny")
        message = dict(job("tiny", path), snapshot=str(tmp_path / "gone.json"))
        w = worker(tmp_path)
        w.handle_job(message)
        (done,) = events(w)
        assert not done["ok"]
        assert done["error"].startswith("SnapshotError")

    def test_republish_reloads_only_that_dataset(self, tmp_path):
        path_a = snapshot(tmp_path, "alpha")
        path_b = snapshot(tmp_path, "beta")
        w = worker(tmp_path)
        w.handle_job(job("alpha", path_a))
        w.handle_job(job("beta", path_b))
        beta = w._pipelines.pipeline("beta", "rag")
        alpha = w._pipelines.pipeline("alpha", "rag")

        republished = snapshot(tmp_path, "alpha", extra_users=2)
        message = job("alpha", republished)
        assert message["job_id"] != job("alpha", path_a)["job_id"]
        w.handle_job(message)
        done = events(w)[-1]
        assert done["ok"] and not done["cache_hit"]
        spec = protocol.spec_from_payload(message["spec"])
        assert done["computed_id"] == cache_key(spec, fingerprint(republished))
        # beta's warmed index survives; alpha's was rebuilt for the new graph
        assert w._pipelines.pipeline("beta", "rag").retriever is beta.retriever
        rebuilt = w._pipelines.pipeline("alpha", "rag")
        assert rebuilt.retriever is not alpha.retriever
        assert rebuilt.context.graph.node_count() == (
            alpha.context.graph.node_count() + 2
        )

    def test_handle_job_starts_no_thread(self, tmp_path):
        path = snapshot(tmp_path, "tiny")
        w = worker(tmp_path)
        before = threading.active_count()
        w.handle_job(job("tiny", path, method="sliding_window"))
        w.handle_job(job("tiny", path, method="rag"))
        assert threading.active_count() == before
        assert all(done["ok"] for done in events(w))


class TestSignalDrain:
    def test_sigterm_mid_job_finishes_it_then_exits(
        self, tmp_path, monkeypatch, restore_signals
    ):
        original = RAGPipeline.mine

        def mine(self, model, prompt_mode):
            os.kill(os.getpid(), signal.SIGTERM)
            return original(self, model, prompt_mode)

        monkeypatch.setattr(RAGPipeline, "mine", mine)
        path = snapshot(tmp_path, "tiny")
        lines = "".join(
            protocol.encode_line(job("tiny", path, base_seed=seed))
            for seed in (1, 2)
        )
        w = worker(tmp_path, stdin=lines)
        before = signal.getsignal(signal.SIGTERM)
        assert w.run() == 0
        ready, done, bye = events(w)
        assert ready["event"] == "ready"
        assert done["event"] == "done" and done["ok"], done
        assert (bye["event"], bye["jobs"]) == ("bye", 1)
        # the handlers in force before run() are back
        assert signal.getsignal(signal.SIGTERM) == before

    def test_drain_deadline_abandons_the_job(
        self, tmp_path, monkeypatch, restore_signals
    ):
        def mine(self, model, prompt_mode):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5.0)
            raise AssertionError("the drain deadline should have fired")

        monkeypatch.setattr(RAGPipeline, "mine", mine)
        path = snapshot(tmp_path, "tiny")
        w = worker(
            tmp_path, stdin=protocol.encode_line(job("tiny", path)),
            drain_timeout=0.2,
        )
        started = time.monotonic()
        assert w.run() == 0
        assert time.monotonic() - started < 2.0
        ready, bye = events(w)
        assert ready["event"] == "ready"
        assert (bye["event"], bye["jobs"]) == ("bye", 0)

