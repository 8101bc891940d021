"""End-to-end gateway tests: a real multi-process worker fleet behind
the HTTP front door.

The acceptance criteria of the serving subsystem, verified directly:

* a 2-process fleet serves a grid slice over HTTP with **byte-identical**
  results (and identical content-addressed job ids) to in-process
  mining;
* a second gateway process on the same cache directory answers from
  entries written by the first fleet's workers — cross-process cache
  hits, observable on both the gateway side and the worker side;
* saturated admission sheds with ``429`` + ``Retry-After``, and shed
  jobs never reach a worker process;
* draining refuses new work with ``503`` while completing accepted work;
* a killed worker process is respawned and its work recovered.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.gateway import (
    AdmissionPolicy,
    Gateway,
    GatewayClient,
    GatewayRejected,
    GatewayRejectedError,
)
from repro.graph import PropertyGraph
from repro.mining.persistence import run_to_dict
from repro.service import MiningService, RetryPolicy


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_dataset(name: str) -> Dataset:
    graph = PropertyGraph(name)
    for index in range(8):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet {index}",
            "created_at": f"2021-03-{index + 1:02d}T09:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    return Dataset(graph=graph, true_rules=[], dirt=DirtReport())


@pytest.fixture()
def loader():
    cache: dict[str, Dataset] = {}

    def load(name: str) -> Dataset:
        if name != "tiny":
            raise KeyError(f"unknown dataset {name!r}")
        if name not in cache:
            cache[name] = build_dataset(name)
        return cache[name]

    return load


def gateway(loader, tmp_path, **kwargs) -> Gateway:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("loader", loader)
    kwargs.setdefault("drain_timeout", 60.0)
    return Gateway(**kwargs)


def cell_payload(method: str, model: str = "llama3", **knobs) -> dict:
    return {
        "dataset": "tiny", "model": model, "method": method,
        "prompt_mode": "zero_shot", **knobs,
    }


def canonical(run_dict: dict) -> str:
    return json.dumps(run_dict, sort_keys=True)


# ----------------------------------------------------------------------
# byte-identical serving
# ----------------------------------------------------------------------
class TestFleetServing:
    def test_grid_over_http_matches_in_process_mining(
        self, loader, tmp_path
    ):
        collector = obs.install()
        cells = [
            ("llama3", "sliding_window"), ("llama3", "rag"),
            ("mixtral", "sliding_window"), ("mixtral", "rag"),
        ]
        with gateway(loader, tmp_path, workers=2) as gw:
            client = GatewayClient(gw.url, client_id="e2e")
            jobs = [
                client.submit("tiny", model, method, "zero_shot")
                for model, method in cells
            ]
            assert all(job["state"] in ("queued", "running", "done")
                       for job in jobs)
            served = {
                job["job_id"]: client.result(job["job_id"], timeout=120)
                for job in jobs
            }
            stats = client.stats()
        # every job was executed by the fleet, none served from cache
        assert stats["dispatcher"]["completed"] == 4
        assert sum(
            worker["executed"] for worker in stats["dispatcher"]["workers"]
        ) == 4
        assert stats["jobs"]["done"] == 4

        svc = MiningService(
            loader=loader,
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.0),
        )
        with svc:
            for (model, method), job in zip(cells, jobs):
                job_id = svc.submit("tiny", model, method, "zero_shot")
                # HTTP and in-process agree on the content address ...
                assert job_id == job["job_id"]
                run = svc.result(job_id)
                # ... and on every byte of the result
                assert canonical(run_to_dict(run)) == canonical(
                    served[job_id]["run"]
                )
                assert served[job_id]["source"] == "worker"
        # the fleet agreed with the gateway on every content address
        mismatches = collector.metrics.counter(
            "gateway.fingerprint_mismatches"
        )
        assert mismatches.total() == 0


# ----------------------------------------------------------------------
# cross-process cache hits
# ----------------------------------------------------------------------
class TestCrossProcessCache:
    def mine_once(self, loader, tmp_path) -> str:
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            client.result(job["job_id"], timeout=120)
            return str(job["job_id"])

    def test_second_gateway_hits_worker_written_entry(
        self, loader, tmp_path
    ):
        job_id = self.mine_once(loader, tmp_path)
        collector = obs.install()
        # a fresh gateway process (fleet never started) answers from the
        # entry a *worker process* of the first fleet wrote
        second = gateway(loader, tmp_path, workers=1)
        job = second.submit(cell_payload("sliding_window"))
        assert job.job_id == job_id
        assert job.state.value == "done"
        assert job.source == "cache"
        assert job.cache_hit is True
        hits = collector.metrics.counter("gateway.cache.hits")
        assert hits.value(source="gateway") == 1
        run = second.result(job_id, timeout=5)
        assert run.rule_count == job.rules

    def test_worker_side_cross_process_hit(self, loader, tmp_path):
        job_id = self.mine_once(loader, tmp_path)
        collector = obs.install()
        # serve_from_cache=False forces dispatch, so the *worker's*
        # job core finds the sibling process's cache entry
        with gateway(
            loader, tmp_path, workers=1, serve_from_cache=False,
        ) as gw:
            client = GatewayClient(gw.url)
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            assert job["job_id"] == job_id
            final = client.wait(job["job_id"], timeout=120)
        assert final["state"] == "done"
        assert final["source"] == "worker-cache"
        assert final["cache_hit"] is True
        assert final["attempts"] == 0          # nothing was re-mined
        hits = collector.metrics.counter("gateway.cache.hits")
        assert hits.value(source="worker") == 1


# ----------------------------------------------------------------------
# admission control under load
# ----------------------------------------------------------------------
class TestAdmissionE2E:
    def test_rate_limited_clients_shed_with_429(self, loader, tmp_path):
        policy = AdmissionPolicy(
            rate_per_client=0.0001, burst_per_client=1.0,
            retry_after_floor=1.0,
        )
        with gateway(loader, tmp_path, workers=1, policy=policy) as gw:
            outcomes: dict[str, list] = {}
            lock = threading.Lock()

            def run_client(name: str, seed: int) -> None:
                client = GatewayClient(gw.url, client_id=name)
                results = []
                for offset in range(2):
                    try:
                        job = client.submit(
                            "tiny", "llama3", "sliding_window",
                            "zero_shot", base_seed=seed + offset,
                        )
                        results.append(("accepted", job["job_id"]))
                    except GatewayRejectedError as error:
                        results.append(("shed", error))
                with lock:
                    outcomes[name] = results

            threads = [
                threading.Thread(target=run_client, args=(name, seed))
                for name, seed in (("a", 10), ("b", 20), ("c", 30))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            accepted_ids = []
            for name, results in outcomes.items():
                kinds = [kind for kind, _ in results]
                # burst 1 + no refill: exactly one accept per client,
                # submitted in order, so accept precedes shed
                assert kinds == ["accepted", "shed"], name
                accepted_ids.append(results[0][1])
                error = results[1][1]
                assert error.status == 429
                assert error.reason == "rate_limit"
                assert error.retry_after >= 1.0
            client = GatewayClient(gw.url)
            for job_id in accepted_ids:
                assert client.wait(job_id, timeout=120)["state"] == "done"
            stats = client.stats()
        assert stats["admission"]["admitted"] == 3
        assert stats["admission"]["shed"]["rate_limit"] == 3
        # shed requests never reached the fleet: the workers executed
        # exactly the admitted jobs and nothing else
        assert stats["dispatcher"]["dispatched"] == 3
        assert sum(
            worker["executed"] for worker in stats["dispatcher"]["workers"]
        ) == 3

    def test_queue_saturation_sheds_before_dispatch(
        self, loader, tmp_path
    ):
        policy = AdmissionPolicy(
            rate_per_client=1000.0, burst_per_client=1000.0,
            max_queue_depth=2,
        )
        # fleet deliberately not started: the backlog only fills
        gw = gateway(
            loader, tmp_path, workers=1, policy=policy, queue_depth=2,
        )
        for seed in (1, 2):
            job = gw.submit(cell_payload("sliding_window", base_seed=seed))
            assert job.state.value == "queued"
        with pytest.raises(GatewayRejected) as excinfo:
            gw.submit(cell_payload("sliding_window", base_seed=3))
        assert excinfo.value.status == 429
        assert excinfo.value.decision.reason == "queue_full"
        assert excinfo.value.decision.retry_after >= 1.0
        stats = gw.stats()
        assert stats["admission"]["shed"]["queue_full"] == 1
        assert stats["dispatcher"]["backlog"] == 2
        assert stats["dispatcher"]["dispatched"] == 0
        # the shed job was forgotten entirely
        assert stats["jobs"]["queued"] == 2

    def test_inflight_limit_sheds(self, loader, tmp_path):
        policy = AdmissionPolicy(
            rate_per_client=1000.0, burst_per_client=1000.0,
            max_inflight=1, max_queue_depth=100,
        )
        gw = gateway(
            loader, tmp_path, workers=1, policy=policy, queue_depth=100,
        )
        gw.submit(cell_payload("sliding_window", base_seed=1))
        with pytest.raises(GatewayRejected) as excinfo:
            gw.submit(cell_payload("sliding_window", base_seed=2))
        assert excinfo.value.decision.reason == "inflight_limit"
        assert excinfo.value.status == 429


# ----------------------------------------------------------------------
# drain + HTTP error mapping
# ----------------------------------------------------------------------
class TestDrainAndErrors:
    def test_drain_completes_accepted_then_rejects_503(
        self, loader, tmp_path
    ):
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            assert gw.drain(timeout=120) is True
            # accepted work finished ...
            assert client.status(job["job_id"])["state"] == "done"
            # ... results stay pollable after the drain ...
            assert client.result(job["job_id"])["source"] in (
                "worker", "cache",
            )
            # ... and new submissions bounce with 503 + Retry-After
            with pytest.raises(GatewayRejectedError) as excinfo:
                client.submit("tiny", "mixtral", "rag", "zero_shot")
            assert excinfo.value.status == 503
            assert excinfo.value.reason == "draining"
            assert excinfo.value.retry_after >= 1.0
            assert client.healthz()["status"] == "draining"
            assert client.stats()["admission"]["shed"]["draining"] == 1

    def test_http_error_mapping(self, loader, tmp_path):
        obs.install()                          # /metrics needs a registry
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            from repro.gateway import GatewayClientError
            with pytest.raises(GatewayClientError) as excinfo:
                client.submit("tiny", "gpt99", "rag", "zero_shot")
            assert excinfo.value.status == 400
            with pytest.raises(GatewayClientError) as excinfo:
                client.submit("no_such_dataset", "llama3", "rag",
                              "zero_shot")
            assert excinfo.value.status == 404
            with pytest.raises(GatewayClientError) as excinfo:
                client.status("deadbeef")
            assert excinfo.value.status == 404
            assert "gateway_admission" in client.metrics_text()


# ----------------------------------------------------------------------
# worker crash recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_jobs_complete(
        self, loader, tmp_path
    ):
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            # warm the fleet so the worker is past its imports
            first = client.submit("tiny", "llama3", "sliding_window",
                                  "zero_shot")
            client.result(first["job_id"], timeout=120)
            pid = client.stats()["dispatcher"]["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            # wait for the dispatcher to notice and respawn
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                worker = client.stats()["dispatcher"]["workers"][0]
                if worker["alive"] and worker["pid"] != pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker was not respawned after SIGKILL")
            job = client.submit("tiny", "mixtral", "rag", "zero_shot")
            final = client.wait(job["job_id"], timeout=120)
            assert final["state"] == "done"
            stats = client.stats()
        assert stats["dispatcher"]["worker_crashes"] >= 1
