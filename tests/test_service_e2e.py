"""End-to-end tests for MiningService: dedup (also under concurrent
submits), disk-cache reuse across a process-simulating reload,
config-hash invalidation, transient-failure retry, cancellation, and
the execution model — every job mines on a caller's thread."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.graph import PropertyGraph
from repro.llm.faults import TransientFaultInjector
from repro.service import (
    JobFailedError,
    JobState,
    MiningService,
    ResultCache,
    RetryPolicy,
    ServiceDraining,
    UnknownJobError,
)

#: retry instantly — backoff schedules are unit-tested separately
FAST_RETRY = RetryPolicy(max_retries=3, base_delay=0.0)


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
        if name not in cache:
            cache[name] = build_dataset(name)
        return cache[name]

    return load


def service(loader, **kwargs) -> MiningService:
    kwargs.setdefault("retry_policy", FAST_RETRY)
    kwargs.setdefault("sleep", lambda seconds: None)
    return MiningService(loader=loader, **kwargs)


class GateMiddleware:
    """Blocks every LLM completion until released — pins the thread
    that is mining so a second caller can be observed meanwhile."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, llm):
        outer = self

        class Gated:
            def complete(self, prompt):
                outer.entered.set()
                assert outer.release.wait(timeout=30)
                return llm.complete(prompt)

            def __getattr__(self, name):
                return getattr(llm, name)

        return Gated()


# ----------------------------------------------------------------------
# dedup + caching
# ----------------------------------------------------------------------
class TestSubmission:
    def test_duplicate_submit_is_one_job(self, loader, tmp_path):
        with service(loader, cache_dir=tmp_path) as svc:
            first = svc.submit("tiny", "llama3", "rag", "zero_shot")
            second = svc.submit("tiny", "llama3", "rag", "zero_shot")
            assert first == second
            run = svc.result(first)
            assert run.rule_count >= 0
        stats = svc.stats()
        assert stats["submitted"] == 1
        assert stats["attempts"] == 1             # exactly one mining run

    def test_unknown_method_and_prompt_rejected(self, loader):
        svc = service(loader)
        with pytest.raises(ValueError):
            svc.submit("tiny", "llama3", "nope", "zero_shot")
        with pytest.raises(ValueError):
            svc.submit("tiny", "llama3", "rag", "nope")
        svc.shutdown()

    def test_unknown_model_and_bad_knob_rejected_at_submit(self, loader):
        svc = service(loader)
        with pytest.raises(ValueError, match="gpt-9"):
            svc.submit("tiny", "gpt-9", "rag", "zero_shot")
        with pytest.raises(ValueError, match="rag_top_k"):
            svc.submit("tiny", "llama3", "rag", "zero_shot", rag_top_k=0)
        assert svc.stats()["submitted"] == 0
        svc.shutdown()

    def test_unknown_job_id(self, loader):
        svc = service(loader)
        with pytest.raises(UnknownJobError):
            svc.status("deadbeef")
        svc.shutdown()


class TestDiskCache:
    def test_second_service_answers_from_cache(self, loader, tmp_path):
        with service(loader, cache_dir=tmp_path) as first:
            job_id = first.submit("tiny", "llama3", "rag", "zero_shot")
            original = first.result(job_id)
        assert first.stats()["cache"]["stores"] == 1

        collector = obs.install()
        with service(loader, cache_dir=tmp_path) as second:
            again = second.submit("tiny", "llama3", "rag", "zero_shot")
            assert again == job_id
            status = second.status(again)
            assert status["cache_hit"] is True
            assert status["state"] == "done"
            assert status["attempts"] == 0        # nothing re-mined
            rerun = second.result(again)
        assert rerun.key() == original.key()
        assert rerun.rule_count == original.rule_count
        hits = collector.metrics.counter("service.cache.hits")
        assert hits.total() == 1
        # no mining span was opened on the cache-served pass
        names = {item.name for item in collector.iter_spans()}
        assert "mine.rag" not in names

    def test_config_change_re_mines(self, loader, tmp_path):
        with service(loader, cache_dir=tmp_path) as first:
            job_id = first.submit("tiny", "llama3", "rag", "zero_shot")
            first.result(job_id)
        with service(loader, cache_dir=tmp_path) as second:
            tweaked = second.submit(
                "tiny", "llama3", "rag", "zero_shot", rag_top_k=4,
            )
            assert tweaked != job_id
            second.result(tweaked)
            assert second.status(tweaked)["cache_hit"] is False
            assert second.status(tweaked)["attempts"] == 1


# ----------------------------------------------------------------------
# retry/backoff against injected transient failures
# ----------------------------------------------------------------------
class TestTransientFailures:
    def test_transient_failures_retried_until_done(self, loader):
        injector = TransientFaultInjector(failures=2)
        sleeps: list[float] = []
        collector = obs.install()
        svc = MiningService(
            loader=loader, llm_middleware=injector,
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.25),
            sleep=sleeps.append,
        )
        with svc:
            job_id = svc.submit("tiny", "mixtral", "rag", "zero_shot")
            run = svc.result(job_id)
        status = svc.status(job_id)
        assert status["state"] == "done"
        assert status["attempts"] == 3            # 2 failures + 1 success
        assert status["retries"] == 2
        assert injector.injected == 2
        assert sleeps == [0.25, 0.5]              # exponential backoff
        assert run.rule_count >= 0
        retries = collector.metrics.counter("service.retries")
        assert retries.total() == 2

    def test_exhausted_retries_fail_the_job(self, loader):
        injector = TransientFaultInjector(failures=100)
        svc = service(
            loader, llm_middleware=injector,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0),
        )
        with svc:
            job_id = svc.submit("tiny", "llama3", "rag", "zero_shot")
            with pytest.raises(JobFailedError):
                svc.result(job_id)
        status = svc.status(job_id)
        assert status["state"] == "failed"
        assert "RetriesExhausted" in status["error"]
        assert svc.stats()["jobs"]["failed"] == 1


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
class TestCancelAndBackpressure:
    def test_cancel_queued_job(self, loader):
        with service(loader) as svc:
            queued = svc.submit("tiny", "llama3", "rag", "zero_shot")
            assert svc.cancel(queued) is True
            with pytest.raises(JobFailedError):
                svc.result(queued)              # a cancelled job never mines
            done = svc.submit("tiny", "mixtral", "rag", "zero_shot")
            svc.result(done)
            assert svc.cancel(done) is False    # finished jobs stay finished
        assert svc.status(queued)["state"] == JobState.CANCELLED.value
        assert svc.status(queued)["attempts"] == 0
        assert svc.stats()["jobs"]["cancelled"] == 1
        assert svc.stats()["jobs"]["done"] == 1


# ----------------------------------------------------------------------
# execution model: jobs mine on the caller's thread, once
# ----------------------------------------------------------------------
class CountingBarrierCache(ResultCache):
    """A cache whose lookups wait for a second lookup (up to a timeout),
    so two concurrent submits of one cell overlap inside ``get`` if both
    reach it."""

    def __init__(self, root, barrier: threading.Barrier) -> None:
        super().__init__(root)
        self.barrier = barrier
        self.lookups = 0

    def get(self, key):
        self.lookups += 1
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            pass                               # no second lookup came
        return super().get(key)


class TestExecutionModel:
    def test_service_starts_no_thread(self, loader, tmp_path):
        before = threading.active_count()
        svc = service(loader, cache_dir=tmp_path)
        job_id = svc.submit("tiny", "llama3", "rag", "zero_shot")
        assert threading.active_count() == before
        svc.result(job_id)
        assert threading.active_count() == before
        svc.submit("tiny", "mixtral", "rag", "zero_shot")
        assert svc.shutdown(wait=True) is True
        assert threading.active_count() == before
        assert svc.stats()["jobs"]["done"] == 2

    def test_concurrent_submits_of_one_cell_mine_once(
        self, loader, tmp_path
    ):
        svc = service(loader, cache_dir=tmp_path)
        cache = CountingBarrierCache(
            tmp_path, threading.Barrier(2, timeout=1.0)
        )
        svc.cache = cache
        ids: list[str] = []
        threads = [
            threading.Thread(target=lambda: ids.append(
                svc.submit("tiny", "llama3", "rag", "zero_shot")
            ))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(ids) == 2 and ids[0] == ids[1]
        svc.result(ids[0])
        assert svc.shutdown(wait=True) is True
        assert cache.stats.stores == 1          # one mining run stored
        assert cache.lookups == 1               # only the inserting submit
        stats = svc.stats()
        assert stats["submitted"] == 1
        assert stats["attempts"] == 1

    def test_two_result_callers_share_one_mining_run(self, loader):
        gate = GateMiddleware()
        collector = obs.install()
        svc = service(loader, llm_middleware=gate)
        job_id = svc.submit("tiny", "llama3", "rag", "zero_shot")
        runs: list[object] = []
        miner = threading.Thread(target=lambda: runs.append(svc.result(job_id)))
        miner.start()
        assert gate.entered.wait(timeout=30)    # miner holds the job
        assert svc.status(job_id)["state"] == "running"
        waiter = threading.Thread(target=lambda: runs.append(svc.result(job_id)))
        waiter.start()
        waiter.join(timeout=0.2)
        assert waiter.is_alive()                # blocked on the running job
        gate.release.set()
        miner.join(timeout=60)
        waiter.join(timeout=60)
        assert len(runs) == 2 and runs[0] is runs[1]
        assert svc.stats()["attempts"] == 1
        attempts = [
            item for item in collector.iter_spans()
            if item.name == "service.attempt"
        ]
        assert len(attempts) == 1

    def test_waited_shutdown_stops_at_the_deadline(self, loader):
        now = [0.0]

        def slow(llm):
            class Slow:
                def complete(self, prompt):
                    now[0] += 10.0              # each call costs 10 s
                    return llm.complete(prompt)

                def __getattr__(self, name):
                    return getattr(llm, name)

            return Slow()

        svc = service(loader, llm_middleware=slow, clock=lambda: now[0])
        first = svc.submit("tiny", "llama3", "rag", "zero_shot")
        second = svc.submit("tiny", "mixtral", "rag", "zero_shot")
        # the first job starts inside the 5 s budget; the second would
        # start past it, so it stays QUEUED and shutdown reports that
        assert svc.shutdown(wait=True, timeout=5.0) is False
        assert svc.status(first)["state"] == "done"
        assert svc.status(second)["state"] == "queued"
        with pytest.raises(ServiceDraining):
            svc.submit("tiny", "llama3", "rag", "few_shot")


# ----------------------------------------------------------------------
# the acceptance scenario: a grid slice through the service, twice
# ----------------------------------------------------------------------
class TestGridSliceTwice:
    def test_second_pass_is_all_cache_hits(self, loader, tmp_path):
        grid = dict(
            datasets=["tiny"], methods=["rag", "sliding_window"],
            prompt_modes=["zero_shot"],
        )
        with service(loader, cache_dir=tmp_path) as first:
            ids = first.submit_grid(**grid)
            assert len(ids) == 4                  # 2 methods × 2 models
            originals = {
                job_id: first.result(job_id) for job_id in ids
            }
        assert first.stats()["cache"]["stores"] == 4

        collector = obs.install()
        with service(loader, cache_dir=tmp_path) as second:
            replay = second.submit_grid(**grid)
            assert replay == ids
            for job_id in replay:
                status = second.status(job_id)
                assert status["cache_hit"] is True
                assert status["attempts"] == 0
                rerun = second.result(job_id)
                assert rerun.key() == originals[job_id].key()
                assert rerun.rule_count == originals[job_id].rule_count
        stats = second.stats()
        assert stats["cache_hits"] == 4
        assert stats["attempts"] == 0             # nothing re-mined
        hits = collector.metrics.counter("service.cache.hits")
        assert hits.total() == 4
        names = {item.name for item in collector.iter_spans()}
        assert "mine.rag" not in names
        assert "mine.sliding_window" not in names
