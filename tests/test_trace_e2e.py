"""End-to-end trace acceptance: jobs through MiningService with obs
installed must yield one connected span tree per job (a job mines on
the caller's thread, so its spans nest under the caller's open span),
and profile-style cost attribution must agree with the MiningRun token
totals."""

from __future__ import annotations

import pytest

from repro import obs
from repro.service import MiningService, RetryPolicy
from tests.test_service_e2e import build_dataset

CELLS = [
    ("tiny-a", "llama3", "rag", "zero_shot"),
    ("tiny-b", "llama3", "sliding_window", "zero_shot"),
    ("tiny-c", "mixtral", "rag", "few_shot"),
]


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


@pytest.fixture()
def recorded(tmp_path):
    """Run CELLS through the service, one client span per submit, and
    hand back (parsed trace, {job span name -> MiningRun})."""
    collector = obs.install()
    runs = {}
    with MiningService(
        loader=build_dataset,
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.0),
    ) as service:
        for index, cell in enumerate(CELLS):
            with obs.span(f"client-{index}"):
                job_id = service.submit(*cell)
                runs[f"client-{index}"] = service.result(job_id)
    path = tmp_path / "trace.jsonl"
    obs.write_jsonl(collector, str(path))
    obs.uninstall()
    return obs.load_trace(str(path)), runs


class TestSingleTreePerJob:
    def test_one_connected_tree_per_client_span(self, recorded):
        trace, runs = recorded
        # exactly one root per client span: each job's spans nest under
        # the client span open on the thread that called result()
        assert sorted(root.name for root in trace.roots) == sorted(runs)
        for root in trace.roots:
            names = {span.name for span in root.walk()}
            assert "service.job" in names
            assert "service.attempt" in names
            assert "llm.call" in names

    def test_job_spans_run_on_the_client_thread(self, recorded):
        trace, _runs = recorded
        for root in trace.roots:
            job = next(
                span for span in root.walk() if span.name == "service.job"
            )
            assert job.thread == root.thread


class TestTokenConservation:
    def test_rule_attribution_matches_mining_run_totals(self, recorded):
        trace, runs = recorded
        expected = sum(
            run.prompt_tokens + run.completion_tokens
            for run in runs.values()
        )
        rows = obs.attribute_costs(trace, by="rule")
        assert sum(row.tokens for row in rows) == expected

    def test_per_job_attribution_matches_each_run(self, recorded):
        trace, runs = recorded
        for root in trace.roots:
            run = runs[root.name]
            rows = obs.attribute_costs(root, by="stage")
            assert sum(row.tokens for row in rows) == (
                run.prompt_tokens + run.completion_tokens
            )
            assert sum(row.calls for row in rows) == run.llm_calls

    def test_trace_counters_agree_with_runs(self, recorded):
        trace, runs = recorded
        expected = sum(
            run.prompt_tokens + run.completion_tokens
            for run in runs.values()
        )
        assert (
            trace.counter_value("llm.prompt_tokens")
            + trace.counter_value("llm.completion_tokens")
        ) == expected
