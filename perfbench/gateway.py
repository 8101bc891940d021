"""`gateway`: grid cells served by a real one-worker ``Gateway`` fleet.

The gateway runs in this process (HTTP server threads) with one worker
subprocess; one ``GatewayClient`` drives it over loopback, one request in
flight.  Set-up ends when ``/stats`` reports the worker ready.

* cold jobs: each cell submitted once on an empty cache directory —
  the first job of each dataset also pays dataset generation, snapshot
  write, worker load and CSR adoption;
* cached jobs: after each cold job, cells already served are resubmitted
  (``MIN_CACHED`` in all) and answered from the finished job
  table and the result cache without touching the worker.  Spreading
  them over the whole phase keeps their median from riding on one
  moment of machine load.

Every served run must be byte-identical (as canonical JSON) to the same
cell mined in-process; that reference is computed after the timed phase.
"""

from __future__ import annotations

import contextlib
import shutil
import time

from common import WORK_DIR, Outcome, digest
from tracer import span_or_nothing, union_length

#: status polling interval: far below the cheapest job (~40 ms)
POLL_S = 0.005
#: cached jobs per pass: 20 after each of the 16 cold jobs
MIN_CACHED = 320
#: set-ups per pass; the median is reported, the last fleet is used
SETUP_REPEATS = 3


def cells(size: str) -> list[tuple[str, str, str, str]]:
    from grid import paper_cells

    if size == "tiny":
        return [
            ("cybersecurity", "llama3", "rag", "zero_shot"),
            ("cybersecurity", "mixtral", "rag", "few_shot"),
        ]
    return [cell for cell in paper_cells() if cell[0] != "twitter"]


def schedule(served_cells: list, min_cached: int) -> list[tuple[str, tuple]]:
    """Each cell once cold, each followed by resubmits of cells already
    served, so cached jobs are spread over the whole timed phase."""
    per_cold = -(-min_cached // len(served_cells))
    ops = []
    for index, cell in enumerate(served_cells):
        ops.append(("cold", cell))
        ops += [
            ("cached", served_cells[(index * per_cold + k) % (index + 1)])
            for k in range(per_cold)
        ]
    return ops


def _start(index: int):
    """A started one-worker gateway on a fresh cache dir, worker ready."""
    from repro.cypher import clear_plan_caches
    from repro.datasets.registry import clear_cache
    from repro.gateway import Gateway, GatewayClient
    from repro.gateway.admission import AdmissionPolicy

    clear_cache()
    clear_plan_caches()
    cache_dir = WORK_DIR / f"gateway-cache-{index}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    # admission limits are not under test: one closed-loop client never
    # approaches them, but the per-client token bucket would shed the
    # cached rounds' burst
    policy = AdmissionPolicy(rate_per_client=1e6, burst_per_client=1e6)
    gateway = Gateway(cache_dir=cache_dir, workers=1, policy=policy).start()
    client = GatewayClient(gateway.url, client_id="perfbench")
    deadline = time.monotonic() + 60
    while not all(w["ready"] for w in client.stats()["dispatcher"]["workers"]):
        if time.monotonic() > deadline:
            _stop(gateway, cache_dir)
            raise RuntimeError("gateway worker never became ready")
        time.sleep(POLL_S)
    return gateway, client, cache_dir


def _stop(gateway, cache_dir) -> None:
    gateway.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)


def _serve(client, cell, seed: int, sleep) -> tuple[float, dict | None, str | None]:
    """(latency, served run or None on failure, job id)."""
    from repro.gateway.client import GatewayError

    start = time.perf_counter()
    job_id = payload = None
    try:
        job_id = client.submit(*cell, base_seed=seed)["job_id"]
        payload = client.result(job_id, timeout=120, poll_interval=POLL_S, sleep=sleep)
    except (GatewayError, TimeoutError):
        pass
    return time.perf_counter() - start, payload and payload["run"], job_id


def _phase_gap(tracer, op_index: int, trace: dict | None) -> float:
    """Op latency not covered by its client HTTP calls or, server side,
    by the job's queue wait and worker attempt."""
    op = tracer.spans[op_index]
    covered = [
        (s.start, s.end) for s in tracer.spans[op_index + 1:]
        if s.parent == op_index and s.name != "gateway.poll_wait"
    ]
    stack = [trace["root"]] if trace and trace.get("root") else []
    while stack:
        node = stack.pop()
        stack.extend(node["children"])
        if node["name"] in ("gateway.queue", "gateway.attempt") and node["end"]:
            covered.append((max(node["start"], op.start), min(node["end"], op.end)))
    covered = [(a, b) for a, b in covered if b > a]
    return op.duration - union_length(covered)


def _worker_seconds(trace: dict | None) -> float:
    stack = [trace["root"]] if trace and trace.get("root") else []
    total = 0.0
    while stack:
        node = stack.pop()
        stack.extend(node["children"])
        if node["name"] == "worker.job":
            total += node["wall_seconds"] or 0.0
    return total


def run(seed: int, seconds: float, size: str = "full", tracer=None) -> Outcome:
    from repro.mining.persistence import run_to_dict
    from repro.mining.runner import ExperimentRunner

    served_cells = cells(size)
    min_cached = 4 if size == "tiny" else MIN_CACHED
    outcome = Outcome()
    served: list[tuple[tuple, str | None]] = []   # (cell, served run digest)
    unattributed = worker_s = 0.0
    sleep = time.sleep
    if tracer is not None:
        # poll sleeps get their own span so the result fetch's self time
        # is the fetch alone; waiting is covered by the server phases
        sleep = tracer.wrap(time.sleep, "gateway.poll_wait")
    # the gateway logs one JSON line per HTTP request to stderr; a file
    # in the checkout keeps that cost the same wherever stderr points
    WORK_DIR.mkdir(exist_ok=True)
    with open(WORK_DIR / "gateway-access.log", "w") as access_log, \
            contextlib.redirect_stderr(access_log):
        while not outcome.pass_s or sum(outcome.pass_s) < seconds:
            # set-up is repeated (median reported); the last fleet is kept
            for attempt in range(SETUP_REPEATS):
                start = time.perf_counter()
                gateway, client, cache_dir = _start(attempt)
                outcome.setup_s.append(time.perf_counter() - start)
                if attempt < SETUP_REPEATS - 1:
                    _stop(gateway, cache_dir)
            pass_runs = []
            try:
                pass_start = time.perf_counter()
                for kind, cell in schedule(served_cells, min_cached):
                    with span_or_nothing(tracer, "gateway.op") as op_index:
                        elapsed, served_run, job_id = _serve(client, cell, seed, sleep)
                    if tracer is not None and job_id is not None:
                        trace = client.trace(job_id)
                        unattributed += _phase_gap(tracer, op_index, trace)
                        if kind == "cold":
                            worker_s += _worker_seconds(trace)
                    pass_runs.append((cell, served_run))
                    outcome.record(kind, elapsed, True)
                outcome.pass_s.append(time.perf_counter() - pass_start)
            finally:
                _stop(gateway, cache_dir)
            # digests are taken once the clock has stopped
            served += [
                (cell, None if run is None else digest(run)) for cell, run in pass_runs
            ]

    def verify(outcome: Outcome) -> None:
        # the in-process reference, untimed and untraced
        runner = ExperimentRunner(base_seed=seed)
        expected = {
            cell: digest(run_to_dict(runner.run(*cell)))
            for cell in served_cells
        }
        wrong = [c for c, d in served if d != expected[c]]
        outcome.failed = len(wrong)
        outcome.detail["mismatched"] = sorted({"/".join(c) for c in wrong})

    outcome.verify = verify
    if tracer is not None:
        outcome.layer_extra.update({
            "gateway.unattributed_s": unattributed,
            "gateway.worker_job_s": worker_s,
        })
    return outcome
