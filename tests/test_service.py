"""The co-design job service: queue, HTTP API, runtime, CLI verbs, crash recovery."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import ServiceConfig
from repro.core.errors import ConfigurationError, ServiceError
from repro.service import (
    CoDesignService,
    JobQueue,
    ServiceClient,
    deterministic_result_digest,
    normalize_job_spec,
)
from repro.service.http import ApiError, Router

#: Small enough to finish in seconds, big enough to stream frontier events.
TINY_RUN = {
    "dataset": "phishing",
    "objective": "accuracy",
    "scale": 0.05,
    "population_size": 4,
    "max_evaluations": 6,
    "training_epochs": 1,
}


def tiny_service(tmp_path, **config_kwargs) -> CoDesignService:
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        data_dir=str(tmp_path / "service"),
        eval_workers=2,
        **config_kwargs,
    )
    return CoDesignService(config)


@pytest.fixture
def service(tmp_path):
    svc = tiny_service(tmp_path)
    host, port = svc.start()
    yield svc, ServiceClient(f"{host}:{port}")
    svc.stop()


# ---------------------------------------------------------------- job queue
class TestJobQueue:
    def test_submit_get_list_counts(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job = queue.submit({"name": "exp-a"}, name="first")
        assert job.state == "queued" and job.name == "first"
        assert queue.get(job.job_id).spec == {"name": "exp-a"}
        queue.submit({"name": "exp-b"})
        assert [j.name for j in queue.list()] == ["exp-b", "first"]  # newest first
        counts = queue.counts()
        assert counts["queued"] == 2 and counts["total"] == 2
        assert queue.list(state="done") == []
        with pytest.raises(ServiceError, match="unknown job state"):
            queue.list(state="bogus")
        with pytest.raises(ServiceError, match="unknown job"):
            queue.get("nope")

    def test_claim_is_fifo_and_exclusive(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        first = queue.submit({}, name="one")
        queue.submit({}, name="two")
        claimed = queue.claim_next()
        assert claimed.job_id == first.job_id
        assert claimed.state == "running" and claimed.attempts == 1
        assert queue.claim_next().name == "two"
        assert queue.claim_next() is None

    def test_lifecycle_transitions(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job = queue.submit({})
        queue.claim_next()
        done = queue.mark_done(job.job_id, {"answer": 42})
        assert done.state == "done" and done.result == {"answer": 42}
        assert done.terminal and done.finished_at is not None

        job2 = queue.submit({})
        queue.claim_next()
        failed = queue.mark_failed(job2.job_id, "boom")
        assert failed.state == "failed" and failed.error == "boom"

    def test_cancel_semantics(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        queued = queue.submit({})
        # Queued jobs cancel immediately.
        assert queue.request_cancel(queued.job_id).state == "cancelled"
        # Running jobs only get the flag; the worker stops them later.
        running = queue.submit({})
        queue.claim_next()
        flagged = queue.request_cancel(running.job_id)
        assert flagged.state == "running" and flagged.cancel_requested
        assert queue.cancel_requested(running.job_id)
        assert queue.mark_cancelled(running.job_id).state == "cancelled"
        # Terminal jobs are left untouched.
        assert queue.request_cancel(running.job_id).state == "cancelled"

    def test_recover_interrupted_requeues_running(self, tmp_path):
        path = tmp_path / "q.sqlite"
        queue = JobQueue(path)
        job = queue.submit({})
        queue.claim_next()
        queue.close()
        # A new server process opens the same file and finds the orphan.
        reopened = JobQueue(path)
        recovered = reopened.recover_interrupted()
        assert [j.job_id for j in recovered] == [job.job_id]
        assert reopened.get(job.job_id).state == "queued"
        assert reopened.get(job.job_id).attempts == 1  # claim counted, not reset

    def test_progress_and_stage_upsert(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job = queue.submit({})
        queue.record_progress(job.job_id, total_cells=3)
        queue.record_progress(job.job_id, run_id="cell-a", stage={"status": "completed"})
        queue.record_progress(job.job_id, run_id="cell-a", stage={"status": "completed"})
        queue.record_progress(job.job_id, run_id="cell-b", stage={"status": "failed"})
        record = queue.get(job.job_id)
        assert record.total_cells == 3 and record.completed_cells == 2
        assert record.stages["cell-b"] == {"status": "failed"}

    def test_frontier_events_append_since_drop(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job = queue.submit({})
        assert queue.append_frontier_event(job.job_id, "cell-a", {"n": 1}) == 1
        assert queue.append_frontier_event(job.job_id, "cell-a", {"n": 2}) == 2
        assert queue.append_frontier_event(job.job_id, "cell-b", {"n": 3}) == 3
        assert [e.payload["n"] for e in queue.frontier_events(job.job_id)] == [1, 2, 3]
        assert [e.seq for e in queue.frontier_events(job.job_id, since=2)] == [3]
        # Crash hygiene: events of cells about to re-run are dropped.
        dropped = queue.drop_frontier_events(job.job_id, keep_run_ids={"cell-a"})
        assert dropped == 1
        assert [e.run_id for e in queue.frontier_events(job.job_id)] == ["cell-a", "cell-a"]

    def test_wait_for_events_times_out_and_wakes(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job = queue.submit({})
        start = time.monotonic()
        events, record = queue.wait_for_events(job.job_id, timeout=0.1)
        assert events == [] and not record.terminal
        assert time.monotonic() - start >= 0.1
        # Terminal jobs return immediately, no blocking.
        queue.claim_next()
        queue.mark_done(job.job_id, {})
        start = time.monotonic()
        events, record = queue.wait_for_events(job.job_id, timeout=5.0)
        assert record.terminal and time.monotonic() - start < 1.0

    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        queue = JobQueue(path)
        job = queue.submit({"datasets": ["phishing"]}, name="durable")
        queue.append_frontier_event(job.job_id, "cell", {"n": 1})
        queue.close()
        reopened = JobQueue(path)
        assert reopened.get(job.job_id).name == "durable"
        assert len(reopened.frontier_events(job.job_id)) == 1

    def test_foreign_sqlite_file_rejected(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.sqlite"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE widgets (id INTEGER)")
        with pytest.raises(ServiceError, match="not a job queue"):
            JobQueue(path)


# ------------------------------------------------------------------- digest
class TestDeterministicDigest:
    def test_ignores_timing_and_cache_provenance(self):
        base = {
            "artifacts": [
                {
                    "best_accuracy": 0.9,
                    "wall_clock_seconds": 12.5,
                    "statistics": {"models_evaluated": 10},
                    "best_candidate": {"train_seconds": 1.0, "from_cache": False, "acc": 0.9},
                }
            ]
        }
        slower = {
            "artifacts": [
                {
                    "best_accuracy": 0.9,
                    "wall_clock_seconds": 99.9,
                    "statistics": {"models_evaluated": 3},
                    "best_candidate": {"train_seconds": 7.7, "from_cache": True, "acc": 0.9},
                }
            ]
        }
        assert deterministic_result_digest(base) == deterministic_result_digest(slower)

    def test_sensitive_to_real_content(self):
        assert deterministic_result_digest({"best_accuracy": 0.9}) != deterministic_result_digest(
            {"best_accuracy": 0.91}
        )


# ------------------------------------------------------------ job payloads
class TestNormalizeJobSpec:
    def test_run_shorthand_routes_overrides(self):
        spec, name = normalize_job_spec({"run": dict(TINY_RUN)})
        assert name == "run-phishing"
        assert spec["datasets"] == ["phishing"]
        assert spec["objectives"] == ["accuracy"]
        assert spec["scale"] == 0.05  # spec-level key passes through
        # Engine knobs land in the dotted-key configuration overrides.
        assert spec["overrides"]["population_size"] == 4
        assert spec["overrides"]["training_epochs"] == 1

    def test_full_spec_passthrough(self):
        spec, name = normalize_job_spec(
            {"spec": {"name": "grid", "datasets": ["phishing"], "objectives": ["accuracy"]}}
        )
        assert name == "grid" and spec["name"] == "grid"

    def test_rejects_malformed_payloads(self):
        with pytest.raises(ServiceError, match="exactly one"):
            normalize_job_spec({})
        with pytest.raises(ServiceError, match="exactly one"):
            normalize_job_spec({"spec": {}, "run": {}})
        with pytest.raises(ServiceError, match="dataset"):
            normalize_job_spec({"run": {"objective": "accuracy"}})
        with pytest.raises(ServiceError, match="invalid job spec"):
            normalize_job_spec({"spec": {"name": "x", "bogus_key": 1}})


# ------------------------------------------------------------------- router
class TestRouter:
    def test_placeholders_and_methods(self):
        router = Router()
        router.add("GET", "/jobs/{job_id}/frontier", lambda r: {"id": r.params["job_id"]})
        handler, params = router.dispatch("GET", "/jobs/abc123/frontier")
        assert params == {"job_id": "abc123"}
        with pytest.raises(ApiError) as not_found:
            router.dispatch("GET", "/nope")
        assert not_found.value.status == 404
        with pytest.raises(ApiError) as wrong_method:
            router.dispatch("DELETE", "/jobs/abc123/frontier")
        assert wrong_method.value.status == 405


# ----------------------------------------------------------- HTTP API (e2e)
class TestServiceIntegration:
    def test_health_and_version(self, service):
        from repro import __version__

        _, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        # The shared pool sits behind a non-owning wrapper; /metrics names
        # the pool itself.
        assert client.metrics()["backend"] == "thread_pool"

    def test_submit_runs_to_done_with_digest(self, service):
        _, client = service
        job = client.submit({"run": dict(TINY_RUN)})
        assert job["state"] == "queued"
        payload = client.wait(job["job_id"], poll_seconds=0.2, timeout=120)
        assert payload["state"] == "done"
        result = payload["result"]
        assert result["completed_cells"] == 1 and result["failed_cells"] == 0
        assert re.fullmatch(r"[0-9a-f]{64}", result["result_digest"])
        assert result["report"]["artifacts"][0]["status"] == "completed"
        # Progress checkpoints were recorded along the way.
        record = client.job(job["job_id"])
        assert record["completed_cells"] == record["total_cells"] == 1

    def test_frontier_long_poll_streams_events(self, service):
        _, client = service
        job = client.submit({"run": dict(TINY_RUN)})
        events = list(client.stream_frontier(job["job_id"], poll_timeout=2.0))
        assert events, "a completed run must stream at least one frontier event"
        sequences = [event["seq"] for event in events]
        assert sequences == sorted(sequences)
        assert {"run_id", "step", "frontier_size", "member"} <= set(events[0])
        # The poll cursor is resumable: asking again from the last seq is empty.
        final = client.frontier(job["job_id"], since=sequences[-1], timeout=0.2)
        assert final["terminal"] and final["events"] == []

    def test_result_is_202_while_pending(self, service):
        svc, client = service
        # Stall the queue with a fat job so the second one stays queued.
        blocker = client.submit({"run": {**TINY_RUN, "max_evaluations": 200}})
        queued = client.submit({"run": dict(TINY_RUN)})
        finished, payload = client.result(queued["job_id"])
        assert not finished and payload["state"] in ("queued", "running")
        client.cancel(blocker["job_id"])
        client.cancel(queued["job_id"])

    def test_cancel_running_job(self, service):
        _, client = service
        job = client.submit({"run": {**TINY_RUN, "max_evaluations": 500}})
        deadline = time.monotonic() + 30
        while client.job(job["job_id"])["state"] == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.1)
        client.cancel(job["job_id"])
        payload = client.wait(job["job_id"], poll_seconds=0.2, timeout=60)
        assert payload["state"] == "cancelled"

    def test_error_statuses(self, service):
        _, client = service
        status, payload = client.request("GET", "/jobs/doesnotexist")
        assert status == 404 and "unknown job" in payload["error"]
        status, payload = client.request("POST", "/jobs", body={"run": {}})
        assert status == 400
        status, payload = client.request("GET", "/nope")
        assert status == 404
        status, payload = client.request("GET", "/jobs", query={"limit": "banana"})
        assert status == 400 and "limit" in payload["error"]

    def test_failed_cell_marks_job_failed(self, service):
        _, client = service
        job = client.submit({"run": {**TINY_RUN, "dataset": "phishing", "fpga": "no-such-fpga"}})
        payload = client.wait(job["job_id"], poll_seconds=0.2, timeout=60)
        assert payload["state"] == "failed"
        assert "failed" in payload["error"]

    def test_concurrent_jobs_stream_independent_frontiers(self, tmp_path):
        svc = tiny_service(tmp_path, max_concurrent_jobs=2)
        host, port = svc.start()
        try:
            client = ServiceClient(f"{host}:{port}")
            job_a = client.submit({"run": dict(TINY_RUN)})
            job_b = client.submit({"run": {**TINY_RUN, "seed": 7}})
            events_a = list(client.stream_frontier(job_a["job_id"], poll_timeout=2.0))
            events_b = list(client.stream_frontier(job_b["job_id"], poll_timeout=2.0))
            assert events_a and events_b
            assert all(e["run_id"].endswith("s0") for e in events_a)
            assert all(e["run_id"].endswith("s7") for e in events_b)
        finally:
            svc.stop()


# ---------------------------------------------------------------- CLI verbs
class TestServiceCLI:
    def test_submit_result_jobs_cancel(self, service, tmp_path, capsys):
        _, client = service
        server = client.base_url.removeprefix("http://")
        assert main([
            "submit", "--server", server, "--dataset", "phishing",
            "--objective", "accuracy", "--scale", "0.05",
            "--set", "population_size=4", "--set", "max_evaluations=6",
            "--set", "training_epochs=1",
            "--wait", "--timeout", "120",
        ]) == 0
        out = capsys.readouterr().out
        job_id = re.search(r"submitted job (\w+)", out).group(1)
        assert "result digest:" in out

        result_path = tmp_path / "result.json"
        assert main(["result", "--server", server, job_id, "--output", str(result_path)]) == 0
        payload = json.loads(result_path.read_text())
        assert payload["state"] == "done"

        assert main(["jobs", "--server", server]) == 0
        assert job_id in capsys.readouterr().out

        assert main(["cancel", "--server", server, job_id]) == 0
        assert "already done" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unreachable_server_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["jobs", "--server", "127.0.0.1:1"])


# ----------------------------------------------------------- crash recovery
def _start_server(data_dir: Path, log_path: Path) -> tuple[subprocess.Popen, str]:
    """Launch ``ecad serve`` on an ephemeral port; returns (process, address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    log = open(log_path, "a")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-dir", str(data_dir), "--eval-workers", "2"],
        stdout=log, stderr=subprocess.STDOUT, env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        match = re.search(r"on http://([\d.]+:\d+)", log_path.read_text())
        if match:
            return process, match.group(1)
        if process.poll() is not None:
            break
        time.sleep(0.1)
    process.kill()
    raise AssertionError(f"server never came up:\n{log_path.read_text()}")


class TestCrashRecovery:
    def test_sigkill_mid_job_resumes_bit_identically(self, tmp_path):
        """Kill -9 the server mid-job; the restarted server must resume from the
        last RunArtifact checkpoint and produce the same result digest as an
        uninterrupted control run."""
        # Two cells so the first one's artifact is a mid-job checkpoint.
        spec_body = {
            "name": "crash-grid",
            "datasets": ["phishing"],
            "objectives": ["accuracy"],
            "seeds": [0, 1],
            "scale": 0.05,
            "overrides": {"population_size": 4, "max_evaluations": 6, "training_epochs": 1},
        }

        # Control: same spec through an uninterrupted in-process service.
        control = tiny_service(tmp_path / "control")
        host, port = control.start()
        try:
            control_client = ServiceClient(f"{host}:{port}")
            control_job = control_client.submit({"spec": spec_body})
            control_payload = control_client.wait(
                control_job["job_id"], poll_seconds=0.2, timeout=300
            )
        finally:
            control.stop()
        assert control_payload["state"] == "done"
        control_digest = control_payload["result"]["result_digest"]

        # Victim: a real server process, killed the moment cell 1 checkpoints.
        data_dir = tmp_path / "victim"
        log_path = tmp_path / "serve-1.log"
        log_path.touch()
        process, address = _start_server(data_dir, log_path)
        try:
            client = ServiceClient(address)
            job = client.submit({"spec": spec_body})
            deadline = time.monotonic() + 300
            while True:
                assert time.monotonic() < deadline, "first cell never completed"
                record = client.job(job["job_id"])
                if record["completed_cells"] >= 1:
                    break
                time.sleep(0.05)
            assert record["state"] == "running"
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

        # The restarted server finds the orphaned running job, re-queues it,
        # and resumes from the cell-1 checkpoint.
        log_path = tmp_path / "serve-2.log"
        log_path.touch()
        process, address = _start_server(data_dir, log_path)
        try:
            client = ServiceClient(address)
            payload = client.wait(job["job_id"], poll_seconds=0.2, timeout=300)
            assert payload["state"] == "done"
            assert payload["attempts"] >= 2  # claimed once per server lifetime
            # Cell 1's artifact was reused, not recomputed: its stage was
            # pre-recorded before the re-run started.
            assert payload["completed_cells"] == payload["total_cells"] == 2
            # Bit-identical resume: only timing differs from the control run.
            assert payload["result"]["result_digest"] == control_digest
            # The frontier log was deduplicated: one coherent trail per cell.
            events = client.frontier(job["job_id"], since=0, timeout=0.5)["events"]
            kept_cells = {event["run_id"] for event in events}
            assert kept_cells == {"phishing__accuracy__s0", "phishing__accuracy__s1"}
            sequences = [event["seq"] for event in events]
            assert sequences == sorted(sequences)
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()


# ------------------------------------------------------------ ServiceConfig
class TestServiceConfig:
    def test_round_trip_and_paths(self, tmp_path):
        config = ServiceConfig(port=9000, data_dir=str(tmp_path / "svc"))
        loaded = ServiceConfig.from_dict(config.to_dict())
        assert loaded == config
        assert loaded.resolved_queue_path == tmp_path / "svc" / "queue.sqlite"
        explicit = ServiceConfig(queue_path=str(tmp_path / "elsewhere.sqlite"))
        assert explicit.resolved_queue_path == tmp_path / "elsewhere.sqlite"

    def test_bare_serve_command_parses_to_the_defaults(self):
        from repro.cli import build_parser, service_config

        assert service_config(build_parser().parse_args(["serve"])) == ServiceConfig()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(port=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_concurrent_jobs=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_dict({"bogus": 1})
