"""The HTTP/JSON front: routes, backpressure, drain, chaos restart.

In-process tests drive a real ``ThreadingHTTPServer`` on an ephemeral
port through the real client.  The subprocess tests exercise the two
lifecycle guarantees end to end: SIGTERM drains and exits 0 with
checkpoints flushed, and a ``kill -9`` mid-campaign loses at most one
wave — the restarted daemon auto-resumes to the identical verdict
(the CI chaos job repeats this against two concurrent campaigns).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import AdmissionRefused, CampaignNotFound, ServiceError
from repro.service.client import ServiceClient
from repro.service.daemon import CheckingDaemon
from repro.service.scheduler import DONE

SPEC = {"preemption_bound": 1, "max_schedules": 12}


@pytest.fixture
def daemon(tmp_path):
    with CheckingDaemon(str(tmp_path / "svc"), port=0, workers=1,
                        round_capacity=6) as running:
        yield running


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.url, backoff=0.001)


class TestRoutes:
    def test_healthz_reports_ok(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] >= 1

    def test_submit_status_wait_artifacts(self, client):
        reply = client.submit(dict(SPEC, id="one"))
        assert reply["id"] == "one"
        final = client.wait("one", deadline=120)
        assert final["status"] == DONE and final["ok"]
        assert client.artifacts("one") == []
        assert [c["id"] for c in client.list_campaigns()] == ["one"]

    def test_resubmit_same_id_is_idempotent(self, client):
        client.submit(dict(SPEC, id="twice"))
        again = client.submit(dict(SPEC, id="twice"))
        assert again["id"] == "twice"

    def test_unknown_campaign_is_404_typed(self, client):
        with pytest.raises(CampaignNotFound):
            client.status("ghost")
        with pytest.raises(CampaignNotFound):
            client.artifacts("ghost")

    def test_unknown_field_is_400_typed(self, client):
        with pytest.raises(ServiceError, match="unknown submission"):
            client.submit({"bogus": 1})

    def test_unknown_route_is_404(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(daemon.url + "/teapot")
        assert exc.value.code == 404

    def test_traversal_id_is_400_and_writes_nothing(
            self, daemon, client, tmp_path):
        """A dot-only id would resolve the campaign store outside the
        service root; the submission must die as a 400 with no file
        created in (or above) the root."""
        with pytest.raises(ServiceError, match="all dots"):
            client.submit(dict(SPEC, id=".."))
        with pytest.raises(ServiceError, match="all dots"):
            client.submit(dict(SPEC, id="."))
        assert not (tmp_path / "campaign.json").exists()
        assert not (tmp_path / "svc" / "campaign.json").exists()

    def test_non_numeric_budget_is_400_typed(self, client):
        with pytest.raises(ServiceError, match="wall_budget"):
            client.submit(dict(SPEC, id="wb", wall_budget="abc"))
        with pytest.raises(ServiceError, match="wave_budget"):
            client.submit(dict(SPEC, id="wv", wave_budget=True))
        # Nothing was admitted, and the daemon keeps scheduling.
        assert client.list_campaigns() == []
        assert client.healthz()["status"] == "ok"

    def test_untyped_failure_maps_to_500_json(
            self, daemon, client, monkeypatch):
        client.submit(dict(SPEC, id="oops"))

        def boom(_campaign_id):
            raise OSError("disk gone")

        monkeypatch.setattr(daemon.scheduler, "artifacts", boom)
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                daemon.url + "/campaigns/oops/artifacts")
        assert exc.value.code == 500
        payload = json.loads(exc.value.read().decode())
        assert payload["error"] == "internal"
        assert "disk gone" in payload["detail"]

    def test_cancel_route(self, client):
        client.submit(dict(SPEC, id="doomed", max_schedules=600,
                           preemption_bound=2))
        verdict = client.cancel("doomed")
        assert verdict["status"] in ("cancelled", "done")

    def test_metrics_route_serves_registry(self, client):
        snapshot = client._request("GET", "/metrics")
        assert isinstance(snapshot, dict)

    def test_metrics_expose_scheduler_family(self, client):
        """After a campaign, ``/metrics`` carries the ``sched.*``
        counter family next to ``snapshot_cache.*``, and the frames the
        fingerprint layer re-hashed."""
        client.submit(dict(SPEC, id="metered"))
        final = client.wait("metered", deadline=120)
        assert final["status"] == DONE
        snapshot = client._request("GET", "/metrics")
        counters = snapshot["counters"]
        for name in ("sched.handoffs", "sched.inline_decisions",
                     "sched.arena_reuses", "sched.fiber_steps"):
            assert name in counters, sorted(counters)
        assert counters["sched.runs"] > 0
        assert counters["fingerprint.frames_hashed"] > 0

    def test_violations_surface_replayable_bundles(self, client):
        from repro.obs.provenance import ProvenanceBundle, replay_bundle

        client.submit({
            "id": "buggy",
            "monitor": "repro.hyperenclave.buggy:MissingLockMonitor",
            "check_ni": False, "preemption_bound": 1,
            "max_schedules": 30})
        final = client.wait("buggy", deadline=180)
        assert final["status"] == DONE and not final["ok"]
        artifacts = client.artifacts("buggy")
        assert len(artifacts) == final["violations"] > 0
        bundle = ProvenanceBundle.from_json(
            json.dumps(artifacts[0]["bundle"]))
        outcome = replay_bundle(bundle)
        assert outcome.matched, outcome.summary()


class TestBackpressure:
    def test_admission_bound_maps_to_429(self, tmp_path):
        # The scheduler thread never starts, so everything stays
        # queued and the third submission hits the admission bound.
        import threading
        from repro.service.scheduler import CampaignScheduler
        scheduler = CampaignScheduler(str(tmp_path / "svc"), workers=1,
                                      max_active=1, max_queued=1)
        daemon = CheckingDaemon(str(tmp_path / "svc"), port=0,
                                scheduler=scheduler)
        thread = threading.Thread(target=daemon.httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(daemon.url, max_attempts=1)
            client.submit(dict(SPEC, id="a", seed=0))
            client.submit(dict(SPEC, id="b", seed=1))
            with pytest.raises(AdmissionRefused) as exc:
                client.submit(dict(SPEC, id="c", seed=2))
            assert exc.value.retry_after is not None
        finally:
            daemon.httpd.shutdown()
            daemon.httpd.server_close()
            scheduler.drain()

    def test_draining_maps_to_503(self, daemon):
        client = ServiceClient(daemon.url, max_attempts=1)
        daemon.scheduler.drain()
        with pytest.raises(AdmissionRefused) as exc:
            client.submit(dict(SPEC))
        assert exc.value.retry_after is None


def _serve_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def _start_daemon(root, *extra, workers=1):
    """``python -m repro serve`` on an ephemeral port; returns
    (process, url) once the listen line appears."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--port", "0", "--workers", str(workers), *extra],
        env=_serve_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    assert "listening on" in line, line
    url = next(tok for tok in line.split() if tok.startswith("http://"))
    return proc, url


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after ``comm`` (state first),
    or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat[stat.rindex(")") + 2:].split()


def _children(pid):
    """``(pid, start time)`` of every live child of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields is not None and int(fields[1]) == pid:
            found.append((int(entry), fields[19]))
    return found


def _running(child):
    """Still running (not gone, not a zombie, pid not reused)."""
    pid, started = child
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z" and fields[19] == started


class TestLifecycleSubprocess:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads the process table from /proc")
    def test_kill9_leaves_no_pool_workers(self, tmp_path):
        """Pool workers exit on their own once a SIGKILLed daemon (which
        cannot reap them) is gone."""
        proc, url = _start_daemon(str(tmp_path / "svc"), workers=2)
        workers = []
        try:
            client = ServiceClient(url)
            client.submit({"id": "warm", **SPEC})
            assert client.wait("warm", deadline=120)["status"] == DONE
            workers = _children(proc.pid)
            assert workers, "the campaign ran without pool workers"
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while (any(_running(child) for child in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert [child for child in workers if _running(child)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
            for pid, _started in filter(_running, workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        root = str(tmp_path / "svc")
        proc, url = _start_daemon(root)
        try:
            client = ServiceClient(url)
            client.submit({"id": "big", "preemption_bound": 2,
                           "max_schedules": 200})
            # Let it get some waves committed, then ask for a drain.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status("big")["waves"] >= 1:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, err
        assert "draining" in out and "checkpoints" in out
        assert "big:" in out          # the per-campaign resume report

    def test_kill9_then_restart_resumes_identical_verdict(
            self, tmp_path):
        from repro.service import CampaignSpec, run_durable_campaign
        from repro.service.scheduler import _result_digest

        spec = {"id": "chaos", "preemption_bound": 2,
                "max_schedules": 60}
        reference = _result_digest(run_durable_campaign(
            CampaignSpec(preemption_bound=2, max_schedules=60),
            str(tmp_path / "ref"), workers=1))
        root = str(tmp_path / "svc")
        proc, url = _start_daemon(root)
        try:
            client = ServiceClient(url)
            client.submit(spec)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status("chaos")["waves"] >= 1:
                    break
                time.sleep(0.05)
            proc.kill()                        # SIGKILL, no flush
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        # The restarted daemon auto-resumes the incomplete store.
        proc, url = _start_daemon(root)
        try:
            client = ServiceClient(url)
            final = client.wait("chaos", deadline=120)
            assert final["status"] == DONE
            assert final["resumed"]
            assert final["result_digest"] == reference
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
