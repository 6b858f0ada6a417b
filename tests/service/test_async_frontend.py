"""The front door's lifecycle, kept under the ids it has long run under.

Close is idempotent, the context manager serves and closes, ``close()``
tears down live connections, and the frontend metrics reach the
registry.  ``test_frontend.py``'s ``TestLifecycle`` runs the same
bodies beside the rest of the lifecycle suite; window and backpressure
are ``test_frontend_window.py``'s.
"""

from __future__ import annotations

from repro.service import ServiceClient, ServiceFrontend


class TestLifecycle:
    def test_close_is_idempotent(self, service):
        front = ServiceFrontend(service).start()
        front.close()
        front.close()

    def test_context_manager(self, service):
        with ServiceFrontend(service) as front:
            with ServiceClient(front.address) as c:
                assert c.request("audit", {})["status"] == "OK"

    def test_close_tears_down_live_connections(self, service):
        import pytest as _pytest

        from repro.net.wire import WireError

        front = ServiceFrontend(service).start()
        c = ServiceClient(front.address, timeout=10.0)
        assert c.request("audit", {})["status"] == "OK"
        front.close()
        c.sock.settimeout(10)
        with _pytest.raises((WireError, OSError)):
            c.send("audit", {})
            c.recv()
        c.close()

    def test_metrics_flow(self, service):
        import repro.obs as obs

        telemetry = obs.Telemetry.enabled()
        with ServiceFrontend(service, telemetry=telemetry) as front:
            with ServiceClient(front.address) as c:
                c.request("audit", {})
        snapshot = telemetry.registry.snapshot()
        counters = {m["name"]: m["value"] for m in snapshot["counters"]
                    if not m["labels"]}
        gauges = {m["name"]: m["value"] for m in snapshot["gauges"]
                  if not m["labels"]}
        assert counters["repro_frontend_frames_total"] >= 1
        assert counters["repro_frontend_conn_errors_total"] == 0
        assert counters["repro_frontend_preparse_busy_total"] == 0
        assert gauges["repro_frontend_connections"] == 0  # closed
        assert gauges["repro_frontend_paused_connections"] == 0
