"""Unit tests for per-request session spans."""

from repro.obs.spans import SessionSpan


def make_span():
    return SessionSpan(
        request_id=7,
        client_id="c1",
        title_id="t1",
        home_uid="U2",
        started_at=100.0,
    )


class TestLifecycle:
    def test_open_until_finished(self):
        span = make_span()
        assert span.finished_at is None
        span.finish(160.0, "completed")
        assert span.finished_at == 160.0
        assert span.status == "completed"
        assert span.events[-1].kind == "finished"

    def test_event_queries(self):
        span = make_span()
        span.add(100.0, "vra.decision", chosen_uid="U4")
        span.add(130.0, "cluster.delivered", index=0, server_uid="U4")
        span.add(130.0, "switch", to_server="U5", cluster=1)
        span.add(130.0, "vra.decision", chosen_uid="U5")
        span.add(150.0, "cluster.delivered", index=1, server_uid="U5")
        assert span.decision_count == 2
        assert span.switch_count == 1
        assert span.servers_used == ["U4", "U5"]


class TestSink:
    def test_no_sink_is_fine(self):
        # A span forwards nothing: it reaches the row stream once, as a
        # span row, when it closes.
        span = make_span()
        span.add(100.0, "submitted")
        assert len(span.events) == 1


class TestExportShape:
    def test_to_dict_is_json_ready(self):
        import json

        span = make_span()
        span.add(100.0, "vra.decision", epoch=("db", 1, 2), cost=0.5)
        span.finish(160.0, "completed")
        payload = span.to_dict()
        # Tuples coerced to lists, so json round-trips losslessly.
        assert payload["events"][0]["epoch"] == ["db", 1, 2]
        assert json.loads(json.dumps(payload)) == json.loads(json.dumps(payload))
        assert payload["request_id"] == 7
        assert payload["decision_count"] == 1
        assert payload["status"] == "completed"
