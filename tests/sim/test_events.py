"""Unit tests for the Event record."""

from repro.sim.events import Event


class TestEvent:
    def test_sort_key_orders_by_time_then_seq(self):
        early = Event(time=1.0, seq=5, callback=lambda: None)
        late = Event(time=2.0, seq=1, callback=lambda: None)
        tied = Event(time=1.0, seq=6, callback=lambda: None)
        assert early.sort_key() < late.sort_key()
        assert early.sort_key() < tied.sort_key()

    def test_fire_invokes_callback_with_args(self):
        seen = []
        event = Event(time=0.0, seq=0, callback=seen.append, args=("x",))
        event.fire()
        assert seen == ["x"]

    def test_fire_returns_callback_result(self):
        event = Event(time=0.0, seq=0, callback=lambda a, b: a + b, args=(2, 3))
        assert event.fire() == 5

    def test_label_prefers_explicit_name(self):
        event = Event(time=0.0, seq=0, callback=lambda: None, name="snmp:tick")
        assert event.label() == "snmp:tick"

    def test_label_falls_back_to_callback_qualname(self):
        def my_callback():
            return None

        event = Event(time=0.0, seq=0, callback=my_callback)
        assert "my_callback" in event.label()

    def test_frozen(self):
        import pytest

        event = Event(time=0.0, seq=0, callback=lambda: None, args=(1,), name="n")
        for field in ("time", "seq", "callback", "args", "name", "key"):
            with pytest.raises(AttributeError):
                setattr(event, field, None)
        with pytest.raises(AttributeError):
            event.extra = 1  # type: ignore[attr-defined]
        assert event == Event(time=0.0, seq=0, callback=event.callback, args=(1,), name="n")
