"""Unit tests for the Event record."""

from repro.sim.events import Event


class TestEvent:
    def test_key_orders_by_time_then_seq(self):
        early = Event(time=1.0, seq=5, callback=lambda: None)
        late = Event(time=2.0, seq=1, callback=lambda: None)
        tied = Event(time=1.0, seq=6, callback=lambda: None)
        assert early.key < late.key
        assert early.key < tied.key

    def test_frozen(self):
        import pytest

        event = Event(time=0.0, seq=0, callback=lambda: None, args=(1,), name="n")
        for field in ("time", "seq", "callback", "args", "name", "key"):
            with pytest.raises(AttributeError):
                setattr(event, field, None)
        with pytest.raises(AttributeError):
            event.extra = 1  # type: ignore[attr-defined]
        assert event == Event(time=0.0, seq=0, callback=event.callback, args=(1,), name="n")
