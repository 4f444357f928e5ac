"""Circuit breakers: state machine, board bookkeeping, probe scheduling."""

import pytest

from repro.errors import ReproError
from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_COOLDOWN_S,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    KIND_LINK,
    KIND_SERVER,
    BreakerBoard,
    CircuitBreaker,
)
from repro.sim.engine import Simulator
from tests.resilience.breaker_log import state_of


class TestCircuitBreaker:
    """Timings on the constant 600 s window and 300 s cooldown."""

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker("x", threshold=0)

    def test_trips_at_threshold_within_window(self):
        b = CircuitBreaker("srv", threshold=3)
        assert b.record_failure(0.0) is False
        assert b.record_failure(10.0) is False
        assert b.state == BREAKER_CLOSED and b.allowed
        assert b.record_failure(20.0) is True
        assert b.state == BREAKER_OPEN and not b.allowed

    def test_window_pruning_prevents_trip(self):
        b = CircuitBreaker("srv", threshold=3)
        b.record_failure(0.0)
        b.record_failure(60.0)
        # Both failures age out of the 600 s window before the third lands.
        assert b.record_failure(900.0) is False
        assert b.state == BREAKER_CLOSED
        assert b.record_failure(910.0) is False
        assert b.record_failure(920.0) is True

    def test_half_open_after_cooldown_then_close(self):
        b = CircuitBreaker("srv", threshold=1)
        assert b.record_failure(0.0) is True
        assert b.half_open(180.0) is False  # cooldown not elapsed
        assert b.state == BREAKER_OPEN
        assert b.half_open(BREAKER_COOLDOWN_S) is True
        assert b.state == BREAKER_HALF_OPEN and b.allowed
        assert b.record_success(360.0) is True
        assert b.state == BREAKER_CLOSED

    def test_only_an_open_breaker_half_opens(self):
        b = CircuitBreaker("srv", threshold=1)
        assert b.half_open(BREAKER_COOLDOWN_S) is False
        assert b.state == BREAKER_CLOSED

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker("srv", threshold=1)
        b.record_failure(0.0)
        b.half_open(300.0)
        assert b.record_failure(360.0) is True  # failed probe
        assert b.state == BREAKER_OPEN
        assert b.opened_at == 360.0

    def test_failure_while_open_refreshes_cooldown(self):
        b = CircuitBreaker("srv", threshold=1)
        b.record_failure(0.0)
        assert b.record_failure(180.0) is False  # already open, no re-trip
        assert b.opened_at == 180.0
        assert b.half_open(300.0) is False  # original expiry is now stale
        assert b.half_open(480.0) is True

    def test_success_while_closed_is_noop(self):
        b = CircuitBreaker("srv", threshold=2)
        assert b.record_success(0.0) is False
        b.record_failure(1.0)
        assert b.record_success(2.0) is False
        assert b.state == BREAKER_CLOSED


def make_board(threshold=2):
    sim = Simulator()
    transitions = []
    board = BreakerBoard(
        sim,
        threshold=threshold,
        on_transition=lambda *args: transitions.append(args),
    )
    return sim, board, transitions


class TestBreakerBoard:
    def test_server_trip_filters_holder_set(self):
        sim, board, transitions = make_board()
        board.server_failure("U4")
        assert board.server_allowed("U4") is True
        board.server_failure("U4")
        assert state_of(board, "U4") == BREAKER_OPEN
        assert board.server_allowed("U4") is False
        assert board.filter_servers(["U4", "U5"]) == ["U5"]
        assert board.opened_by_kind[KIND_SERVER] == 1
        assert board.trip_count == 1
        assert transitions == [(KIND_SERVER, "U4", BREAKER_CLOSED, BREAKER_OPEN)]
        assert board.log[-1]["target"] == "U4"

    def test_filter_falls_back_when_every_holder_tripped(self):
        sim, board, _ = make_board()
        for uid in ("U4", "U5"):
            board.server_failure(uid)
            board.server_failure(uid)
        # Breakers degrade routing, they never empty the candidate set.
        assert board.filter_servers(["U4", "U5"]) == ["U4", "U5"]

    def test_filter_with_no_breakers_is_identity(self):
        _, board, _ = make_board()
        assert board.filter_servers(["U5", "U4"]) == ["U5", "U4"]

    def test_probe_half_opens_after_cooldown(self):
        sim, board, _ = make_board()
        board.server_failure("U4")
        board.server_failure("U4")
        sim.run(until=299.0)
        assert state_of(board, "U4") == BREAKER_OPEN
        sim.run(until=301.0)
        assert state_of(board, "U4") == BREAKER_HALF_OPEN
        assert board.half_open_by_kind[KIND_SERVER] == 1
        assert board.server_allowed("U4") is True

    def test_path_success_closes_half_open_probe(self):
        sim, board, transitions = make_board()
        board.server_failure("U4")
        board.server_failure("U4")
        board.link_failure("l1")
        board.link_failure("l1")
        sim.run(until=301.0)
        board.path_success("U4", ["l1", "never-tripped"])
        assert state_of(board, "U4") == BREAKER_CLOSED
        assert state_of(board, "l1") == BREAKER_CLOSED
        assert board.closed_by_kind[KIND_SERVER] == 1
        assert board.closed_by_kind[KIND_LINK] == 1
        # Links the board never saw stay untracked (implicitly closed).
        assert state_of(board, "never-tripped") == BREAKER_CLOSED
        assert (KIND_SERVER, "U4", BREAKER_HALF_OPEN, BREAKER_CLOSED) in transitions

    def test_link_breaker_opens_and_reopens_on_failed_probe(self):
        sim, board, _ = make_board()
        board.link_failure("Patra-Ioannina")
        board.link_failure("Patra-Ioannina")
        assert board.link_open("Patra-Ioannina") is True
        sim.run(until=301.0)
        assert board.link_open("Patra-Ioannina") is False  # half-open probe
        board.link_failure("Patra-Ioannina")  # probe failed
        assert board.link_open("Patra-Ioannina") is True
        assert board.opened_by_kind[KIND_LINK] == 2
        # The re-open scheduled its own expiry: it half-opens again.
        sim.run(until=602.0)
        assert board.link_open("Patra-Ioannina") is False

    def test_failure_while_open_cannot_strand_the_breaker(self):
        # A failure while already open refreshes the cooldown origin but
        # record_failure returns False there, so no fresh expiry event is
        # scheduled; the original probe must chase the moved deadline.
        sim, board, _ = make_board()
        board.server_failure("U4")
        board.server_failure("U4")  # open at t=0, probe due t=300
        sim.schedule(100.0, board.server_failure, "U4")  # deadline -> 400
        sim.run(until=399.0)
        assert state_of(board, "U4") == BREAKER_OPEN
        sim.run(until=401.0)
        assert state_of(board, "U4") == BREAKER_HALF_OPEN
        assert board.half_open_by_kind[KIND_SERVER] == 1

    def test_log_is_chronological(self):
        sim, board, _ = make_board()
        board.server_failure("U4")
        board.server_failure("U4")
        sim.run(until=301.0)
        board.server_success("U4")
        times = [entry["at_s"] for entry in board.log]
        assert times == sorted(times)
        assert [entry["to"] for entry in board.log] == [
            BREAKER_OPEN,
            BREAKER_HALF_OPEN,
            BREAKER_CLOSED,
        ]
