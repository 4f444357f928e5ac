"""Read a breaker's current state back out of its board's trip log."""

from repro.resilience.breaker import BREAKER_CLOSED


def state_of(board, target):
    """The state ``target``'s last logged transition entered; closed when
    the board never moved it."""
    moves = [entry["to"] for entry in board.log if entry["target"] == target]
    return moves[-1] if moves else BREAKER_CLOSED
