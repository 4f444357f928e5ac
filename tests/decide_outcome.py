"""One VRA decision as a value the tests can compare."""

from repro.errors import RoutingError


def decide_outcome(service, home_uid, title_id, cluster=None):
    """``service.decide(...)``'s decision, or the name and message of the
    :class:`~repro.errors.RoutingError` subclass it raised: two services
    that agree on a request give equal outcomes, failures included."""
    try:
        return service.decide(home_uid, title_id, cluster)
    except RoutingError as exc:
        return type(exc).__name__, str(exc)
