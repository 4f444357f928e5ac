"""Read a tracer's ``trace`` rows back out of its memory sink."""


def trace_rows(tracer, category=None):
    """The ``trace`` rows ``tracer.sink`` holds, oldest first (rows of
    other kinds sharing the sink are skipped).  ``category="vra"`` keeps
    ``"vra"`` and ``"vra.decision"`` but not ``"vrawhatever"``."""
    prefix = f"{category}."
    return [
        row
        for row in tracer.sink.rows
        if row["kind"] == "trace"
        and (category is None or f"{row['category']}.".startswith(prefix))
    ]
