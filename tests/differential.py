"""Every hand-written program on three legs: production ``execute``,
the oracle's ``naive_execute`` and a session start
(``IncrementalTransform``), held to the same outcome."""

from repro.engine import IncrementalTransform, execute
from repro.oracle import naive_execute


def session_start(program, source, target_schema, **kwargs):
    """Production as a session: the third leg of :func:`execute_both`."""
    session = IncrementalTransform(program, source, target_schema, **kwargs)
    return session.target, session.stats


def execute_both(program, source, target_schema, **kwargs):
    """``execute`` (production), ``naive_execute`` (the oracle) and
    ``IncrementalTransform`` (production as a session start) over the
    same program: equal, well-formed valuations (``Instance.validate``
    is the reference for the freeze's checks) and equal effect
    counters, or the same exception type and message.  Returns
    (or re-raises) production's outcome, so a test reads exactly as if
    it had called ``execute``."""
    outcomes = []
    for run in (execute, naive_execute, session_start):
        try:
            outcomes.append(run(program, source, target_schema, **kwargs))
        except Exception as exc:  # noqa: BLE001 - compared, then re-raised
            outcomes.append(exc)
    planned = outcomes[0]
    if any(isinstance(outcome, Exception) for outcome in outcomes):
        for other in outcomes[1:]:
            assert type(planned) is type(other), outcomes
            assert str(planned) == str(other)
        raise planned
    target, stats = planned
    assert target.is_valid()
    for other_target, other_stats in outcomes[1:]:
        assert other_target.is_valid()
        assert target.valuations == other_target.valuations
        for counter in ("clauses_run", "bindings_found", "objects_created",
                        "attributes_set"):
            assert getattr(stats, counter) == getattr(other_stats, counter)
    return target, stats
