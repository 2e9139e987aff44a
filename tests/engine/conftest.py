"""Shared helper: run a hand-written program on both ends of the chain."""

import pytest

from repro.engine import execute
from repro.oracle import naive_execute


def _execute_both(program, source, target_schema, **kwargs):
    """``execute`` (production) and ``naive_execute`` (the oracle) over
    the same program: equal valuations and effect counters, or the same
    exception type and message.  Returns (or re-raises) production's
    outcome, so a test reads exactly as if it had called ``execute``."""
    outcomes = []
    for run in (execute, naive_execute):
        try:
            outcomes.append(run(program, source, target_schema, **kwargs))
        except Exception as exc:  # noqa: BLE001 - compared, then re-raised
            outcomes.append(exc)
    planned, naive = outcomes
    if isinstance(planned, Exception) or isinstance(naive, Exception):
        assert type(planned) is type(naive), (planned, naive)
        assert str(planned) == str(naive)
        raise planned
    (target, stats), (naive_target, naive_stats) = planned, naive
    assert target.valuations == naive_target.valuations
    for counter in ("clauses_run", "bindings_found", "objects_created",
                    "attributes_set"):
        assert getattr(stats, counter) == getattr(naive_stats, counter)
    return target, stats


@pytest.fixture
def execute_both():
    return _execute_both
