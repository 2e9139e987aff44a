"""A plan's solutions as binding dicts, one per row of its batch.

Production reads batches as columns; tests compare a plan's rows with
the reference matcher's bindings one by one, in order.
"""

from repro.engine.columnar import run_steps_columnar
from repro.semantics.match import checked_steps


def plan_rows(pool, steps, initial=None, stats=None):
    """The solutions of a plan run once from ``initial``, one binding
    dict each.

    A plan whose boundness does not fit ``initial``
    (:func:`~repro.semantics.match.checked_steps`) raises
    :class:`~repro.semantics.match.MatchError` at call time.  ``stats``
    as for :func:`~repro.engine.columnar.run_steps_columnar`.
    """
    columns = {name: [value] for name, value in (initial or {}).items()}
    names, columns, count = run_steps_columnar(
        pool, checked_steps(steps, columns), columns, 1, stats)
    return ({name: columns[name][row] for name in names}
            for row in range(count))
