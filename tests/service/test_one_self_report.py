"""One self-report per node (a text scan, no clock).

A serving session counts into its own ``MetricsRegistry`` and
``GET /metrics`` renders it after the process registry; there is no
second report beside it.  The scan fails when a parallel copy — a
counters object, a JSON stats view, a scrape-time copy into the process
registry, or the ``/stats`` route — comes back.
(``tests/service/test_observability.py::TestMetricsEndpoint::
test_each_node_reports_only_itself`` checks the process registry holds
no session family after a two-node scrape.)
"""

import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def test_the_second_report_is_gone_from_the_source_tree():
    gone = ("SessionCounters", "stats_json", "publish_metrics",
            "ReplicationState", '"/stats"')
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        for name in gone:
            assert name not in text, (path.relative_to(PACKAGE), name)
