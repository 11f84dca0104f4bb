"""One generated round of each perfbench workload, run in process under
perfbench/tracer.Tracer as a traced benchmark run makes it: install, the
warm-ups, the set-up gaps, reset, the round, the round's gaps. No gap may
be reported: a function that a per-layer metric names and that the
workload stops calling fails here, and not only in perfbench/smoke.py's
traced runs, which take minutes. Nothing under perfbench/ is changed."""

import json
import sys
from pathlib import Path

import pytest

import skewcodes.cli  # noqa: F401  (the traced benchmark's worker imports it first)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["audit", "search", "verify"])
def test_a_traced_round_leaves_no_gap(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracer
    import worker
    import workloads

    seeds = json.loads((PERFBENCH / "decomposition_seeds.json").read_text())["band"]
    rounds, warmups = workloads.generate(workload, 0, seeds, rounds=1)
    trace = tracer.Tracer().install()
    try:
        main = sys.modules["skewcodes.cli"].main  # the traced binding
        for argv in warmups:
            assert worker.call(main, argv)[0] == 0
        gaps = trace.missing_setup(workload)
        trace.reset()
        for req in rounds[0]:
            rc, out, err = worker.call(main, req["argv"])
            assert err is None and checks.check(req, rc, out) is None
        gaps += trace.missing(workload)
    finally:
        trace.uninstall()
    assert gaps == []
