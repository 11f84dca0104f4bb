"""Regenerate the benchmark's recorded data files.

    python3 perfbench/record.py decomposition-seeds   # decomposition_seeds.json
    python3 perfbench/record.py reference             # reference.json

decomposition-seeds counts the library calls (under the tracer) that
`verify decomposition` makes for suite seeds 0..SEEDS-1 and keeps as the
band the seeds whose count is within BAND of the median. Counts, unlike
times, do not depend on how busy the machine is.

reference records, for every workload at the default seed, the first 16
hex digits of the sha256 of each request's stdout, round by round. Record
it only from a commit whose reports are known to be right: later runs at
the default seed fail on any difference.
"""

from __future__ import annotations

import json
import statistics
import sys

import run
import workloads
from worker import call, digest

SEEDS = 64
BAND = 0.08


def _main_fn():
    sys.path.insert(0, str(run.SRC))
    import skewcodes.cli

    return skewcodes.cli.main


def decomposition_seeds():
    from tracer import Tracer

    _main_fn()
    tracer = Tracer().install()
    main = sys.modules["skewcodes.cli"].main
    calls = {}
    for seed in range(SEEDS):
        argv = workloads.cli_argv("verify", seed=seed, trials=20, extra=("decomposition",))
        before = sum(s[0] for s in tracer.stats.values())
        rc, _, err = call(main, argv)
        if rc != 0:
            raise SystemExit(f"decomposition seed {seed} failed: rc={rc} {err or ''}")
        calls[seed] = sum(s[0] for s in tracer.stats.values()) - before
    return {"library_calls": calls, "band": band(calls)}


def band(calls):
    median = statistics.median(calls.values())
    return sorted(int(s) for s, c in calls.items() if abs(c - median) <= BAND * median)


def reference():
    main = _main_fn()
    seeds = run.load_json("decomposition_seeds.json")["band"]
    out = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        rounds, _ = workloads.generate(name, run.DEFAULT_SEED, seeds)
        digests = []
        for reqs in rounds:
            digests.append([])
            for req in reqs:
                rc, stdout, err = call(main, req["argv"])
                if rc != 0:
                    raise SystemExit(f"{name}: {req['argv'][0]} failed: rc={rc} {err or ''}")
                digests[-1].append(digest(stdout))
        out["workloads"][name] = {"inputs_sha256": run.digest_inputs(rounds), "stdout_digests": digests}
    return out


if __name__ == "__main__":
    what = sys.argv[1:] and sys.argv[1]
    if what == "decomposition-seeds":
        data, target = decomposition_seeds(), "decomposition_seeds.json"
    elif what == "reference":
        data, target = reference(), "reference.json"
    else:
        raise SystemExit(__doc__)
    (run.HERE / target).write_text(json.dumps(data, indent=1) + "\n")
