"""One workload run in a fresh process (started by run.py).

Reads a job from stdin and prints one JSON result. The process starts
without skewcodes imported, so the set-up it times (import plus one warm-up
request per field) is what a CLI invocation pays, and its peak RSS is the
workload's own.

    python3 perfbench/worker.py [--setup-only] < job.json
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import checks

clock = time.perf_counter
SETUP_PROBES = 20
PROBE_SHARE = 0.1  # calibration time after a request, as a share of its latency


def call(main, argv):
    """(exit code, stdout, error) of one in-process CLI request."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except (Exception, SystemExit) as exc:  # a traceback or argparse exit is a failed request
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), None


def digest(stdout):
    """The stdout fingerprint that reference.json records."""
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def setup(src, warmups, before_warmups=None):
    """Import skewcodes from `src` and run the warm-ups; (cli.main, seconds)."""
    start = clock()
    sys.path.insert(0, src)
    import skewcodes.cli

    if before_warmups is not None:
        before_warmups()
    main = sys.modules["skewcodes.cli"].main  # the traced binding, if any
    for argv in warmups:
        rc, _, err = call(main, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv[0]} failed: rc={rc} {err or ''}")
    elapsed = clock() - start
    if os.path.dirname(os.path.dirname(skewcodes.__file__)) != src:
        raise RuntimeError(f"skewcodes was imported from {skewcodes.__file__}, not {src}")
    return main, elapsed


def setup_probe():
    """The mean time of SETUP_PROBES calibration probes, run right after a
    set-up. calibrate imports numpy, so it is imported only once the set-up,
    which imports numpy itself, has been timed."""
    import calibrate

    return sum(calibrate.probe() for _ in range(SETUP_PROBES)) / SETUP_PROBES


class Loop:
    """The closed loop: one request at a time, each checked once it returns.

    Before each request the garbage left by the earlier ones is collected,
    outside the timing: a CLI invocation starts in a fresh process, and
    otherwise a request would pay for collecting the garbage of whichever
    requests happened to run before it.

    Only each request's start and latency and the failures are kept, so
    memory does not grow with the number of rounds. With a probe, the loop
    also runs calibration probes before the first request and after every
    request, for PROBE_SHARE of its latency, and keeps each probe's start
    and duration.
    """

    def __init__(self, rounds, reference, probe=None):
        self.rounds = rounds
        self.reference = reference  # per round, per request: stdout digest, or None
        self.probe = probe  # calibrate.probe, or None
        self.next_round = 0
        self.started = []
        self.latencies = []
        self.probes = []  # [start, seconds] of each probe
        self.round_s = []
        self.failed = 0
        self.reasons = []

    def run_round(self, main):
        r = self.next_round
        self.next_round += 1
        round_s = 0.0
        for i, req in enumerate(self.rounds[r]):
            gc.collect()
            start = clock()
            rc, out, err = call(main, req["argv"])
            self.started.append(start)
            self.latencies.append(clock() - start)
            round_s += self.latencies[-1]
            reason = err or checks.check(req, rc, out)
            if reason is None and self.reference is not None and self.reference[r][i] != digest(out):
                reason = "stdout differs from the reference digest"
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"round {r} request {i} ({req['kind']}): {reason}")
            if self.probe is not None:
                self.calibrate(PROBE_SHARE * self.latencies[-1])
        self.round_s.append(round_s)

    def calibrate(self, seconds):
        """Probes for at least `seconds`, and at least once."""
        end = clock() + seconds
        self.probes.append([clock(), self.probe()])
        while clock() < end:
            self.probes.append([clock(), self.probe()])

    def until(self, main, seconds, min_rounds, spare=0):
        """Whole rounds until both limits are reached or only `spare` rounds
        are left; True when the rounds ran out first."""
        start = clock()
        while self.next_round < len(self.rounds) - spare:
            self.run_round(main)
            if clock() - start >= seconds and self.next_round >= min_rounds:
                return False
        return True


def main():
    job = json.load(sys.stdin)
    if "--setup-only" in sys.argv[1:]:
        setup_s = setup(job["src"], job["warmups"])[1]
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe()}))
        return 0
    loop = Loop(job["rounds"], job["reference"])
    result = {}
    if job["trace"]:
        from tracer import OVERHEAD, Tracer

        # The tracer goes in before the warm-ups, so that the set-up's cold
        # builds (field_tables, make_field) are measured; then its counts
        # start again for the rounds.
        tracer = Tracer()
        _, result["setup_s"] = setup(job["src"], job["warmups"], tracer.install)
        setup_layers = tracer.setup_metrics()
        gaps = tracer.missing_setup(job["workload"])
        tracer.reset()
        exhausted = loop.until(sys.modules["skewcodes.cli"].main, job["seconds"], 2, spare=1)
        rounds = len(loop.round_s)
        result["per_layer"] = {**tracer.metrics(rounds), **setup_layers}
        result["trace_gaps"] = gaps + tracer.missing(job["workload"])
        result["trace_table"] = tracer.table(rounds)
        # One more round, untraced, against the traced rounds of the same
        # shape (the first audit round also holds the examples).
        tracer.uninstall()
        loop.run_round(sys.modules["skewcodes.cli"].main)
        traced = loop.round_s[1:-1]
        result["per_layer"][OVERHEAD[0]] = sum(traced) / len(traced) / loop.round_s[-1]
    else:
        main_fn, result["setup_s"] = setup(job["src"], job["warmups"])
        result["setup_probe_s"] = setup_probe()
        loop.probe = sys.modules["calibrate"].probe
        loop.calibrate(0)
        exhausted = loop.until(main_fn, job["seconds"], job["min_rounds"])
    result.update(
        attempted=len(loop.latencies),
        failed=loop.failed,
        failures=loop.reasons,
        rounds_exhausted=exhausted,
        round_s=loop.round_s,
        started_s=loop.started,
        latencies_s=loop.latencies,
        probes_s=loop.probes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
