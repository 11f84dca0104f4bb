"""Benchmark of the skewcodes CLI on desk-scale exact jobs.

    python3 perfbench/run.py --workload audit|search|verify --seed N --seconds S --trace 0|1

One client in a closed loop: each request is one in-process
`skewcodes.cli.main(argv)` call, issued when the previous one has returned.
A run generates its inputs from --seed, then runs whole rounds of the
workload's requests in a fresh worker process until --seconds have passed
and at least MIN_ROUNDS rounds were made. Each round has its own inputs.
Set-up is timed in fresh processes before and after the worker.
Every output is checked (see checks.py). Every time is divided by how slow
the shared machine ran around it, measured with calibrate.probe().

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see tracer.py and
LAYERS.md). The line before it carries the run's context: versions, CPU,
sample counts, failed_ratio and the first failure reasons.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
# fresh processes that only set up, before and after the worker; the
# worker's own set-up is one more sample
SETUP_PROCESSES = (2, 2)
MIN_ROUNDS = 5  # every stratum is timed at least this often
MIN_WINDOW_S = 0.03  # see slowdowns()
DEADLINE_S = 170  # every process this run starts is done by then

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("SKEWCODES_BUDGET", "PYTHONPATH")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(job, deadline, *flags):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *flags],
            input=json.dumps(job), capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def digest_inputs(rounds):
    return hashlib.sha256(json.dumps([[r["argv"] for r in reqs] for reqs in rounds]).encode()).hexdigest()


def load_json(name):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(workload, seed, rounds):
    """The recorded stdout digests, per round and request, at the default seed."""
    if seed != DEFAULT_SEED:
        return None
    ref = load_json("reference.json")["workloads"][workload]
    if ref["inputs_sha256"] != digest_inputs(rounds):
        raise BenchError("generated inputs differ from the ones reference.json was recorded on")
    return ref["stdout_digests"]


def slowdowns(result):
    """How slow the machine ran during each request: the mean time of the
    calibration probes near it, over calibrate.REFERENCE_S. A probe is near
    when it started at most max(latency, MIN_WINDOW_S) before the request
    started or after it ended, so the probes just before and just after it
    always count."""
    at = [t for t, _ in result["probes_s"]]
    out = []
    for start, latency in zip(result["started_s"], result["latencies_s"]):
        window = max(latency, MIN_WINDOW_S)
        lo = bisect.bisect_left(at, start - window)
        hi = bisect.bisect_right(at, start + latency + window)
        out.append(statistics.fmean(p for _, p in result["probes_s"][lo:hi]) / calibrate.REFERENCE_S)
    return out


def per_stratum(rounds, latencies):
    """The median latency of each stratum over the rounds that ran, sorted."""
    by_stratum = {}
    requests = (req for reqs in rounds for req in reqs)
    for req, latency in zip(requests, latencies):
        if req["stratum"] is not None:
            by_stratum.setdefault(req["stratum"], []).append(latency)
    return sorted(statistics.median(v) for v in by_stratum.values())


def timings(strata):
    return {
        "throughput_rps": len(strata) / sum(strata),
        "latency_p50_ms": statistics.median(strata) * 1e3,
        "latency_p90_ms": statistics.quantiles(strata, n=10)[8] * 1e3,
    }


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "skewcodes" / "__init__.py").is_file():
        raise BenchError(f"no skewcodes sources under {SRC}")
    os.environ.pop("SKEWCODES_BUDGET", None)
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchError("src/ does not byte-compile")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    rounds, warmups = workloads.generate(args.workload, args.seed, load_json("decomposition_seeds.json")["band"])
    generation_s = time.perf_counter() - start
    job = {
        "workload": args.workload, "src": str(SRC), "warmups": warmups, "rounds": rounds,
        "seconds": args.seconds, "min_rounds": MIN_ROUNDS, "trace": bool(args.trace),
        "reference": reference_for(args.workload, args.seed, rounds),
    }
    before, after = (0, 0) if args.trace else SETUP_PROCESSES
    setups = [spawn(job, deadline, "--setup-only") for _ in range(before)]
    result = spawn(job, deadline)
    setups.append(result)
    setups += [spawn(job, deadline, "--setup-only") for _ in range(after)]
    setup_samples = [s["setup_s"] for s in setups]

    attempted, failed = result["attempted"], result["failed"]
    reasons = list(result["failures"])
    raw = per_stratum(rounds, result["latencies_s"])
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **environment(),
        "generation_s": generation_s,
        "setup_samples_s": setup_samples,
        "rounds": len(result["round_s"]),
        "rounds_generated": len(rounds),
        "rounds_exhausted": result["rounds_exhausted"],
        "latency_samples": len(result["latencies_s"]),
        "strata": len(raw),
        "strata_above_p90": sum(x > statistics.quantiles(raw, n=10)[8] for x in raw),
        "failed_ratio": failed / attempted,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        units = {name: unit for name, unit, *_ in (*tracer.METRICS, tracer.OVERHEAD)}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
        reasons += [f"trace incomplete: {gap}" for gap in result["trace_gaps"]]
        info["trace_overhead_ratio"] = result["per_layer"]["trace.overhead_ratio"]
        table = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        table.write_text(json.dumps(result["trace_table"], indent=1))
        info["trace_table"] = str(table.relative_to(ROOT))
    else:
        slow = slowdowns(result)
        setup_slowdowns = [s["setup_probe_s"] / calibrate.REFERENCE_S for s in setups]
        values = {
            **timings(per_stratum(rounds, [x / f for x, f in zip(result["latencies_s"], slow)])),
            "setup_s": statistics.median(x / f for x, f in zip(setup_samples, setup_slowdowns)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        info["slowdown_median"] = statistics.median(slow)
        info["setup_slowdowns"] = setup_slowdowns
        info["uncorrected"] = {**timings(raw), "setup_s": statistics.median(setup_samples)}
    info["failures"] = reasons
    samples = OUT / f"samples-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples.write_text(json.dumps({
        "setup_s": setup_samples, "setup_probe_s": [s.get("setup_probe_s") for s in setups],
        "round_s": result["round_s"], "started_s": result["started_s"],
        "latencies_s": result["latencies_s"], "probes_s": result["probes_s"],
        "strata": [[req["stratum"] for req in reqs] for reqs in rounds[:len(result["round_s"])]],
    }))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not reasons, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run makes it kill and reap the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
