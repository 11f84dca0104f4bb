"""Smoke test of the benchmark itself (about three minutes).

    python3 perfbench/smoke.py

1. A short run of every workload prints every end-to-end metric of
   BENCHMARK.json with its unit, is correct and has failed_ratio 0.
2. A short traced run of every workload prints every per-layer metric with
   its unit, and the trace is complete.
3. A copy of the benchmark with one reference digest corrupted reports
   failed requests and correct = false.
4. A copy with no sources exits non-zero without printing a result.

The copies live under perfbench/out/ and are removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), lines, proc.stderr


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    return ok


def copy_bench(name, with_src):
    target = OUT / name
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(HERE, target / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", target)
    if with_src:
        shutil.copytree(ROOT / "src", target / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return target


def main():
    good = True
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            rc, result, lines, err = bench(ROOT, workload, trace)
            if not expect(rc == 0 and result is not None, f"{workload} trace={trace} exits 0 with a result"):
                print(err[-2000:])
                good = False
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            info = json.loads(lines[-2])["info"]
            for name, value in sorted(result["metrics"].items()):
                print(f"      {name} = {value['value']:.6g} {value['unit']}")
            good &= expect(got == wanted, f"{workload} trace={trace} prints every {key} metric with its unit")
            good &= expect(result["correct"] and result["failed"] == 0 and info["failed_ratio"] == 0,
                           f"{workload} trace={trace} is correct with failed_ratio 0 {info['failures']}")

    corrupt = copy_bench("smoke-corrupt", with_src=True)
    ref_path = corrupt / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["workloads"]["audit"]["stdout_digests"][0][0] = "0" * 16
    ref_path.write_text(json.dumps(ref))
    rc, result, lines, err = bench(corrupt, "audit", 0)
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    good &= expect(rc == 0 and result is not None and result["failed"] > 0 and not result["correct"]
                   and info.get("failed_ratio", 0) > 0,
                   f"a corrupted reference digest makes failed_ratio > 0 ({info.get('failed_ratio')})")

    bare = copy_bench("smoke-bare", with_src=False)
    rc, result, lines, err = bench(bare, "audit", 0)
    good &= expect(rc != 0 and not lines, f"without sources it exits {rc} and prints no result")

    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.rmtree(bare, ignore_errors=True)
    print("smoke test " + ("passed" if good else "FAILED"))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
