"""floydlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client. A pass runs the workload's CLI jobs back
to back in a fresh worker process (perfbench/worker.py); passes follow each
other until the next one would overrun --seconds, with at least three.
With --trace 0 every pass is untraced and the end-to-end metrics are medians
over passes. With --trace 1 traced and untraced passes alternate, traced
first; the per-layer metrics are medians over the traced passes, and
trace.overhead_s is the traced minus the untraced median wall time.

A job fails when it raises, exits non-zero, fails its result check, differs
from the stored seed-0 digest (seed 0 only), or differs from the same job in
an earlier pass of this run. Exact counters must repeat between traced
passes. Human-readable lines come first; the last stdout line is the JSON
result. --smoke runs the tiny-radius variants of the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
PASS_TIMEOUT_S = 50  # a pass takes 3-10 s; three stuck passes still end a run within 180 s


class HarnessError(RuntimeError):
    pass


def declared_metrics() -> dict[str, dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def spawn_pass(name: str, seed: int, traced: bool, smoke: bool,
               workdir: Path) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, str(seed),
         str(int(traced)), str(int(smoke)), str(workdir), repr(spawned)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["elapsed"] = time.monotonic() - spawned
    return result


def run_passes(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool, workdir: Path) -> list[dict]:
    kinds = itertools.cycle([True, False] if trace else [False])
    start = time.monotonic()
    passes: list[dict] = []
    while (len(passes) < 3
           or time.monotonic() - start
           + statistics.median(p["elapsed"] for p in passes) <= seconds):
        passes.append(spawn_pass(name, seed, next(kinds), smoke, workdir))
    return passes


def judge(passes: list[dict], reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every pass."""
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    for i, p in enumerate(passes):
        for job in p["jobs"]:
            attempted += 1
            out, digest, problem = job["out"], job["sha256"], job["problem"]
            if problem is None and reference and reference.get(out) != digest:
                problem = "sha256 differs from the stored seed-0 digest"
            if problem is None and first.setdefault(out, digest) != digest:
                problem = "result differs from an earlier pass of this seed"
            if problem is not None:
                failed += 1
                problems.append(f"pass {i} {'traced' if p['traced'] else 'untraced'} "
                                f"{out}: {problem}")
    traced = [p["layers"] for p in passes if p["traced"]]
    for key in EXACT_COUNTERS if traced else ():
        values = {t[key] for t in traced}
        if len(values) > 1:
            problems.append(f"counter {key} varies between traced passes: "
                            f"{sorted(values)}")
    return attempted, failed, problems


def summarize(passes: list[dict], trace: bool) -> dict[str, float]:
    """Metric name -> value, end-to-end without trace, per-layer with it."""
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        return {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
    traced = [p for p in passes if p["traced"]]
    metrics = {k: statistics.median(p["layers"][k] for p in traced)
               for k in traced[0]["layers"]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        p["wall_s"] for p in plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny radii: checks the harness, not the program")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's seed-0 result digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "floydlab" / "__init__.py").is_file():
        print(f"perfbench: no floydlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import SMOKE, WORKLOADS

    if args.workload not in (SMOKE if args.smoke else WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    reference = ({} if args.smoke or args.seed != 0 or args.record_digests
                 else stored.get(args.workload, {}))
    if args.seed == 0 and not args.smoke and not args.record_digests and not reference:
        print(f"perfbench: no stored digests for {args.workload}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.smoke, workdir)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            workdir.parent.rmdir()

    attempted, failed, problems = judge(passes, reference)
    metrics = summarize(passes, bool(args.trace))
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    bad = [k for k, v in metrics.items() if not NAME.fullmatch(k) or not math.isfinite(v)]
    if bad:
        print(f"perfbench: malformed metrics {bad}", file=sys.stderr)
        return 2
    if args.record_digests and not problems:
        stored[args.workload] = {j["out"]: j["sha256"] for j in passes[0]["jobs"]}
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")

    n_traced = sum(p["traced"] for p in passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"({n_traced} traced), {attempted} jobs attempted, {failed} failed, "
          f"failed_frac {failed / attempted:g}")
    for line in problems:
        print(f"  FAIL {line}")
    for kind, group in (("untraced", False), ("traced", True)):
        walls = [f"{p['wall_s']:.3f}" for p in passes if p["traced"] == group]
        if walls:
            print(f"  {kind} pass wall_s: {' '.join(walls)}")
    if args.trace:
        for line in next(p for p in passes if p["traced"])["labels"]:
            print(f"  {line}")
    for name in declared:
        print(f"  {name:34s} {metrics[name]:14.6g} {declared[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
