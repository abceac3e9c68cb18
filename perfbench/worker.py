"""One pass of a workload in a fresh process: set up, run the jobs, check.

    python3 perfbench/worker.py WORKLOAD SEED TRACED SMOKE WORKDIR SPAWNED

SPAWNED is the parent's time.monotonic() reading just before it started this
process, so set-up time counts interpreter start, the numpy/scipy/floydlab
imports and writing the input files. The jobs run back to back through
floydlab.cli.main in this process; the last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics, lower_bound_labels
from workloads import SMOKE, WORKLOADS, write_structures

ROOT = Path(__file__).resolve().parents[1]


def load_cli():
    """Import floydlab from this checkout's src/ (never from elsewhere)."""
    src = (ROOT / "src").resolve()
    if not (src / "floydlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no floydlab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from floydlab import cli

    if Path(cli.__file__).resolve().parent != src / "floydlab":
        raise SystemExit(f"perfbench: floydlab imported from {cli.__file__}")
    return cli


def run_pass(cli, workload, seed: int, traced: bool) -> dict:
    """Run every job of `workload` in the current directory, then check the
    result files. Timing covers the jobs only."""
    tracer = Tracer() if traced else None
    runs = []
    if tracer is not None:
        tracer.install()
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for job in workload.jobs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(job.command(seed))
                crash = None
            except SystemExit as exc:
                rc, crash = exc.code, None
            except Exception:  # a crashing job is a failed job, not a dead run
                rc, crash = None, traceback.format_exc(limit=3)
            runs.append((rc, crash, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()

    jobs = []
    for job, (rc, crash, stdout, stderr) in zip(workload.jobs, runs):
        digest, problem = None, crash
        if problem is None and rc != job.rc:
            problem = f"exit code {rc}: {stderr.strip()[-300:]}"
        if problem is None:
            try:
                data = Path(job.out).read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                problem = job.check(data.decode("utf-8"), stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable result: {exc!r}"
        jobs.append({"out": job.out, "rc": rc, "sha256": digest, "problem": problem})

    result = {"wall_s": wall, "cpu_s": cpu, "jobs": jobs}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        result["labels"] = lower_bound_labels(tracer.spans)
    return result


def main(argv: list[str]) -> int:
    name, seed, traced, smoke, workdir, spawned = argv
    cli = load_cli()
    workload = (SMOKE if smoke == "1" else WORKLOADS)[name]
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    write_structures(workload.structures)
    setup_s = time.monotonic() - float(spawned)
    result = run_pass(cli, workload, int(seed), traced == "1")
    result["setup_s"] = setup_s
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
