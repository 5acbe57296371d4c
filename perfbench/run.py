"""Benchmark of kz-padic: one workload, its end-to-end or its per-layer metrics.

    python3 perfbench/run.py --workload grid-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
``run_s`` (median wall time of a pass), ``peak_rss_mb`` (peak resident
memory of the workload's process) and ``setup_s`` (median, over several
fresh processes, of the time from starting the process to the first timed
call).  With ``--trace 1`` it carries the per-layer metrics of a traced run
instead.  ``correct`` says whether every output checked out against the
independent computations; ``attempted``/``failed`` count operations.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("grid-verify", "grid-oracle", "padic-converge")
SETUP_PROBES = 4        # set-up-only processes before and again after the measured one
TIME_LIMIT = 170.0      # seconds for the whole run, processes included


class WorkerError(RuntimeError):
    pass


def spawn(cmd: list, deadline: float) -> tuple:
    """Start a worker; return (seconds until it printed READY, its later stdout)."""
    t0 = time.perf_counter()
    # Unbuffered, so reading the READY line takes nothing more from the pipe.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"READY":
            raise WorkerError(f"worker did not get ready: {line.strip()!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return setup, out.decode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kz_padic" / "__init__.py").is_file():
        print(f"run.py: no kz_padic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    # -B: no bytecode is written, so every process compiles the package from
    # source, as the first run in a fresh checkout does.
    cmd = [sys.executable, "-B", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probes = 0 if args.trace else SETUP_PROBES
    try:
        # Probes on both sides of the measured process spread the set-up
        # samples over the run, so one slow moment of the host moves few.
        setups = [spawn(cmd + ["--setup-only"], deadline)[0] for _ in range(probes)]
        setup, out = spawn(cmd, deadline)
        setups += [setup] + [spawn(cmd + ["--setup-only"], deadline)[0] for _ in range(probes)]
        worker = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for op in worker["failed_ops"]:
        print(f"failed: {op}", file=sys.stderr)
    for problem in worker["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    run_s = statistics.median(worker["pass_s"])
    print(f"{args.workload}: {len(worker['pass_s'])} passes, run_s {run_s:.3f} s"
          + (f", trace in {worker['trace_file']}" if args.trace else ""), file=sys.stderr)

    if args.trace:
        from spans import PER_LAYER
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"correct": not worker["problems"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
