"""One workload in a process of its own: set up, timed passes, output checks.

Started by ``run.py``.  It prints ``READY`` once the workload is set up
(``kz_padic`` imported, inputs built), so the parent can time the set-up
from the moment it started the process.  With ``--setup-only`` it stops
there.  Otherwise it runs whole passes until the next one would end after
``--seconds``, checks the last pass's outputs, and prints one JSON line.
With ``--trace 1`` every call into a layer is recorded as a span; the spans
go to ``perfbench/traces/`` and the JSON line carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM, Linux), in MB.

    VmHWM belongs to the process's own address space; ``ru_maxrss`` can also
    carry the parent's peak across the fork and exec that started it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import kz_padic

    if not Path(kz_padic.__file__).resolve().is_relative_to(SRC):
        print(f"worker: kz_padic imported from {kz_padic.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        times, layers, recorded = [], [], []
        attempted = failed = 0
        failed_ops = set()
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.take()
            t0 = time.perf_counter()
            ops = workload.run_pass()
            took = time.perf_counter() - t0
            times.append(took)
            attempted += len(ops)
            failed += sum(not ok for ok in ops.values())
            failed_ops.update(op for op, ok in ops.items() if not ok)
            if tracer is not None:
                pass_spans = tracer.take()
                layers.append(spans.layer_metrics(pass_spans, workload.artifact_bytes))
                recorded.append([span.to_json() for span in pass_spans])
            if time.perf_counter() - start + took > args.seconds:
                break
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "pass_s": times,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": sorted(failed_ops),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = {name: statistics.median(m[name] for m in layers)
                            for name in spans.PER_LAYER}
        out = ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "pass_s": times, "layers_per_pass": layers,
            "span_fields": ["id", "parent", "name", "op", "start", "end", "attrs"],
            "spans_per_pass": recorded,
        }))
        result["trace_file"] = str(out.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
