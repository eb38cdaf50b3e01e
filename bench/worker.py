"""One pass of a workload in a fresh interpreter, so caches start cold.

    python3 bench/worker.py <workload> <seed> <setup|pass|traced> <out_dir> [--spans FILE]

Imports chargraph and prepares the inputs, then prints `ready`.  In `setup`
mode it stops there.  Otherwise it runs the operations one at a time, each
under its deadline, and prints one JSON line with each operation's time, status, output
digest and output, the process's peak RSS and, in `traced` mode, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


class Deadline(BaseException):
    """Raised in the running operation when its deadline passes.  A
    BaseException, so that no `except Exception` in the code under test
    swallows it."""


def _on_alarm(signum, frame):
    raise Deadline


def peak_rss_mb() -> float:
    """Peak resident set of this process.  On Linux ru_maxrss also counts the
    parent's pages at fork time, so VmHWM of the exec'd image is read instead."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(prepared, op, deadline: float):
    """Run op once under its deadline: (output, status, seconds)."""
    import workloads

    output, status = None, "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            output = workloads.run_op(prepared, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status = "deadline"
    except workloads.CliExit as exc:
        status = str(exc)
    except Exception as exc:  # any raise is a charged failure, named by its type
        status = type(exc).__name__
    return output, status, time.perf_counter() - start


def run_pass(workload: str, seed: int, traced: bool, out_dir: Path, span_file: Path | None = None, keep=None) -> dict:
    """Prepare and run one pass; `keep`, when given, names the only operations to run."""
    import chargraph  # noqa: F401  (importing is part of set-up)
    import chargraph.cli  # noqa: F401

    import workloads

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    prepared = workloads.Prepared(workload, seed, out_dir / f"docs-{workload}-{seed}", keep)
    print("ready", flush=True)
    deadline = workloads.DEADLINE_S[workload]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    results, models_swept = [], 0
    try:
        for op in prepared.ops:
            output, status, elapsed = _timed(prepared, op, deadline)
            if tracer is not None:
                tracer.end_op()
            entry = {"id": op.id, "elapsed_s": elapsed, "status": status}
            if status == "ok":
                text = json.dumps(output, sort_keys=True)
                entry["digest"] = hashlib.sha256(text.encode()).hexdigest()
                entry["output"] = output
                if op.kind == "sweep":
                    models_swept += sum(r["check"] == "order_bound" for r in output)
            results.append(entry)
    finally:
        signal.signal(signal.SIGALRM, previous)
    report = {"ops": results, "rss_mb": peak_rss_mb()}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(models_swept)
        if span_file is not None:
            tracer.write_spans(span_file)
    return report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "pass", "traced"))
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--spans", type=Path, default=None, help="file for the traced pass's spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        import chargraph.cli  # noqa: F401

        import workloads

        workloads.Prepared(args.workload, args.seed, args.out_dir / f"docs-{args.workload}-{args.seed}")
        print("ready", flush=True)
        return 0
    report = run_pass(args.workload, args.seed, args.mode == "traced", args.out_dir, args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
