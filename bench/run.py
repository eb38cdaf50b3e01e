"""chargraph benchmark: runs one workload for a fixed time and prints its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 58 --trace 0

Each pass of the workload runs in a fresh worker interpreter (bench/worker.py),
one after another, until the time is used; a pass is not started when the
previous one says it would overrun.  Operations inside a pass form a closed
loop: the next is issued only when the previous one returned.  An operation's
time is its median over the workers that ran it.  Set-up is timed in every
untraced pass, up to its `ready` line.  Every output is checked by
bench/checks.py, and its digest must repeat across passes and across runs of
the same code.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of traced
passes, run alternately with untraced ones so that the tracing overhead can be
measured.  Details (tail percentile, failures by reason, every per-layer
metric) go to stderr and to .bench_out/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

# set-up samples per run at least; workers that prepare every input and run
# nothing make up any the passes did not give
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

# failures expected at the parent commit, each a known defect
KNOWN_DEFECTS = {
    ("catalog", "OutOfRange"): "sweep factors 2^(2a)-1 whole, past the 2^96 factoring range at a >= 49",
    ("analyze", "exit 3"): "check_n_exact rejects graphs over 25 vertices before the clique test",
}


def run_worker(workload: str, seed: int, mode: str, span_file: Path | None = None):
    """Run one worker; return (seconds until its inputs were ready, its wall time, its report)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, str(OUT)]
    if span_file is not None:
        cmd += ["--spans", str(span_file)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall_s = time.perf_counter() - start
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {mode} for {workload} failed with exit code {code}")
    return setup_s, wall_s, json.loads(rest) if rest else None


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Outputs:
    """Checks each distinct output once, and tracks output digests per operation."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.ops = {op.id: op for op in workloads.operations(workload, seed)}
        self.verdicts: dict[tuple[str, str], str | None] = {}
        self.digests: dict[str, set[str]] = collections.defaultdict(set)

    def add(self, report: dict) -> None:
        """Check a pass's outputs, then drop them to keep this process small."""
        for entry in report["ops"]:
            if entry["status"] != "ok":
                continue
            output = entry.pop("output")
            key = (entry["id"], entry["digest"])
            if key not in self.verdicts:
                self.verdicts[key] = checks.problem(self.ops[entry["id"]], output)
            self.digests[entry["id"]].add(entry["digest"])

    def finish(self) -> None:
        """Compare digests with earlier runs of the same code, then record them."""
        store = OUT / "digests" / f"{self.workload}-seed{self.seed}-{code_digest()}.json"
        earlier = json.loads(store.read_text()) if store.exists() else {}
        for op_id, seen in self.digests.items():
            if len(seen | {earlier.get(op_id, min(seen))}) > 1:
                for digest in seen:
                    self.verdicts[(op_id, digest)] = "output differs between runs of the same code"
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({**earlier, **{k: min(v) for k, v in self.digests.items()}}, sort_keys=True))

    def status(self, entry: dict) -> str:
        if entry["status"] == "ok" and self.verdicts[(entry["id"], entry["digest"])]:
            return "wrong output"
        return entry["status"]

    def problems(self) -> list[str]:
        return sorted(f"{op_id}: {problem}" for (op_id, _), problem in self.verdicts.items() if problem)


def op_numbers(reports: list[dict], deadline_s: float, status_of=lambda entry: entry["status"]) -> dict:
    """End-to-end numbers over operations, each timed by its median over the
    workers that ran it; an operation that failed in any worker counts as failed."""
    samples: dict[str, list[float]] = collections.defaultdict(list)
    status: dict[str, str] = {}
    for report in reports:
        for entry in report["ops"]:
            samples[entry["id"]].append(entry["elapsed_s"])
            if status.get(entry["id"], "ok") == "ok":
                status[entry["id"]] = status_of(entry)
    charged = [metrics.charged_s(metrics.median(samples[i]), status[i], deadline_s) for i in samples]
    value, percentile, count = metrics.tail(charged)
    return {
        "total_s": sum(charged),
        "op_p50_ms": metrics.median(charged) * 1000,
        "op_tail_ms": value * 1000,
        "op_tail_percentile": percentile,
        "operations": count,
        "failures": dict(collections.Counter(s for s in status.values() if s != "ok")),
        "peak_rss_mb": metrics.median([r["rss_mb"] for r in reports]),
    }


def _terminate(signum, frame):
    # unwinds through run_worker, which stops the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chargraph" / "__init__.py").is_file():
        print(f"error: no chargraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline_s = workloads.DEADLINE_S[args.workload]
    outputs = Outputs(args.workload, args.seed)
    modes = ["pass", "traced"] if args.trace else ["pass"]
    runs: dict[str, list[dict]] = {"pass": [], "traced": []}
    setups: list[float] = []
    began = time.perf_counter()
    while True:
        mode = modes[sum(map(len, runs.values())) % len(modes)]
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if mode == "traced" and not runs["traced"] else None
        setup_s, wall_s, report = run_worker(args.workload, args.seed, mode, span_file)
        if mode == "pass":  # an untraced pass sets up exactly as a set-up worker does
            setups.append(setup_s)
        outputs.add(report)
        runs[mode].append(report)
        if all(runs[m] for m in modes) and time.perf_counter() - began + wall_s > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, args.seed, "setup")[0])
    outputs.finish()

    numbers = op_numbers(runs["pass"], deadline_s, outputs.status)
    statuses = collections.Counter(outputs.status(e) for r in runs["pass"] + runs["traced"] for e in r["ops"])
    attempted = sum(statuses.values())
    failed = attempted - statuses.pop("ok", 0)
    layers = {}
    if args.trace:
        reports = runs["traced"]
        layers = {name: metrics.median([r["layers"][name] for r in reports]) for name in reports[0]["layers"]}
        raw = {m: metrics.median([sum(e["elapsed_s"] for e in r["ops"]) for r in runs[m]]) for m in modes}
        layers["trace.overhead_s"] = raw["traced"] - raw["pass"]
        chosen, values = declared["per_layer"], layers
    else:
        chosen, values = declared["end_to_end"], {**numbers, "setup_s": metrics.median(setups)}
    failed_ops = sum(numbers["failures"].values())

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": {mode: len(reports) for mode, reports in runs.items()},
        "deadline_s": deadline_s,
        "end_to_end": {**numbers, "setup_s": metrics.median(setups)},
        "failed_share": {"value": failed_ops / numbers["operations"], "failed": failed_ops, "attempted": numbers["operations"]},
        "failures": {
            reason: {"count": count, "known_defect": KNOWN_DEFECTS.get((args.workload, reason), "UNEXPECTED")}
            for reason, count in sorted(numbers["failures"].items())
        },
        "problems": outputs.problems(),
        "per_layer": layers,
        "setup_samples_s": setups,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail, indent=1), file=sys.stderr)
    result = {
        "correct": not detail["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
