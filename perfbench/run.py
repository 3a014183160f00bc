#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the staircase-sums CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload partition --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process is one closed-loop client: it replays the workload's seeded
request list in-process through ``staircase_sums.cli.main(argv)`` with stdout
captured, sending each request only after the previous one returned, pass
after pass, until ``--seconds`` of call time are spent.  Every reply is
checked against an answer the harness knows on its own (see
``workloads.py``); checks run outside the timed region.

Each call is timed together with a short reference loop just before and just
after it, and its time is scaled to the nominal speed of that loop.  The
machine the benchmark was tuned on shares its CPUs and changes speed by up to
half for tens of seconds at a time; scaling keeps those changes out of the
figures, and the record keeps the unscaled call time as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead and the kernel cases.  Either way the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record goes to ``perfbench/results/``.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("partition", "partition-trace", "census", "runs")
SETUP_SAMPLES = 15
SETUP_CODE = "import sys; from staircase_sums.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_ARGV = ("runs", "1", "--json", "--no-timing")
TAIL_BEYOND = 10
# the reference loop's time on the machine the benchmark was tuned on, a
# 2-vCPU Xeon VM with Python 3.11; scaled times there read close to wall time
REFERENCE_NOMINAL_S = 50e-6
REFERENCE_VALUE = 10**12 + 39
MIN_PASSES = 3
MAX_EXAMPLES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Replay:
    """Latencies and failures of whole passes over a workload's request list."""

    size: int  # requests in the list
    passes: list[list[float]] = field(default_factory=list)  # scaled seconds, in list order
    wall: float = 0.0  # unscaled seconds spent in calls
    references: list[float] = field(default_factory=list)  # reference loop times, seconds
    failed: int = 0
    wrong: int = 0  # failures where the program gave a wrong answer
    failures: dict[str, int] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)
    verdicts: dict[int, tuple[bytes, str | None]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.size * len(self.passes)

    def typical(self) -> list[float]:
        """Each request's median scaled latency over the passes, in seconds."""
        return [statistics.median(column) for column in zip(*self.passes)]

    def fail(self, argv: tuple[str, ...], reason: str, kind: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(f"{' '.join(argv)}: {reason}")

    def check(self, index: int, request, text: str) -> str | None:
        """The request's check on this reply; a reply equal to one checked before keeps its verdict."""
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        known = self.verdicts.get(index)
        if known is None or known[0] != digest:
            known = self.verdicts[index] = (digest, request.check(text))
        return known[1]


def reference_s() -> float:
    """Least of three timings of a fixed pure-Python loop.

    It mixes the program's two kinds of work, object churn (dicts, lists,
    strings) and arithmetic on 64-bit values, because a slowed machine slows
    them by different amounts.
    """
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        table, parts = {}, []
        for i in range(1, 201):
            table[i] = REFERENCE_VALUE % i
            parts.append(str(i))
        len(",".join(parts)) + sum(table.values())
        best = min(best, perf_counter() - started)
    return best


def scaled(elapsed: float, before: float, after: float) -> float:
    """Elapsed time at nominal machine speed, from the reference loop timed around it."""
    return elapsed * REFERENCE_NOMINAL_S * 2.0 / (before + after)


def run_pass(requests, main, result: Replay, tracer=None) -> None:
    """Send every request of the list once, in order, each after the previous returned."""
    latencies = []
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = result.attempted + index + 1
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        before = reference_s()
        result.references.append(before)
        started = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(request.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this request, not the run
            code, escaped = None, exc
        elapsed = perf_counter() - started
        latencies.append(scaled(elapsed, before, reference_s()))
        result.wall += elapsed
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(text.encode())
        if escaped is not None:
            kind = f"{type(escaped).__name__} escaped main"
            result.fail(request.argv, kind, kind, wrong=False)
        elif code == 2:
            result.fail(request.argv, err.getvalue().strip()[:200], "refused (exit 2)",
                        wrong=False)
        elif code != 0:
            result.fail(request.argv, f"exit {code}", f"exit {code}", wrong=True)
        else:
            error = result.check(index, request, text)
            if error:
                result.fail(request.argv, error, "wrong reply", wrong=True)
    result.passes.append(latencies)


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND values beyond it, and that percentile."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def measure_setup(check) -> tuple[list[float], list[str]]:
    """Scaled wall times of fresh interpreters answering one small request, and any failures."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times, errors = [], []
    # the first start may compile bytecode, which an installed package has done already
    for sample in range(SETUP_SAMPLES + 1):
        before = reference_s()
        started = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *SETUP_ARGV], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = scaled(perf_counter() - started, before, reference_s())
        error = f"exit {proc.returncode}: {proc.stderr[-200:]}" if proc.returncode else check(
            proc.stdout)
        if error:
            errors.append(error)
        if sample:
            times.append(elapsed)
    return times, errors


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(backend: str, args: argparse.Namespace) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "kernel_backend": backend,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str, samples: list[float] | None = None, **extra) -> dict:
    entry = {"value": value, "unit": unit, "samples": len(samples) if samples else 1}
    entry.update(quartiles(samples) if samples else {"median": value, "q1": value, "q3": value})
    entry.update(extra)
    return entry


def import_program():
    """Import the program from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "staircase_sums" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'staircase_sums'}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import staircase_sums
    from staircase_sums import cli, construct, oracle, render, runs

    if Path(staircase_sums.__file__).resolve().parent != (SRC / "staircase_sums").resolve():
        print(f"error: imported staircase_sums from {staircase_sums.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    modules = {"cli": cli, "construct": construct, "oracle": oracle, "render": render,
               "runs": runs, "kernels": getattr(runs, "kernels", None)}
    return staircase_sums, modules


def run_untraced(args, workloads, main) -> tuple[dict, Replay, dict]:
    setup_times, setup_errors = measure_setup(workloads.runs_request(1, {}).check)
    warm_up(main)
    requests = workloads.WORKLOADS[args.workload](args.seed)
    result = Replay(len(requests))
    while result.wall < args.seconds or len(result.passes) < MIN_PASSES:
        run_pass(requests, main, result)
    typical_ms = [t * 1000.0 for t in result.typical()]
    tail_ms, tail_pct = tail(typical_ms)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s", setup_times),
        "calls_per_s": metric(1000.0 * len(typical_ms) / sum(typical_ms), "1/s", None,
                              requests=len(typical_ms), passes=len(result.passes)),
        "call_p50_ms": metric(statistics.median(typical_ms), "ms", typical_ms),
        "call_tail_ms": metric(tail_ms, "ms", typical_ms, percentile=tail_pct,
                               calls_beyond=TAIL_BEYOND),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    extra = {"setup_errors": setup_errors[:MAX_EXAMPLES],
             "failed_frac": result.failed / result.attempted,
             "wall_s": result.wall,
             "wall_calls_per_s": result.attempted / result.wall,
             "reference_median_s": statistics.median(result.references),
             "reference_nominal_s": REFERENCE_NOMINAL_S}
    return metrics, result, extra


def warm_up(main) -> None:
    """One untimed call, so that lazy imports and caches are ready before timing."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(list(SETUP_ARGV))


def run_traced(args, workloads, main, modules) -> tuple[dict, Replay, dict]:
    import lanes
    import tracing

    kernel_cases = lanes.time_cases()
    parity, parity_details = lanes.lane_parity()
    warm_up(main)
    requests = workloads.WORKLOADS[args.workload](args.seed)
    plain, traced = Replay(len(requests)), Replay(len(requests))
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    # alternate untraced and traced passes, so that both see the same machine
    while plain.wall + traced.wall < args.seconds or len(traced.passes) < MIN_PASSES:
        run_pass(requests, main, plain)
        tracing.install(tracer, modules)
        try:
            run_pass(requests, traced_main, traced, tracer)
        finally:
            tracer.restore()
    layers, residual_ns = tracing.layer_metrics(tracer, traced.attempted)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write(spans_path)

    metrics = {}
    for name, value in layers.items():
        unit = "ms" if name.endswith("ms") else "bytes" if name.endswith("bytes") else "count"
        metrics[name] = metric(value, unit, None, per="request", requests=traced.attempted)
    traced_cps = len(requests) / sum(traced.typical())
    plain_cps = len(requests) / sum(plain.typical())
    metrics["trace.calls_per_s"] = metric(traced_cps, "1/s")
    metrics["trace.untraced_calls_per_s"] = metric(plain_cps, "1/s")
    metrics["trace.calls_per_s_ratio"] = metric(traced_cps / plain_cps, "ratio")
    for name, value in kernel_cases.items():
        metrics[name] = metric(value, "ms")
    extra = {
        "lane_parity": parity,
        "lane_parity_details": parity_details,
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans) // tracing.FIELDS,
        "self_times_add_up": residual_ns == 0,
        "self_time_residual_ns": residual_ns,
        "untraced_failed": plain.failed,
        "failed_frac": traced.failed / traced.attempted,
    }
    if parity == "mismatch":
        traced.wrong += 1
    return metrics, traced, extra


def run_one(args) -> int:
    package, modules = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    main = modules["cli"].main
    if args.trace:
        metrics, result, extra = run_traced(args, workloads, main, modules)
    else:
        metrics, result, extra = run_untraced(args, workloads, main)
    correct = result.wrong == 0 and not extra.get("setup_errors") and extra.get(
        "self_times_add_up", True)
    record = {
        "machine": machine(getattr(package, "kernel_backend", "unknown"), args),
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "passes": len(result.passes),
        "failures": result.failures,
        "failure_examples": result.examples,
        **extra,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {record['machine']['kernel_backend']}  passes {len(result.passes)}  "
          f"calls {record['attempted']}  failed {result.failed} "
          f"(failed_frac {extra['failed_frac']:.4f})  correct {correct}")
    for kind, number in result.failures.items():
        print(f"  failures: {number} x {kind}")
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": result.failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; prints one table."""
    rows, status = [], 0
    for workload in WORKLOAD_NAMES:
        row = {"workload": workload}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                break
            result = json.loads(lines[-1])
            status |= not result["correct"]
            row[f"trace{trace}"] = result
        rows.append(row)

    header = ["workload"] + [f"{name} ({unit})" for name, unit in END_TO_END_UNITS.items()]
    header += ["failed_frac", "trace cps ratio", "correct"]
    print("  ".join(f"{h:>18}" for h in header))
    for row in rows:
        if "trace1" not in row:
            continue
        plain, traced = row["trace0"], row["trace1"]
        cells = [row["workload"]]
        cells += [f"{plain['metrics'][name]['value']:.6g}" for name in END_TO_END_UNITS]
        cells.append(f"{plain['failed'] / plain['attempted']:.4f}")
        cells.append(f"{traced['metrics']['trace.calls_per_s_ratio']['value']:.3f}")
        cells.append(str(plain["correct"] and traced["correct"]))
        print("  ".join(f"{c:>18}" for c in cells))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
