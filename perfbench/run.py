#!/usr/bin/env python3
"""End-to-end benchmark of `evasion check`, with a traced per-layer run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload pulsing --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all     # every workload, one table

One client, one process, no threads: checks run back to back through the
in-process `evasion.cli.main(["check", <scene file>])`. Before every timed
check both scene caches of the program are cleared. Every report is then
re-verified outside the timed region (verdict, witness, certificate, path);
a check that fails counts in `failed` and never stops the run.

With `--trace 0` the last line carries the end-to-end metrics:
check_s (median of one check), check_p90_s, scenes_per_s (checks per second
of checking), peak_rss_mb and setup_s (import, scene generation, file
writing and expected verdicts; the median of several set-ups). Times are
rescaled to a reference machine speed, measured while they run (speed.py);
the raw median check time is printed beside them.

With `--trace 1` the run has a traced phase, then an untraced one, each for
half the time. It reports per-layer times (rescaled seconds per traced
check, see tracing.py), the counts of the first pass over the inputs, the
mean traced check time, and the tracing overhead (mean traced minus mean
untraced check time). The spans go to perfbench/_work/<workload>/spans.jsonl.

The line before the last one holds the failed ratio and a sha256 over the
first pass's reports with `timing_ms` removed, so a change in report bytes
shows; it is informational, not a gate.

The benchmark's own test: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from program import ProgramMissing, load_program
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, OutputCheck, Workload

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "_work"
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
E2E_UNITS = {"check_s": "s", "check_p90_s": "s", "scenes_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Phase:
    """Timed checks of one phase of a run."""

    timings: list[tuple[float, float, float]] = field(default_factory=list)  # start, end, own time
    failed: int = 0
    digest: object = field(default_factory=hashlib.sha256)


def set_up(name: str, seed: int, probe: SpeedProbe):
    """Import the program and make the workload's inputs, at least
    SETUP_REPEATS times and for at least SETUP_SECONDS; returns the last
    set-up and the timings of all of them."""
    times = []
    while len(times) < SETUP_REPEATS or (perf_counter() - times[0][0] < SETUP_SECONDS and len(times) < 50):
        busy, t0 = probe.busy, perf_counter()
        prog = load_program()
        workload = Workload(name, prog, seed, WORKDIR / name)
        t1 = perf_counter()
        times.append((t0, t1, t1 - t0 - (probe.busy - busy)))
    return prog, workload, times


def run_phase(prog, workload: Workload, checker: OutputCheck, probe: SpeedProbe, first: int,
              seconds: float, tracer: Tracer | None = None) -> Phase:
    """Check samples first, first+1, ... for `seconds`, and at least one pass.

    Samples below `pass_len` form the first pass: their reports feed the
    digest and, when traced, the counts."""
    phase = Phase()
    main = prog.cli.main
    start = perf_counter()
    i = first
    while i - first < workload.pass_len or perf_counter() - start < seconds:
        sample = workload.sample(i)
        argv = ["check", str(sample.path)]
        out = io.StringIO()
        first_pass = i < workload.pass_len
        if tracer is not None:
            tracer.counting = first_pass
        workload.clear_caches()
        try:
            with contextlib.redirect_stdout(out):
                busy, t0 = probe.busy, perf_counter()
                code = tracer.check(i, lambda: main(argv)) if tracer is not None else main(argv)
                t1 = perf_counter()
                phase.timings.append((t0, t1, t1 - t0 - (probe.busy - busy)))
        except Exception:  # a crash is a failed check, not the end of the run
            traceback.print_exc(file=sys.stderr)
            phase.failed += 1
            i += 1
            continue
        text = out.getvalue()
        try:
            problem = checker.problem(sample, code, text)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed report: {exc!r}"
        if problem is not None:
            print(f"sample {i} ({sample.path.name}): {problem}", file=sys.stderr)
            phase.failed += 1
        elif first_pass:
            report = json.loads(text)
            report.pop("timing_ms", None)
            canonical = json.dumps(report, sort_keys=True).encode()
            phase.digest.update(canonical + b"\n")
            if tracer is not None:
                tracer.count_report(report, len(canonical))
        i += 1
    return phase


def scaled(timings: list[tuple[float, float, float]], probe: SpeedProbe) -> list[float]:
    """Each own time, rescaled to the reference machine speed."""
    return [own * probe.scale(t0, t1) for t0, t1, own in timings]


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload run; returns (result line, information line)."""
    info = {"workload": name, "seed": seed}
    with SpeedProbe() as probe:
        prog, workload, setups = set_up(name, seed, probe)
        checker = OutputCheck(prog)
        if not trace:
            phases = [run_phase(prog, workload, checker, probe, 0, seconds)]
        else:
            tracer = Tracer(probe)
            tracer.install(prog)
            try:
                traced = run_phase(prog, workload, checker, probe, 0, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            done = len(traced.timings) + traced.failed
            phases = [traced, run_phase(prog, workload, checker, probe, done, seconds / 2)]
    if not trace:
        durations = scaled(phases[0].timings, probe)
        info["raw_check_s"] = statistics.median(own for _, _, own in phases[0].timings)
        values = {
            "check_s": statistics.median(durations),
            "check_p90_s": _p90(durations),
            "scenes_per_s": len(durations) / sum(durations) if durations else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(scaled(setups, probe)),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        tracer.write_spans(workload.workdir / "spans.jsonl")
        traced_s, plain_s = (statistics.fmean(scaled(p.timings, probe)) for p in phases)
        metrics = {k: {"value": v, "unit": "s"} for k, v in tracer.layer_times().items()}
        metrics["trace.check_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
        metrics.update({k: {"value": v, "unit": "count"} for k, v in tracer.counts.items()})
    attempted = sum(len(p.timings) + p.failed for p in phases)
    failed = sum(p.failed for p in phases)
    info.update(
        attempted=attempted,
        failed_ratio=failed / attempted,
        report_digest=phases[0].digest.hexdigest(),
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def _p90(durations: list[float]) -> float:
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=10, method="inclusive")[-1]


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: run failed with exit {proc.returncode}")
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}: failed_ratio {info['failed_ratio']:.4f} of {info['attempted']} checks, "
              f"report digest {info['report_digest'][:16]}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
