#!/usr/bin/env python3
"""Benchmark of the realrank2 command line: one closed-loop client in-process.

Run from the repository root:

    python3 perfbench/run.py --workload tensor-float --seed 1 --seconds 20 --trace 0

The client calls `realrank2.cli.main` with generated input files, one
request at a time, and checks every response against an oracle.  Request
and set-up times are scaled to the reference speed of `speed.py`, so the
drift of a shared machine's speed stays out of them.

--trace 0  sends the workload's whole request set again and again (passes)
           for about --seconds of wall time and prints the end-to-end
           metrics, taken over each request's median time.
--trace 1  runs the workload's fixed traced rounds once untraced and once
           with spans around every layer, prints the per-layer metrics and
           writes the spans to .perfbench-work/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS, Response  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5
MIN_PASSES = 3
SUBPROCESS_TIMEOUT_S = 120
CROSSING_CLASSIFY_AT_SEED = 97
BLOCKS_4444 = 3456


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported on stderr with exit status 1."""


def import_cli():
    """realrank2.cli from this checkout's src/, never from anywhere else."""
    init = SRC / "realrank2" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no realrank2 sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import realrank2.cli

    if Path(realrank2.__file__).resolve() != init.resolve():
        raise BenchError(f"imported realrank2 from {realrank2.__file__}, not {init}")
    return realrank2.cli


class Client:
    """Calls `cli.main` in-process with stdout and stderr captured."""

    def __init__(self, cli, speed: Speed | None = None):
        self.cli = cli
        self.speed = speed or Speed()

    def call(self, argv):
        """(exit status, stdout, seconds at reference speed, wall seconds,
        Failure or None) of one request."""
        out, err = io.StringIO(), io.StringIO()
        status, failure = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(argv))  # looked up per call, so tracing sees it
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a request that raises is a failed request, not a crash
            failure = oracles.Failure(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if failure is None and status == 1:
            failure = oracles.Failure("exit status 1: " + (err.getvalue().strip().splitlines() or [""])[-1])
        return status, out.getvalue(), self.speed.scale(seconds), seconds, failure

    def send(self, req):
        return self.call(req.argv)


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)  # at reference speed
    failures: list[tuple[str, oracles.Failure]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def unknown_failures(self) -> list[tuple[str, oracles.Failure]]:
        return [(name, f) for name, f in self.failures if f.known is None]

    def rps(self) -> float:
        return self.attempted / self.busy

    def typical(self) -> list[float]:
        """The median time of each distinct request, in first-sent order."""
        times: dict[str, list[float]] = {}
        for name, seconds in zip(self.names, self.latencies):
            times.setdefault(name, []).append(seconds)
        return [statistics.median(v) for v in times.values()]


def run_job(job, call, stats: Stats) -> None:
    """Drive one job: send each request, judge it, hand the response back."""
    gen = job()
    try:
        req = next(gen)
        while True:
            status, out, seconds, wall, failure = call(req)
            if failure is None:
                try:
                    failure = req.oracle(status, out)
                except Exception as exc:  # an unreadable response fails its request only
                    failure = oracles.Failure(f"oracle could not read the output: {exc!r}")
            stats.latencies.append(seconds)
            stats.names.append(req.name)
            stats.wall.append(wall)
            if failure is not None:
                stats.failures.append((req.name, failure))
            req = gen.send(Response(status, out, failure))
    except StopIteration:
        pass


def timed_passes(workload, client, seconds: float) -> tuple[Stats, int]:
    """Passes over the whole request set for about `seconds` of wall time.

    At least MIN_PASSES; no pass starts that the last one says would end
    after `seconds`.  Each request is sent once per pass, so every request
    is timed several times.
    """
    stats, passes, start = Stats(), 0, time.perf_counter()
    jobs = workload.jobs()
    client.speed.mark()
    while True:
        began = time.perf_counter()
        for job in jobs:
            run_job(job, client.send, stats)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - began) > seconds:
            return stats, passes


def fidelity(workload, client) -> list[str]:
    """Requests whose stdout or status differ between in-process and `python -m`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    mismatches = []
    for argv in workload.fidelity():
        status, out, _, _, _ = client.call(argv)
        proc = subprocess.run([sys.executable, "-m", "realrank2", *argv], cwd=ROOT, env=env,
                              capture_output=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
        same = proc.stdout == out.encode("utf-8")
        if not same or proc.returncode != status:
            mismatches.append(f"{' '.join(argv)}: subprocess exit {proc.returncode}, "
                              f"in-process {status}; stdout identical: {same}")
    return mismatches


def setup_time(args, first: float) -> float:
    """Median set-up time over this process and fresh ones."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(stats: Stats, setup_s: float) -> dict:
    """Latency and throughput over each request's median time at reference speed."""
    lat = sorted(1000.0 * s for s in stats.typical())
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "throughput_rps": _metric(1000.0 * len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat), "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_run(workload, client, args) -> tuple[Stats, dict, list[str]]:
    """Every job of the fixed traced rounds, once untraced and once traced.

    The two runs of a job are adjacent, in alternating order, so the speed
    drift of a shared machine cancels out of the tracing overhead.
    """
    tracer, names = spans.Tracer(), []
    untraced, traced = Stats(), Stats()

    def call(req):
        names.append(req.name)
        with tracer.request(len(names) - 1):
            return client.call(req.argv)

    jobs = [job for r in range(workload.trace_rounds) for job in workload.round(r)]
    for i, job in enumerate(jobs):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                with tracer.installed():
                    run_job(job, call, traced)
            else:
                run_job(job, client.send, untraced)
    overhead = 1.0 - traced.rps() / untraced.rps()
    metrics = spans.layer_metrics(tracer.spans, overhead)
    notes = [f"trace: target {name} not found" for name in tracer.missing]
    fired = {s.name for s in tracer.spans}
    notes += [f"trace: {name} never fired on {workload.name}"
              for name in workload.expected_spans if name not in fired]
    crossing = {i for i, n in enumerate(names) if n.endswith("crossing/scan")}
    for rid in sorted(crossing):
        got = sum(1 for s in tracer.spans if s.request == rid and s.name == "space_curve.classify_point")
        notes.append(f"sanity: {names[rid]} traced {got} classify_point calls "
                     f"(seed commit: {CROSSING_CLASSIFY_AT_SEED})")
    blocks = {s.count for s in tracer.spans
              if s.name == "hyperdet.all_subhyperdets" and s.shape == (4, 4, 4, 4)}
    if blocks:
        notes.append(f"sanity: 4x4x4x4 all_subhyperdets blocks {sorted(blocks)} (expected {BLOCKS_4444})")
    out = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(out, names)
    notes.append(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    both = Stats(untraced.latencies + traced.latencies, untraced.failures + traced.failures,
                 untraced.names + traced.names, untraced.wall + traced.wall)
    return both, {k: _metric(metrics[k], unit) for k, unit, _ in spans.PER_LAYER}, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only build inputs and warm up, then print the set-up time")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        client = Client(import_cli())
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = client.speed.scale(time.perf_counter() - START)
        warm = Stats()
        for job in workload.warmup():
            run_job(job, client.send, warm)
        setup_s += warm.busy
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # problems make the run incorrect; notes only inform
        problems = [f"warm-up FAIL {name}: {f.reason}" for name, f in warm.failures]
        notes: list[str] = []
        if args.trace:
            stats, metrics, notes = trace_run(workload, client, args)
            print(f"{args.workload} seed {args.seed}: traced {workload.trace_rounds} round(s), "
                  f"{stats.attempted // 2} requests per pass")
        else:
            problems += [f"fidelity MISMATCH {m}" for m in fidelity(workload, client)]
            stats, passes = timed_passes(workload, client, args.seconds)
            metrics = end_to_end(stats, setup_time(args, setup_s))
            lat = len(stats.typical())
            print(f"{args.workload} seed {args.seed}: {stats.attempted} requests in {passes} passes "
                  f"of {lat}; p90 has {lat - int(0.9 * lat)} of {lat} samples beyond it")
            print(f"request time {sum(stats.wall):.2f} s wall, {stats.busy:.2f} s at reference speed "
                  f"(machine at {stats.busy / sum(stats.wall):.3f} of it); wall throughput "
                  f"{stats.attempted / sum(stats.wall):.4f} 1/s")
            print(f"fail_share {len(stats.failures) / stats.attempted:.6f} share "
                  f"({len(stats.failures)} of {stats.attempted})")
            probe = Stats()
            for job in workload.defect_probe():
                run_job(job, client.send, probe)
            if probe.attempted:
                known = len(probe.failures) - len(probe.unknown_failures)
                notes.append(f"defect probe (untimed): {known} of {probe.attempted} requests show "
                             f"{oracles.SCALE_DEFECT}")
                notes += [f"  probe {name}: {f.reason}" for name, f in probe.failures if f.known]
                problems += [f"probe FAIL {name}: {f.reason}" for name, f in probe.unknown_failures]
        for name, m in metrics.items():
            print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
        for name, f in stats.failures:
            print(f"  FAIL {name}: {f.reason}")
        for line in problems + notes:
            print(line)
        correct = not stats.failures and not problems
        print(json.dumps({"correct": correct, "attempted": stats.attempted,
                          "failed": len(stats.failures), "metrics": metrics}))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
