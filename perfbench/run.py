"""Benchmark of ``osalg run``, end to end and by layer.

    python3 perfbench/run.py --workload batch-ample --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run it from the repository root. A job is one in-process
``osalg.cli.main(["run", ...])`` call on a generated workload file, with
stdout captured: argument parsing, file read, parse, simulation and
rendering of the trace and metrics. The loop is closed: one client, no
extra threads, the next job starts only after the previous one returns.
Each workload runs in its own process and ``osalg`` never sees the seed.

Jobs run in whole passes over the workload's job pool until ``--seconds``
have been spent and at least 100 jobs have run, after one untimed warm-up
pass. Every output is checked by ``check.py`` outside the timed region; for
the default seed its sha256 must also equal the committed digest.

End-to-end metrics: ``events_per_s`` (trace events of all timed jobs over
their summed seconds), ``job_ms_p50`` and ``job_ms_p90`` (nearest rank over
every timed job), ``setup_s`` (median over fresh set-ups, each a fresh
import of ``osalg`` plus writing every workload file, done before the
first job and again between passes) and ``peak_rss_mb`` (``ru_maxrss``).
Failed jobs are counted in ``failed`` of the result line, and printed as
``failed_ratio``. ``--trace 1`` alternates untraced and traced
(``spans.py``) passes and reports per-layer metrics instead.

Timings are host wall time on a shared machine, a 2-core one for the
figures in BENCHMARK.json; the stamp line gives the commit, Python version
and CPU count. Simulated statistics, such as event counts and digests, are
exact. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_JOBS = 100  # so that at least ten samples lie beyond p90
STRICT_ENV = "OSALG_STRICT"


def osalg_modules() -> dict[str, object]:
    return {k: v for k, v in sys.modules.items() if k == "osalg" or k.startswith("osalg.")}


def set_up(spec: workloads.Spec, seed: int, directory: Path):
    """Import ``osalg`` afresh from the checkout and write every workload
    file; returns the seconds taken, ``osalg.cli`` and the file paths."""
    start = time.perf_counter()
    for name in osalg_modules():
        del sys.modules[name]
    cli = importlib.import_module("osalg.cli")
    paths = []
    for index in range(spec.files):
        path = directory / f"file{index}.txt"
        path.write_text(workloads.workload_text(spec, seed, index), encoding="utf-8")
        paths.append(str(path))
    return time.perf_counter() - start, cli, paths


def time_set_up(spec: workloads.Spec, seed: int, directory: Path) -> float:
    """Seconds of one more fresh set-up; the jobs keep the modules they use."""
    kept = osalg_modules()
    seconds, _, _ = set_up(spec, seed, directory)
    for name in osalg_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


def set_strict(spec: workloads.Spec) -> None:
    """Strict mode is on for exactly the workloads that ask for it."""
    if spec.strict:
        os.environ[STRICT_ENV] = "1"
    else:
        os.environ.pop(STRICT_ENV, None)


class Runner:
    """Runs and verifies jobs; remembers each job's first verified output."""

    def __init__(self, spec, paths, committed):
        self.spec = spec
        self.paths = paths
        self.committed = committed  # job key -> sha256, or None
        self.known: dict[str, tuple[str, int]] = {}  # job key -> (sha256, events)
        self.problems: list[str] = []

    def run(self, job, main) -> tuple[float, int, bool]:
        """One timed job: its seconds, its trace events and whether it passed."""
        out, err = io.StringIO(), io.StringIO()
        argv = job.argv(self.spec, self.paths[job.file])
        gc.collect()
        crashed = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed job, not a failed run
                code, crashed = -1, traceback.format_exc(limit=2)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(job, f"exit {code}: {crashed or err.getvalue().strip()}")
            return elapsed, 0, False
        return (elapsed, *self.verify(job, out.getvalue()))

    def verify(self, job, text: str) -> tuple[int, bool]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        known = self.known.get(job.key)
        if known is not None:
            if known[0] != digest:
                self.fail(job, "output differs from an earlier run of the same job")
                return 0, False
            return known[1], True
        problems = check.check(text, self.spec.memory)
        if self.committed is not None and self.committed.get(job.key) != digest:
            problems.append("sha256 differs from the committed digest")
        if problems:
            self.fail(job, "; ".join(problems[:3]))
            return 0, False
        self.known[job.key] = (digest, check.event_count(text))
        return self.known[job.key][1], True

    def fail(self, job, reason: str) -> None:
        self.problems.append(f"{self.spec.name} {job.key}: {reason}")


class Loop:
    """What a closed loop ran: each job's seconds, trace events, failures."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.events = 0
        self.failed = 0

    def rate(self) -> float:
        """Trace events per timed second."""
        return self.events / sum(self.times)


def run_pass(runner, pool, main, loop: Loop, tracer=None) -> None:
    """Every job of the pool once, in order, each after the last returns."""
    for job in pool:
        if tracer is not None:
            tracer.job = len(loop.times)
        elapsed, count, ok = runner.run(job, main)
        loop.times.append(elapsed)
        loop.events += count
        loop.failed += not ok


def closed_loop(runner, pool, main, seconds, min_jobs, between=None) -> Loop:
    """Whole passes over the pool until both limits are met; `between` runs
    before every pass but the first."""
    loop = Loop()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(loop.times) < min_jobs:
        if between is not None and loop.times:
            between()
        run_pass(runner, pool, main, loop)
    return loop


def traced_loop(runner, pool, main, seconds) -> tuple[Loop, Loop, spans.Tracer]:
    """Untraced and traced passes in turn, so both see the same machine."""
    untraced, traced, tracer = Loop(), Loop(), spans.Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced.times:
        run_pass(runner, pool, main, untraced)
        with spans.patched(tracer):
            run_pass(runner, pool, tracer.wrap(spans.ROOT, main), traced, tracer)
    return untraced, traced, tracer


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(loop: Loop, setups) -> dict[str, tuple[float, str]]:
    return {
        "events_per_s": (loop.rate(), "1/s"),
        "job_ms_p50": (percentile(loop.times, 50) * 1e3, "ms"),
        "job_ms_p90": (percentile(loop.times, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Loop, untraced: Loop) -> dict[str, tuple[float, str]]:
    jobs = len(traced.times)
    calls, self_ns, raised = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in (spans.ROOT, *spans.TARGETS):
        metrics[f"{name}.calls"] = (calls[name] / jobs, "count/job")
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9 / jobs, "s/job")
    for name in spans.GRANTS:
        metrics[f"{name}.fails"] = (raised[name] / jobs, "count/job")

    def ok_ratio(*names: str) -> float:  # 0 when nothing was attempted
        attempts = sum(calls[n] for n in names)
        return (attempts - sum(raised[n] for n in names)) / attempts if attempts else 0.0

    metrics["allocators.grant_ok_ratio"] = (ok_ratio(
        "allocators.allocate", "allocators.segment_alloc", "allocators.build_page_table"),
        "ratio")
    metrics["allocators.swap_out_ok_ratio"] = (ok_ratio("allocators.swap_out"), "ratio")
    metrics["allocators.swap_in_ok_ratio"] = (ok_ratio("allocators.swap_in"), "ratio")
    metrics["sim.events"] = (traced.events / jobs, "count/job")
    metrics["bench.traced_job_s"] = (sum(traced.times) / jobs, "s/job")
    metrics["bench.trace_overhead"] = (untraced.rate() / traced.rate() - 1, "ratio")
    return metrics


def guards(name: str, metrics) -> list[str]:
    """Properties each workload must keep so that it still uses its layer."""
    calls = {k[: -len(".calls")]: v for k, (v, _) in metrics.items() if k.endswith(".calls")}
    rules = [
        ("binding.validate runs only under strict-mix",
         (calls["binding.validate"] > 0) == (name == "strict-mix")),
    ]
    if name == "stream-tight":
        rules.append(("stream-tight swaps out", calls["allocators.swap_out"] > 0))
    if name == "batch-ample":
        rules.append(("batch-ample never swaps out", calls["allocators.swap_out"] == 0))
    if name == "rr-paging":
        rules.append(("rr-paging appends to the binding log",
                      calls["binding.record"] > 10))
    return [f"guard failed: {rule}" for rule, held in rules if not held]


def commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict[str, str]:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "timing": f"host wall time on a shared {os.cpu_count()}-core machine; "
                  "simulated statistics are exact",
    }


def bench(args) -> int:
    spec = workloads.SPECS[args.workload]
    if not (SRC / "osalg" / "cli.py").is_file():
        print(f"error: no osalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    set_strict(spec)
    directory = OUT / f"{spec.name}-seed{args.seed}"
    directory.mkdir(parents=True, exist_ok=True)
    seconds, cli, paths = set_up(spec, args.seed, directory)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: osalg imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    committed = None
    if args.seed == DEFAULT_SEED:
        committed = json.loads(DIGESTS.read_text())[spec.name]
    runner = Runner(spec, paths, committed)
    pool = workloads.jobs(spec, args.seed)
    # An untimed pass runs each job's full check and warms the interpreter.
    warm = closed_loop(runner, pool, cli.main, 0, 1)

    if not args.trace:
        # Set-up is timed again between passes, so that its median spans
        # the run as the job timings do.
        setups = [seconds]
        loop = closed_loop(runner, pool, cli.main, args.seconds, MIN_JOBS,
                           lambda: setups.append(time_set_up(spec, args.seed, directory)))
        metrics = end_to_end(loop, setups)
        loops = [warm, loop]
    else:
        untraced, traced, tracer = traced_loop(runner, pool, cli.main, args.seconds)
        tracer.write(str(OUT / f"{spec.name}.spans.csv"))  # the last traced run
        metrics = per_layer(tracer, traced, untraced)
        runner.problems.extend(guards(spec.name, metrics))
        loops = [warm, untraced, traced]
        job_s = metrics["bench.traced_job_s"][0]
        shares = sorted(
            ((v / job_s, k[: -len(".self_s")]) for k, (v, _) in metrics.items()
             if k.endswith(".self_s")), reverse=True)
        print("self-time shares of a traced job: "
              + ", ".join(f"{name} {share:.0%}" for share, name in shares if share >= 0.01))
    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(loop.failed for loop in loops)

    for problem in runner.problems[:10]:
        print(problem, file=sys.stderr)
    print(json.dumps({"stamp": stamp(), "workload": spec.name, "seed": args.seed,
                      "jobs": attempted}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def report(args) -> int:
    """Every workload, each in its own process, printed as one table."""
    status = 0
    print(json.dumps({"stamp": stamp(), "seed": args.seed, "seconds": args.seconds}))
    for name in workloads.SPECS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<13} {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<13} {'failed_ratio':<46} "
              f"{result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']} of {result['attempted']} jobs, "
              f"correct={result['correct']})")
    return status


def write_digests() -> int:
    """Record the sha256 of every default-seed job's checked output."""
    sys.path.insert(0, str(SRC))
    digests: dict[str, dict[str, str]] = {}
    for spec in workloads.SPECS.values():
        set_strict(spec)
        directory = OUT / f"{spec.name}-seed{DEFAULT_SEED}"
        directory.mkdir(parents=True, exist_ok=True)
        _, cli, paths = set_up(spec, DEFAULT_SEED, directory)
        runner = Runner(spec, paths, None)
        for job in workloads.jobs(spec, DEFAULT_SEED):
            runner.run(job, cli.main)
        if runner.problems:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        digests[spec.name] = {key: sha for key, (sha, _) in sorted(runner.known.items())}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.SPECS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args()
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return report(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
