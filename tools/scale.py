"""How the simulator's cost per event grows with the workload.

    python3 tools/scale.py                        # this tree only
    python3 tools/scale.py --before HEAD~1        # before/after, interleaved
    python3 tools/scale.py --before HEAD~1 --out BENCH_scale.json

Run it from the repository root. Each cell is one scheduler x allocator
pair of PAIRS at one workload size n of SIZES, with strict mode off or,
for the pairs of STRICT_PAIRS, on: a workload of n procedures drawn with
SEED (sizes 1-16, times 1-12, priorities 0-9, both work classes) is
simulated REPEATS times, each by an in-process ``osalg.sim.run`` call,
in a child process that imports ``osalg`` from the tree under test.
Only that call is timed; building the workload is not. A cell's figure
is the median of its repeats, in microseconds of host wall time per
trace event, and each pair's slope is its figure at the largest n over
the one at the smallest: 1 when the cost per event stays flat,
n_max / n_min when it grows linearly in n. A strict pair also reports
its figure at the largest n over the lax one's.

With ``--before REV``, the tree of git revision REV is exported to a
temporary directory and measured too. The two trees alternate cell by
cell, repeat by repeat, so that drift of a shared host falls on both.
The JSON written to ``--out`` holds, per tree, the commit (``-dirty``
when the working tree differs from it), every cell and every slope, with
the Python version and the CPU count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY = 65536
SIZES = (1000, 4000)
SEED = 0
REPEATS = 5

# pair name -> (SimConfig keywords, largest arrival gap)
PAIRS = {
    "fcfs/first-fit": (dict(scheduler="fcfs", allocator="first-fit"), 0),
    "sjf-time/buddy": (dict(scheduler="sjf-time", allocator="buddy"), 0),
    "priority/fixed": (dict(scheduler="priority", allocator="fixed", unit_size=16), 0),
    "rr/paging": (dict(scheduler="rr", allocator="paging", page_size=4, quantum=2), 2),
    "var-quantum/segmentation": (dict(scheduler="var-quantum", allocator="segmentation",
                                      io_quantum=1, cpu_quantum=4), 2),
}
# the pairs also measured with strict mode on, as "<pair> strict"
STRICT_PAIRS = ("fcfs/first-fit", "sjf-time/buddy", "rr/paging", "var-quantum/segmentation")


def workload(pair: str, n: int) -> list[dict]:
    """The procedures of one cell, as Procedure keywords in arrival order;
    under segmentation each declares one to three segments."""
    rng = random.Random(f"scale:{pair}:{n}:{SEED}")
    keywords, max_gap = PAIRS[pair]
    procedures, arrival = [], 0
    for pid in range(1, n + 1):
        procedures.append(dict(
            id=pid,
            size=rng.randint(1, 16),
            time=rng.randint(1, 12),
            arrival=arrival,
            priority=rng.randint(0, 9),
            io_class=rng.choice(("IoBound", "CpuBound")),
        ))
        arrival += rng.randint(0, max_gap)
        if keywords["allocator"] == "segmentation":
            size = procedures[-1]["size"]
            cuts = sorted(rng.sample(range(1, size), min(size - 1, rng.randint(0, 2))))
            procedures[-1]["segments"] = tuple(
                b - a for a, b in zip([0, *cuts], [*cuts, size]))
    return procedures


def measure(src: str, pair: str, n: int, strict: bool) -> dict:
    """Time one simulation of a cell with the osalg found under src."""
    sys.path.insert(0, src)
    from osalg.core import Procedure, WorkClass
    from osalg.sim import SimConfig, run

    procedures = [
        Procedure(**{**kw, "io_class": WorkClass(kw["io_class"])})
        for kw in workload(pair, n)
    ]
    cfg = SimConfig(memory_capacity=MEMORY, **PAIRS[pair][0])
    gc.collect()
    start = time.perf_counter()
    trace, _ = run(procedures, cfg, strict=strict)
    seconds = time.perf_counter() - start
    return {
        "events": len(trace.events),
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def cell(src: Path, pair: str, n: int, strict: bool) -> dict:
    """One measurement in a fresh child process."""
    done = subprocess.run(
        [sys.executable, __file__, "--cell", str(src), pair, str(n), str(int(strict))],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def describe(tree: Path, rev: str | None = None) -> str:
    """The commit of a tree: REV resolved, or HEAD of this checkout plus
    '-dirty' when the working tree differs from it; 'unknown' outside git."""
    args = ["rev-parse", "--short", rev] if rev else ["describe", "--always", "--dirty"]
    try:
        done = subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def summarize(runs: dict) -> dict:
    cells, slopes, figures = {}, {}, {}
    for (pair, strict), by_n in runs.items():
        name = f"{pair} strict" if strict else pair
        for n, samples in by_n.items():
            per_event = [s["seconds"] / s["events"] * 1e6 for s in samples]
            figures[name, n] = statistics.median(per_event)
            cells[f"{name} n={n}"] = {
                "us_per_event": round(figures[name, n], 2),
                "samples_us_per_event": [round(x, 2) for x in per_event],
                "events": samples[0]["events"],
                "peak_rss_mb": round(max(s["peak_rss_mb"] for s in samples), 1),
                "strict": strict,
            }
        slopes[name] = round(figures[name, max(SIZES)] / figures[name, min(SIZES)], 2)
    strict_over_lax = {
        pair: round(figures[f"{pair} strict", max(SIZES)] / figures[pair, max(SIZES)], 2)
        for pair in STRICT_PAIRS
    }
    return {"cells": cells, "slopes": slopes, "strict_over_lax": strict_over_lax}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="git revision to measure alongside this tree")
    parser.add_argument("--out", help="JSON path (default: print only)")
    parser.add_argument("--cell", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.cell:
        src, pair, n, strict = args.cell
        print(json.dumps(measure(src, pair, int(n), strict == "1")))
        return 0

    with tempfile.TemporaryDirectory() as scratch:
        trees = {"after": (ROOT, describe(ROOT))}
        if args.before:
            before = Path(scratch) / "before"
            before.mkdir()
            archive = subprocess.run(["git", "archive", args.before, "src"], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(before)], input=archive, check=True)
            trees = {"before": (before, describe(ROOT, args.before)), **trees}
        kinds = [(p, False) for p in PAIRS] + [(p, True) for p in STRICT_PAIRS]
        runs = {side: {k: {n: [] for n in SIZES} for k in kinds} for side in trees}
        for repeat in range(REPEATS):
            for pair, strict in kinds:
                for n in SIZES:
                    # alternate which tree goes first, so neither always
                    # runs on the host right after the other
                    order = list(trees) if repeat % 2 == 0 else list(reversed(trees))
                    for side in order:
                        tree, _ = trees[side]
                        sample = cell(tree / "src", pair, n, strict)
                        runs[side][pair, strict][n].append(sample)
                        rate = sample["seconds"] / sample["events"] * 1e6
                        mode = "strict" if strict else "lax"
                        print(f"{side:6} {pair:16} {mode:6} n={n:<6} {rate:9.2f} us/event",
                              file=sys.stderr, flush=True)
    result = {
        "what": "in-process osalg.sim.run, strict off unless the cell says "
                "strict, memory 65536; us/event is the median over repeats of "
                "host wall time per trace event; slope is us/event at the "
                "largest n over the smallest; strict_over_lax is a strict "
                "pair's us/event at the largest n over the lax pair's",
        "sizes": list(SIZES),
        "repeats": REPEATS,
        "seed": SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **{side: {"commit": trees[side][1], **summarize(runs[side])}
           for side in trees},
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
