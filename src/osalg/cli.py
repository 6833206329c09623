"""Command-line front end.

Workloads are line-oriented text: one procedure per line as ``key=value``
pairs separated by spaces, ``#`` starting a comment. Traces render as CSV
with a fixed header, metrics as ``key=value`` lines; both are byte-stable
across runs for regression diffing.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import shutil
import stat
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from typing import IO, Any, Callable, Iterable, Sequence

from .binding import _topological_orders
from .core import Procedure, ProcedureSet, WorkClass
from .errors import (
    OsAlgError,
    ParameterError,
    UnrunnableProcedureError,
    WorkloadError,
)
from .sim import ALLOCATORS, SCHEDULERS, Metrics, SimConfig, Trace, run, trace_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WORKLOAD = 2
EXIT_UNRUNNABLE = 3

# The largest `sim.trace_bound` a run may have: dispatches plus listed
# pages. One dispatch costs about 14 us and 0.9 KB of peak memory (rr with
# quantum 1 on Python 3.11, a 2-core host), so a run within the limit
# ends in seconds and under 200 MB; a larger workload is refused before
# the run starts.
MAX_TRACE = 200_000

_REQUIRED_KEYS = ("id", "size", "time")
_ALL_KEYS = ("id", "size", "time", "arrival", "priority", "owner", "class", "segments")


def parse_workload(text: str) -> ProcedureSet:
    """Parse workload text into an arrival-sorted procedure set."""
    procedures: list[Procedure] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields: dict[str, str] = {}
        for token in line.split():
            if "=" not in token:
                raise WorkloadError(f"expected key=value, got {token!r}", lineno)
            key, value = token.split("=", 1)
            if key not in _ALL_KEYS:
                raise WorkloadError(f"unknown field {key!r}", lineno)
            if key in fields:
                raise WorkloadError(f"field {key!r} repeated", lineno)
            fields[key] = value
        for key in _REQUIRED_KEYS:
            if key not in fields:
                raise WorkloadError(f"missing field {key!r}", lineno)
        try:
            pid = int(fields["id"])
            if pid in seen:
                raise WorkloadError(
                    f"duplicate id {pid} (first on line {seen[pid]})", lineno
                )
            seen[pid] = lineno
            io_class = (
                WorkClass(fields["class"]) if "class" in fields else None
            )
            segments = (
                tuple(int(s) for s in fields["segments"].split(","))
                if "segments" in fields
                else None
            )
            procedures.append(
                Procedure(
                    id=pid,
                    size=int(fields["size"]),
                    time=int(fields["time"]),
                    arrival=int(fields.get("arrival", "0")),
                    priority=int(fields["priority"]) if "priority" in fields else None,
                    owner=fields.get("owner"),
                    io_class=io_class,
                    segments=segments,
                )
            )
        except WorkloadError:
            raise
        except ParameterError as exc:
            raise WorkloadError(str(exc), lineno) from exc
        except ValueError as exc:
            raise WorkloadError(str(exc), lineno) from exc
    ordered = sorted(procedures, key=lambda p: (p.arrival, p.id))
    return ProcedureSet(tuple(ordered))


def emit_workload(procedures: ProcedureSet) -> str:
    """Render a procedure set back to workload text."""
    lines = []
    for p in procedures:
        parts = [f"id={p.id}", f"size={p.size}", f"time={p.time}", f"arrival={p.arrival}"]
        if p.priority is not None:
            parts.append(f"priority={p.priority}")
        if p.owner is not None:
            parts.append(f"owner={p.owner}")
        if p.io_class is not None:
            parts.append(f"class={p.io_class.value}")
        if p.segments is not None:
            parts.append("segments=" + ",".join(str(s) for s in p.segments))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _extents_text(extents: Iterable[object]) -> str:
    return "+".join(map(str, extents)) or "-"


def _fraction_text(f: Fraction | None) -> str:
    """str(f), or "-" for None, at any size: str() of an int stops at the
    interpreter's digit limit (sys.get_int_max_str_digits), Decimal does
    not."""
    if f is None:
        return "-"
    text = str(Decimal(f.numerator))
    return text if f.denominator == 1 else f"{text}/{Decimal(f.denominator)}"


# The text of each trace field whose value `str` does not render
_FIELD_TEXT: dict[str, Callable[[Any], str]] = {
    "extents": _extents_text,
    "backing": _extents_text,
    "segments": lambda placed: "+".join(f"{length}@{base}" for _, length, base in placed),
    "pages": lambda entries: "+".join(f"{page}:{frame}" for page, frame in entries),
    "ext_frag": _fraction_text,
    "class": lambda io_class: io_class.value,
}


def render_trace(trace: Trace) -> str:
    """One CSV line per event, its fields in the order the event carries
    them."""
    lines = ["instant,event,pid,detail"]
    text = _FIELD_TEXT.get
    for e in trace.events:
        fields = []
        for k, v in e.detail:
            render = text(k)
            fields.append(f"{k}={v}" if render is None else f"{k}={render(v)}")
        lines.append(f"{e.instant},{e.kind.value},{e.pid},{' '.join(fields)}")
    return "\n".join(lines) + "\n"


def render_metrics(m: Metrics) -> str:
    lines = [
        f"makespan={m.makespan}",
        f"mean_waiting={_fraction_text(m.mean_waiting)}",
        f"mean_turnaround={_fraction_text(m.mean_turnaround)}",
        f"mean_external_fragmentation={_fraction_text(m.mean_external_fragmentation)}",
        f"internal_fragmentation_total={m.internal_fragmentation_total}",
    ]
    for pid in sorted(m.waiting):
        lines.append(f"waiting.{pid}={m.waiting[pid]}")
        lines.append(f"turnaround.{pid}={m.turnaround[pid]}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first `main` call of a process and
    kept: parsing leaves it as it was, and usage text goes to the
    sys.stderr of the moment."""
    parser = argparse.ArgumentParser(
        prog="osalg",
        description="Compose scheduling and allocation disciplines and "
        "simulate them over a workload.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a workload")
    runp.add_argument("--workload", required=True, help="workload file path")
    runp.add_argument("--scheduler", required=True, choices=list(SCHEDULERS))
    runp.add_argument("--allocator", required=True, choices=list(ALLOCATORS))
    runp.add_argument("--quantum", type=int, default=1, help="round robin quantum")
    runp.add_argument("--io-quantum", type=int, default=1)
    runp.add_argument("--cpu-quantum", type=int, default=4)
    runp.add_argument("--unit", type=int, help="fixed partition unit size")
    runp.add_argument("--page-size", type=int, help="page/frame size")
    runp.add_argument("--memory", type=int, default=64, help="primary capacity")
    runp.add_argument("--backing", type=int, help="backing capacity (default: memory)")
    runp.add_argument("--trace", help="trace CSV path (default: stdout)")
    runp.add_argument("--metrics", help="metrics path (default: stdout)")

    orderp = sub.add_parser("orderings", help="legal binding orders")
    orderp.add_argument("--symbols", required=True, help="comma-separated symbols")
    orderp.add_argument(
        "--deps", default="", help="comma-separated a<b pairs: a binds before b"
    )
    return parser


def _cmd_run(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    try:
        with open(args.workload, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read workload: {exc}", file=err)
        return EXIT_WORKLOAD
    try:
        workload = parse_workload(text)
    except WorkloadError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_WORKLOAD
    try:
        cfg = SimConfig(
            memory_capacity=args.memory,
            backing_capacity=args.backing,
            scheduler=args.scheduler,
            quantum=args.quantum,
            io_quantum=args.io_quantum,
            cpu_quantum=args.cpu_quantum,
            allocator=args.allocator,
            unit_size=args.unit,
            page_size=args.page_size,
        )
    except ParameterError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    if trace_bound(workload, cfg) > MAX_TRACE:
        print(f"usage error: the trace would hold more than {MAX_TRACE} "
              "dispatches and listed pages", file=err)
        return EXIT_USAGE
    try:
        for path in filter(None, (args.trace, args.metrics)):
            _check_writable(path)
    except OSError as exc:
        print(f"usage error: cannot write {path}: {exc.strerror}", file=err)
        return EXIT_USAGE
    try:
        trace, measured = run(workload, cfg)
    except UnrunnableProcedureError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_UNRUNNABLE
    except (ParameterError, WorkloadError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_WORKLOAD
    outputs = (
        (args.trace, render_trace(trace)), (args.metrics, render_metrics(measured))
    )
    try:
        _write_files([(path, text) for path, text in outputs if path])
    except OSError as exc:
        print(f"usage error: cannot write {exc.filename}: {exc.strerror}", file=err)
        return EXIT_USAGE
    for path, text in outputs:
        if not path:
            out.write(text)
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Raise OSError when `_write_files` could not write path for a reason
    known before there is anything to write, such as a directory at path
    or a missing or unwritable directory around it: stage an empty text
    for it as `_write_files` would, then remove it."""
    target = os.path.realpath(path)
    if not _is_special(target):
        os.unlink(_stage(target, ""))


def _write_files(files: Sequence[tuple[str, str]]) -> None:
    """Write each text to its path, in order, all or nothing: each text
    goes to a new file beside the file its path names, through any
    symlink, and those files replace their targets only once every write
    has succeeded. A replaced file keeps its mode; a new one gets the
    mode that opening it for writing would give. A path that exists and
    is neither a regular file nor a directory, such as a device or a
    pipe, cannot be replaced and is written in place. Raises OSError
    naming the first path that failed, with every path left as it was.
    """
    staged: list[tuple[str, str, str]] = []  # (new file, target, path)
    current = ""
    try:
        in_place = []
        for current, text in files:
            target = os.path.realpath(current)
            if _is_special(target):
                in_place.append((current, text))
            else:
                staged.append((_stage(target, text), target, current))
        for current, text in in_place:
            with open(current, "w", encoding="utf-8") as handle:
                handle.write(text)
        for temp, target, current in staged:
            os.replace(temp, target)
        staged.clear()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, current) from exc
    finally:
        for temp, _, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def _is_special(path: str) -> bool:
    """Whether path exists as neither a regular file nor a directory;
    IsADirectoryError when it is a directory."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return False
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return not stat.S_ISREG(mode)


def _stage(target: str, text: str) -> str:
    """Write text to a new hidden file beside target, with target's mode
    if it exists; returns the new file's name."""
    head, tail = os.path.split(target)
    handle, temp = tempfile.mkstemp(dir=head, prefix=f".{tail}.", suffix=".tmp")
    try:
        with open(handle, "w", encoding="utf-8") as staged:
            staged.write(text)
        if os.path.exists(target):
            shutil.copymode(target, temp)
        else:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp, 0o666 & ~umask)
    except BaseException:
        os.unlink(temp)
        raise
    return temp


def _cmd_orderings(args: argparse.Namespace, out: IO[str], err: IO[str]) -> int:
    symbols = [s for s in args.symbols.split(",") if s]
    deps: list[tuple[str, str]] = []
    for pair in args.deps.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "<" not in pair:
            print(f"usage error: dependency {pair!r} is not of the form a<b", file=err)
            return EXIT_USAGE
        first, then = pair.split("<", 1)
        deps.append((first.strip(), then.strip()))
    # a cycle raises CycleError before the first order; main reports it
    for order in _topological_orders(tuple(symbols), frozenset(deps)):
        out.write(",".join(order) + "\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    out, err = sys.stdout, sys.stderr
    command = _cmd_run if args.command == "run" else _cmd_orderings
    try:
        code = command(args, out, err)
        out.flush()  # so that a closed pipe is met here, not at exit
    except OsAlgError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_WORKLOAD
    except BrokenPipeError:
        # the reader stopped, which is no failure: what is still buffered
        # goes to devnull, or the interpreter's final flush fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
