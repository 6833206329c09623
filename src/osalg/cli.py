"""Command-line front end.

Workloads are line-oriented text: one procedure per line as ``key=value``
pairs separated by spaces, ``#`` starting a comment. Traces render as CSV
with a fixed header, metrics as ``key=value`` lines; both are byte-stable
across runs for regression diffing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import os
import shutil
import stat
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import IO, Any, Callable, Iterable, Sequence

from .binding import _topological_orders
from .core import Procedure, ProcedureSet, WorkClass, arrival_order
from .errors import (
    OsAlgError,
    ParameterError,
    TraceLimitError,
    UnrunnableProcedureError,
    WorkloadError,
)
from .sim import ALLOCATORS, SCHEDULERS, EventKind, Metrics, SimConfig, Trace, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WORKLOAD = 2
EXIT_UNRUNNABLE = 3

# Each workload key: the Procedure field it sets and the reader of its
# text. The first three are required; a field not given takes
# Procedure's default.
_FIELDS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "id": ("id", int),
    "size": ("size", int),
    "time": ("time", int),
    "arrival": ("arrival", int),
    "priority": ("priority", int),
    "owner": ("owner", str),
    "class": ("io_class", WorkClass),
    "segments": ("segments", lambda text: tuple(map(int, text.split(",")))),
}
_REQUIRED_KEYS = tuple(_FIELDS)[:3]


def parse_workload(text: str) -> ProcedureSet:
    """Parse workload text into a procedure set in `arrival_order`."""
    procedures: list[Procedure] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields: dict[str, str] = {}
        for token in line.split():
            key, eq, value = token.partition("=")
            if not eq:
                raise WorkloadError(f"expected key=value, got {token!r}", lineno)
            if key not in _FIELDS:
                raise WorkloadError(f"unknown field {key!r}", lineno)
            if key in fields:
                raise WorkloadError(f"field {key!r} repeated", lineno)
            fields[key] = value
        for key in _REQUIRED_KEYS:
            if key not in fields:
                raise WorkloadError(f"missing field {key!r}", lineno)
        values = {}
        for key, value in fields.items():
            name, read = _FIELDS[key]
            try:
                values[name] = read(value)
            except ValueError as exc:
                raise WorkloadError(f"field {key!r}: {exc}", lineno) from exc
        try:
            pid = values["id"]
            if pid in seen:
                raise WorkloadError(
                    f"duplicate id {pid} (first on line {seen[pid]})", lineno
                )
            seen[pid] = lineno
            procedures.append(Procedure(**values))
        except ValueError as exc:  # a ParameterError among them
            raise WorkloadError(str(exc), lineno) from exc
    return ProcedureSet(tuple(sorted(procedures, key=arrival_order)))


def _extents_text(extents: Iterable[object]) -> str:
    return "+".join(map(str, extents)) or "-"


def _fraction_text(f: Fraction | None) -> str:
    """str(f), or "-" for None, at any size: past the interpreter's digit
    limit (sys.get_int_max_str_digits) the digits come from Decimal."""
    if f is None:
        return "-"
    try:
        return str(f)
    except ValueError:
        text = str(Decimal(f.numerator))
        return text if f.denominator == 1 else f"{text}/{Decimal(f.denominator)}"


def _optional(label: str, value: Any, text: Callable[[Any], str] = str) -> str:
    """" label=text", for a field that only some events carry; "" for None."""
    return "" if value is None else f" {label}={text(value)}"


def _pages_text(entries: Iterable[tuple[int, int]]) -> str:
    return "+".join(f"{page}:{frame}" for page, frame in entries)


def _segments_text(placed: Iterable[tuple[int, int, int]]) -> str:
    return "+".join(f"{length}@{base}" for _, length, base in placed)


# Each kind's detail text, from its record's fields in render order
_DETAIL_TEXT: dict[EventKind, Callable[[Any], str]] = {
    EventKind.ARRIVE: lambda e: (
        f"size={e.size} time={e.time}{_optional('priority', e.priority)}"
        f"{_optional('owner', e.owner)}"
        f"{_optional('class', e.io_class, attrgetter('value'))}"),
    EventKind.ADMIT: lambda e: "",
    EventKind.ALLOCATE: lambda e: (
        f"extents={_extents_text(e.extents)}{_optional('pages', e.pages, _pages_text)}"
        f"{_optional('segments', e.segments, _segments_text)}"
        f" ext_frag={_fraction_text(e.ext_frag)} int_frag={e.int_frag}"),
    EventKind.DISPATCH: lambda e: f"run={e.run}",
    EventKind.PREEMPT: lambda e: f"left={e.left}",
    EventKind.COMPLETE: lambda e: "",
    EventKind.SWAP_OUT: lambda e: (f"extents={_extents_text(e.extents)} "
                                   f"backing={_extents_text(e.backing)}"),
    EventKind.SWAP_IN: lambda e: f"extents={_extents_text(e.extents)}",
    EventKind.DEALLOCATE: lambda e: f"extents={_extents_text(e.extents)}",
}
_EVENT_TEXT = {kind: (kind.value, _DETAIL_TEXT[kind]) for kind in EventKind}


def render_trace(trace: Trace) -> str:
    """One CSV line per event, its fields in the order its record carries
    them."""
    lines = ["instant,event,pid,detail"]
    table = _EVENT_TEXT
    for e in trace.events:
        name, text = table[e.kind]
        lines.append(f"{e.instant},{name},{e.pid},{text(e)}")
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
    # each option below sets the SimConfig field its dest names, and one
    # not given leaves that field's default
    setting = functools.partial(runp.add_argument, type=int, default=argparse.SUPPRESS)
    setting("--quantum", help="round robin quantum")
    setting("--io-quantum")
    setting("--cpu-quantum")
    setting("--unit", dest="unit_size", metavar="UNIT", help="fixed partition unit size")
    setting("--page-size", help="page/frame size")
    setting("--memory", dest="memory_capacity", metavar="MEMORY", help="primary capacity")
    setting("--backing", dest="backing_capacity", metavar="BACKING",
            help="backing capacity (default: memory)")
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
    workload = parse_workload(text)  # a WorkloadError reaches main
    settings = {f.name for f in dataclasses.fields(SimConfig)}
    try:
        cfg = SimConfig(**{k: v for k, v in vars(args).items() if k in settings})
    except ParameterError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    try:
        for path in filter(None, (args.trace, args.metrics)):
            _check_writable(path)
    except OSError as exc:
        print(f"usage error: cannot write {path}: {exc.strerror}", file=err)
        return EXIT_USAGE
    if args.trace and args.metrics:
        target = os.path.realpath(args.trace)
        if target == os.path.realpath(args.metrics) and not _is_special(target):
            print(f"usage error: --trace and --metrics both name {target}", file=err)
            return EXIT_USAGE
    try:
        trace, measured = run(workload, cfg)
    except UnrunnableProcedureError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_UNRUNNABLE
    except TraceLimitError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
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
    symbols = [s for s in map(str.strip, args.symbols.split(",")) if s]
    deps: list[tuple[str, str]] = []
    for pair in args.deps.split(","):
        pair = pair.strip()
        if not pair:
            continue
        sides = [side.strip() for side in pair.split("<")]
        if len(sides) != 2 or not all(sides):
            print(f"usage error: dependency {pair!r} is not of the form a<b", file=err)
            return EXIT_USAGE
        deps.append((sides[0], sides[1]))
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
