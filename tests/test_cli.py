"""Workload parsing, trace rendering, and the command-line surface."""

import contextlib
import io
import importlib.util
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osalg import Extent, Procedure, SimConfig, WorkClass, cli, run, sim
from osalg.cli import (
    EXIT_OK,
    EXIT_UNRUNNABLE,
    EXIT_USAGE,
    EXIT_WORKLOAD,
    main,
    parse_workload,
    render_trace,
)
from osalg.combinators import Chunk, free_store
from osalg.errors import TraceLimitError, WorkloadError
from osalg.sim import ALLOCATORS, SCHEDULERS, EventKind, Trace

from conftest import emit_workload

REPO = Path(__file__).resolve().parents[1]

TWO_RECORDS = """\
# two batch procedures
id=1 size=4 time=3 arrival=0
id=2 size=4 time=2 arrival=0
"""

FULL_RECORD = (
    "id=5 size=10 time=4 arrival=2 priority=3 owner=ops "
    "class=IoBound segments=4,6\n"
)


@st.composite
def full_procedure(draw, pid):
    """A procedure that sets every field, its size the sum of its
    segments."""
    segments = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    return Procedure(
        id=pid, size=sum(segments), time=draw(st.integers(1, 99)),
        priority=draw(st.integers(0, 9)),
        owner=draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789_-=.", min_size=1,
                           max_size=6)),
        arrival=draw(st.integers(0, 20)), io_class=draw(st.sampled_from(WorkClass)),
        segments=segments,
    )


@st.composite
def workload_lines(draw):
    """Procedures of unique ids in any order, each written as README's
    format writes one, its fields in any order."""
    ids = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    procedures = [draw(full_procedure(pid)) for pid in ids]
    lines = []
    for p in procedures:
        fields = [f"id={p.id}", f"size={p.size}", f"time={p.time}",
                  f"arrival={p.arrival}", f"priority={p.priority}", f"owner={p.owner}",
                  f"class={p.io_class.value}",
                  "segments=" + ",".join(map(str, p.segments))]
        lines.append(" ".join(draw(st.permutations(fields))))
    return procedures, "\n".join(lines) + "\n"


class TestParseWorkload:
    def test_two_record_file(self):
        ps = parse_workload(TWO_RECORDS)
        assert [p.id for p in ps] == [1, 2]
        assert ps[0].size == 4 and ps[0].time == 3

    def test_all_fields_parse(self):
        (p,) = parse_workload(FULL_RECORD)
        assert (p.priority, p.owner) == (3, "ops")
        assert p.io_class is WorkClass.IO_BOUND
        assert p.segments == (4, 6)

    def test_arrival_defaults_to_zero(self):
        (p,) = parse_workload("id=1 size=1 time=1\n")
        assert p.arrival == 0

    def test_sorted_by_arrival_then_id(self):
        text = "id=2 size=1 time=1 arrival=5\nid=1 size=1 time=1 arrival=0\n"
        assert [p.id for p in parse_workload(text)] == [1, 2]

    def test_duplicate_id_names_it(self):
        text = "id=3 size=1 time=1\nid=3 size=2 time=1\n"
        with pytest.raises(WorkloadError, match="duplicate id 3") as exc:
            parse_workload(text)
        assert exc.value.line == 2

    def test_zero_time_names_the_field(self):
        with pytest.raises(WorkloadError, match="time must be >= 1") as exc:
            parse_workload("id=1 size=1 time=0\n")
        assert exc.value.line == 1

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(WorkloadError) as exc:
            parse_workload("id=1 size=4 time=2\nwhat is this\n")
        assert exc.value.line == 2

    @settings(max_examples=100, deadline=None)
    @given(workload_lines())
    def test_every_field_reads_back_in_arrival_order(self, workload):
        """A workload whose records set every field parses back to the
        same procedures, sorted by arrival and then id."""
        procedures, text = workload
        parsed = list(parse_workload(text))
        assert parsed == sorted(procedures, key=lambda p: (p.arrival, p.id))

    @pytest.mark.parametrize("record, message", [
        ("size=2 time=1", "missing field 'id'"),
        ("id=7 time=1", "missing field 'size'"),
        ("id=7 size=2", "missing field 'time'"),
        ("id=7 size=2 time=1 color=red", "unknown field 'color'"),
        ("id=7 size=2 time=1 io_class=IoBound", "unknown field 'io_class'"),
        ("id=7 size=2 time=1 Time=1", "unknown field 'Time'"),
    ], ids=["no-id", "no-size", "no-time", "color", "io_class", "Time"])
    def test_a_record_outside_the_table_names_the_key_and_its_line(self, record, message):
        """A record that lacks a required key, or sets one outside the
        table (such as the field name `io_class` for the key `class`), is
        refused with a WorkloadError naming the key and the record's line,
        after a record that sets every field reads cleanly."""
        with pytest.raises(WorkloadError, match=message) as exc:
            parse_workload(FULL_RECORD + record + "\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("record, key", [
        ("id=1 size=x time=1", "size"),
        ("id=x size=1 time=1", "id"),
        ("id=1 size=1 time=1 class=Idle", "class"),
        ("id=1 size=3 time=1 segments=1,x", "segments"),
    ], ids=["size", "id", "class", "segments"])
    def test_a_value_that_does_not_read_names_its_key(self, tmp_path, capsys, record, key):
        """The text of a value that does not read is refused with its key
        and line, and `osalg run` exits 2."""
        with pytest.raises(WorkloadError, match=f"^line 1: field '{key}': ") as exc:
            parse_workload(record + "\n")
        assert exc.value.line == 1
        wpath = tmp_path / "w.txt"
        wpath.write_text(record + "\n")
        code = main(["run", "--workload", str(wpath), "--scheduler", "fcfs",
                     "--allocator", "first-fit"])
        assert code == EXIT_WORKLOAD
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_comments_and_blanks_skipped(self):
        ps = parse_workload("\n# comment\nid=1 size=1 time=1  # trailing\n\n")
        assert len(ps) == 1

    def test_round_trip_is_semantically_identical(self):
        original = parse_workload(TWO_RECORDS + FULL_RECORD)
        again = parse_workload(emit_workload(original))
        assert list(again) == list(original)


class TestMainRun:
    def workload_path(self, tmp_path, text=TWO_RECORDS):
        path = tmp_path / "w.txt"
        path.write_text(text)
        return str(path)

    def test_run_to_files(self, tmp_path, capsys):
        wpath = self.workload_path(tmp_path)
        tpath, mpath = tmp_path / "t.csv", tmp_path / "m.txt"
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "first-fit", "--memory", "64",
            "--trace", str(tpath), "--metrics", str(mpath),
        ])
        assert code == EXIT_OK
        trace_text = tpath.read_text()
        assert trace_text.startswith("instant,event,pid,detail\n")
        assert "Dispatch" in trace_text
        assert "makespan=5" in mpath.read_text()

    def test_run_to_stdout(self, tmp_path, capsys):
        wpath = self.workload_path(tmp_path)
        code = main([
            "run", "--workload", wpath, "--scheduler", "sjf-time",
            "--allocator", "buddy", "--memory", "64",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.startswith("instant,event,pid,detail\n")
        assert "mean_waiting=" in captured.out

    def test_trace_byte_stable_across_runs(self, tmp_path):
        wpath = self.workload_path(tmp_path, TWO_RECORDS + FULL_RECORD)
        outputs = []
        for i in range(2):
            tpath = tmp_path / f"t{i}.csv"
            code = main([
                "run", "--workload", wpath, "--scheduler", "rr", "--quantum", "2",
                "--allocator", "paging", "--page-size", "4", "--memory", "32",
                "--trace", str(tpath), "--metrics", str(tmp_path / f"m{i}.txt"),
            ])
            assert code == EXIT_OK
            outputs.append(tpath.read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_scheduler_is_usage_error(self, tmp_path, capsys):
        wpath = self.workload_path(tmp_path)
        code = main([
            "run", "--workload", wpath, "--scheduler", "lottery",
            "--allocator", "first-fit",
        ])
        assert code == EXIT_USAGE

    def test_unknown_allocator_is_usage_error(self, tmp_path, capsys):
        wpath = self.workload_path(tmp_path)
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "slab",
        ])
        assert code == EXIT_USAGE
        assert "invalid choice: 'slab'" in capsys.readouterr().err

    def test_missing_parameter_is_usage_error(self, tmp_path):
        wpath = self.workload_path(tmp_path)
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "paging",  # no --page-size
        ])
        assert code == EXIT_USAGE

    def test_malformed_workload_reports_line(self, tmp_path, capsys):
        wpath = self.workload_path(tmp_path, "id=1 size=1 time=0\n")
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "first-fit",
        ])
        assert code == EXIT_WORKLOAD
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("id=1 size=1\n", "missing field 'time'"),
        ("id=1 size=1 size=2 time=1\n", "field 'size' repeated"),
    ], ids=["missing", "repeated"])
    def test_malformed_record_fields_report_line(self, tmp_path, capsys, text, message):
        wpath = self.workload_path(tmp_path, text)
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "first-fit",
        ])
        assert code == EXIT_WORKLOAD
        assert capsys.readouterr().err == f"error: line 1: {message}\n"

    def test_missing_file_is_workload_error(self, tmp_path):
        code = main([
            "run", "--workload", str(tmp_path / "absent.txt"),
            "--scheduler", "fcfs", "--allocator", "first-fit",
        ])
        assert code == EXIT_WORKLOAD

    def test_undecodable_workload_is_workload_error(self, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_bytes(b"id=1 size=1 time=1 owner=\xff\n")
        code = main([
            "run", "--workload", str(wpath), "--scheduler", "fcfs",
            "--allocator", "first-fit",
        ])
        assert code == EXIT_WORKLOAD
        assert capsys.readouterr().err.startswith("error: cannot read workload: ")

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_output_path_naming_a_directory_is_usage_error(self, tmp_path, capsys, flag):
        wpath = self.workload_path(tmp_path)
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "first-fit", flag, str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert f"usage error: cannot write {tmp_path}: " in capsys.readouterr().err

    def test_unrunnable_exit_code(self, tmp_path):
        wpath = self.workload_path(tmp_path, "id=1 size=999 time=1\n")
        code = main([
            "run", "--workload", wpath, "--scheduler", "fcfs",
            "--allocator", "first-fit", "--memory", "16", "--backing", "16",
        ])
        assert code == EXIT_UNRUNNABLE

    def test_priority_scheduler_needs_priorities(self, tmp_path, capsys):
        wpath = self.workload_path(tmp_path)
        code = main([
            "run", "--workload", wpath, "--scheduler", "priority",
            "--allocator", "first-fit",
        ])
        assert code == EXIT_WORKLOAD


@pytest.mark.parametrize("flags, message", [
    (["--scheduler", "fcfs", "--allocator", "fixed"],
     "fixed allocator needs --unit >= 1"),
    (["--scheduler", "fcfs", "--allocator", "fixed", "--unit", "0"],
     "fixed allocator needs --unit >= 1"),
    (["--scheduler", "fcfs", "--allocator", "paging", "--page-size", "0"],
     "paging allocator needs --page-size >= 1"),
    (["--scheduler", "fcfs", "--allocator", "buddy", "--memory", "48"],
     "buddy allocator needs a power-of-two capacity"),
    (["--scheduler", "rr", "--quantum", "0", "--allocator", "first-fit"],
     "round robin quantum must be >= 1"),
    (["--scheduler", "var-quantum", "--io-quantum", "0", "--allocator", "first-fit"],
     "class quanta must be >= 1"),
    (["--scheduler", "var-quantum", "--cpu-quantum", "0", "--allocator", "first-fit"],
     "class quanta must be >= 1"),
])
def test_parameter_checks_are_usage_errors(tmp_path, capsys, flags, message):
    wpath = tmp_path / "w.txt"
    wpath.write_text(TWO_RECORDS)
    code = main(["run", "--workload", str(wpath), *flags])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_help_lists_the_registry_names(capsys):
    assert main(["run", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "--scheduler {" + ",".join(SCHEDULERS) + "}" in out
    assert "--allocator {" + ",".join(ALLOCATORS) + "}" in out


def test_bench_names_match_the_registries(monkeypatch):
    """The benchmark imports nothing from osalg, so its own copy of the
    scheduler and allocator names is checked here."""
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert workloads.SCHEDULERS == tuple(SCHEDULERS)
    assert workloads.ALLOCATORS == tuple(ALLOCATORS)


# A value for each event field, with its text in the trace; a field not
# listed here takes 7, which renders as 7
FIELD_VALUES = {
    "size": (6, "6"), "time": (3, "3"), "priority": (2, "2"), "owner": ("ops", "ops"),
    "io_class": (WorkClass.IO_BOUND, "IoBound"),
    "extents": ((Extent(0, 4), Extent(8, 10)), "[0..4)+[8..10)"),
    "backing": ((Extent(0, 6),), "[0..6)"),
    "pages": (((0, 1), (1, 3)), "0:1+1:3"),
    "segments": (((0, 4, 0), (1, 2, 8)), "4@0+2@8"),
    "ext_frag": (Fraction(2, 3), "2/3"), "int_frag": (1, "1"),
    "run": (2, "2"), "left": (1, "1"),
}
# the fields only some events carry, and the label of each field not shown
# by its own name
OPTIONAL_FIELDS = {"priority", "owner", "io_class", "pages", "segments", "ext_frag"}
FIELD_LABELS = {"io_class": "class"}


def test_render_trace_renders_every_field_kind():
    """The detail of each record lists its fields in the record's order,
    under their labels; an optional field that is None is left out, but
    for ext_frag, which renders as -. Each kind is rendered with every
    field set, then with each optional field None in turn, so a field a
    record gains that the renderer does not show fails here."""
    trace = Trace(events=(
        sim.Arrive(0, 1, 6, 3, 2, "ops", WorkClass.IO_BOUND),
        sim.Admit(0, 1),
        sim.Allocate(0, 1, (Extent(0, 4), Extent(8, 10)), None, ((0, 4, 0), (1, 2, 8)),
                     Fraction(2, 3), 0),
        sim.Allocate(0, 2, (Extent(4, 8),), ((0, 1), (1, 3)), None, None, 1),
        sim.Dispatch(0, 1, 2),
        sim.Preempt(2, 1, 1),
        sim.SwapOut(2, 1, (Extent(0, 4), Extent(8, 10)), (Extent(0, 6),)),
        sim.SwapIn(3, 1, ()),
        sim.Complete(4, 1),
        sim.Deallocate(4, 1, ()),
    ))
    assert render_trace(trace) == (
        "instant,event,pid,detail\n"
        "0,Arrive,1,size=6 time=3 priority=2 owner=ops class=IoBound\n"
        "0,Admit,1,\n"
        "0,Allocate,1,extents=[0..4)+[8..10) segments=4@0+2@8 ext_frag=2/3 int_frag=0\n"
        "0,Allocate,2,extents=[4..8) pages=0:1+1:3 ext_frag=- int_frag=1\n"
        "0,Dispatch,1,run=2\n"
        "2,Preempt,1,left=1\n"
        "2,SwapOut,1,extents=[0..4)+[8..10) backing=[0..6)\n"
        "3,SwapIn,1,extents=-\n"
        "4,Complete,1,\n"
        "4,Deallocate,1,extents=-\n"
    )
    records = sim.TraceEvent.__subclasses__()
    assert sorted(r.kind.rank for r in records) == list(range(len(EventKind)))
    for record in records:
        kind, fields = record.kind, record._fields[2:]
        assert record._fields[:2] == ("instant", "pid")
        for gone in (None, *sorted(OPTIONAL_FIELDS.intersection(fields))):
            values = {f: (None, "-") if f == gone else FIELD_VALUES.get(f, (7, "7"))
                      for f in fields}
            event = record(5, 9, **{f: value for f, (value, _) in values.items()})
            detail = " ".join(f"{FIELD_LABELS.get(f, f)}={text}"
                              for f, (value, text) in values.items()
                              if value is not None or f == "ext_frag")
            assert render_trace(Trace(events=(event,))) == (
                f"instant,event,pid,detail\n5,{kind.value},9,{detail}\n"), (kind, gone)


def test_metrics_past_the_int_to_str_digit_limit(tmp_path):
    """The mean fragmentation of a few thousand buddy grants has a
    denominator of more digits than str() of an int allows by default;
    it is still written exactly."""
    rng = random.Random(0)
    text = "".join(
        f"id={i} size={rng.randint(1, 16)} time={rng.randint(1, 12)}\n"
        for i in range(1, 2501)
    )
    wpath, mpath = tmp_path / "w.txt", tmp_path / "m.txt"
    wpath.write_text(text)
    code = main([
        "run", "--workload", str(wpath), "--scheduler", "sjf-time",
        "--allocator", "buddy", "--memory", "65536",
        "--trace", str(tmp_path / "t.csv"), "--metrics", str(mpath),
    ])
    assert code == EXIT_OK
    line = mpath.read_text().splitlines()[3]
    key, value = line.split("=")
    numerator, denominator = value.split("/")
    assert key == "mean_external_fragmentation" and len(denominator) > 4300
    cfg = SimConfig(memory_capacity=65536, scheduler="sjf-time", allocator="buddy")
    _, measured = run(parse_workload(text), cfg)
    assert Fraction(int(Decimal(numerator)), int(Decimal(denominator))) == (
        measured.mean_external_fragmentation
    )


@pytest.mark.parametrize("allocator, flags", [
    pytest.param("first-fit", [], id="first-fit"),
    pytest.param("buddy", [], id="buddy"),
    pytest.param("segmentation", [], id="segmentation"),
    pytest.param("fixed", ["--unit", "4"], id="fixed"),
    pytest.param("paging", ["--page-size", "1"], id="paging"),
])
def test_huge_memory_costs_no_more_than_its_workload(tmp_path, allocator, flags):
    """A 2**30-unit memory is built and run without touching every unit,
    also when it is cut into 4-unit partitions or 1-unit frames."""
    wpath = tmp_path / "w.txt"
    wpath.write_text(TWO_RECORDS)
    tracemalloc.start()
    try:
        code = main([
            "run", "--workload", str(wpath), "--scheduler", "fcfs",
            "--allocator", allocator, *flags, "--memory", str(1 << 30),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.txt"),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert "makespan=5" in (tmp_path / "m.txt").read_text()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("strict", ["0", "1"])
@pytest.mark.parametrize("allocator, flags", [
    pytest.param("first-fit", [], id="first-fit"),
    pytest.param("buddy", [], id="buddy"),
    pytest.param("segmentation", [], id="segmentation"),
    pytest.param("fixed", ["--unit", "4"], id="fixed"),
    pytest.param("paging", ["--page-size", "4"], id="paging"),
])
def test_memory_past_the_index_range_runs(tmp_path, capsys, monkeypatch,
                                          allocator, flags, strict):
    """2**64 units, more than len() can count, run like any memory: exit 0
    and no traceback, with strict mode off or on."""
    monkeypatch.setenv("OSALG_STRICT", strict)
    wpath = tmp_path / "w.txt"
    wpath.write_text(TWO_RECORDS)
    code = main([
        "run", "--workload", str(wpath), "--scheduler", "fcfs",
        "--allocator", allocator, *flags, "--memory", str(2**64),
        "--backing", str(2**64),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "Traceback" not in captured.err
    assert "makespan=5" in captured.out


def test_a_memory_past_the_index_range_that_buddy_cannot_split_is_a_usage_error(
    tmp_path, capsys
):
    wpath = tmp_path / "w.txt"
    wpath.write_text(TWO_RECORDS)
    code = main(["run", "--workload", str(wpath), "--scheduler", "fcfs",
                 "--allocator", "buddy", "--memory", str(10**23)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == "usage error: buddy allocator needs a power-of-two capacity\n"


@pytest.mark.parametrize("record, flags", [
    pytest.param("id=1 size=4 time=999999999999999999999",
                 ["--scheduler", "rr", "--quantum", "1", "--allocator", "first-fit",
                  "--memory", "64"], id="rr-dispatches"),
    pytest.param(f"id=1 size={10**23} time=1",
                 ["--scheduler", "fcfs", "--allocator", "paging", "--page-size", "1",
                  "--memory", str(10**23)], id="paging-pages"),
])
def test_a_run_past_the_trace_limit_is_a_usage_error(tmp_path, record, flags):
    """10**21 quanta of CPU time, or 10**23 one-unit pages, are refused
    before the run: exit 1 within 2 s and 600 MB of address space, and no
    traceback."""
    wpath = tmp_path / "w.txt"
    wpath.write_text(record + "\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))

    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-m", "osalg.cli", "run", "--workload", str(wpath), *flags],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert time.monotonic() - started < 2
    assert child.returncode == EXIT_USAGE
    assert "Traceback" not in child.stderr
    assert child.stderr == (f"usage error: the trace would hold more than {sim.MAX_TRACE} "
                            "dispatches and listed pages\n")


def trace_bound(procedures, cfg):
    """`sim.trace_bound` under the scheduler and allocator cfg names."""
    return sim.trace_bound(procedures, SCHEDULERS[cfg.scheduler](cfg),
                           ALLOCATORS[cfg.allocator](cfg))


def test_trace_bound_counts_dispatches_and_listed_pages():
    ps = parse_workload("id=1 size=10 time=3\nid=2 size=0 time=4\n")
    assert trace_bound(ps, SimConfig()) == 2  # one dispatch each
    assert trace_bound(ps, SimConfig(scheduler="rr", quantum=2)) == 2 + 2
    assert trace_bound(ps, SimConfig(scheduler="var-quantum", io_quantum=1,
                                     cpu_quantum=3)) == 1 + 2
    paging = SimConfig(allocator="paging", page_size=4)
    assert trace_bound(ps, paging) == 2 + 3


def test_the_bound_and_feasibility_count_chunks_without_building_them(monkeypatch):
    """`trace_bound` and paging feasibility read each chunk's O(1) count
    and first piece: with `Chunk.pieces` out of order they still measure
    10**21 quanta of CPU time and 10**23 one-unit pages at once."""
    def no_pieces(chunk, p, demand):
        raise AssertionError("pieces built")

    monkeypatch.setattr(Chunk, "pieces", no_pieces)
    huge = Procedure(id=1, size=10**23, time=10**21)
    cfg = SimConfig(scheduler="rr", quantum=1, allocator="paging", page_size=1,
                    memory_capacity=10**23)
    assert trace_bound([huge], cfg) == 10**21 + 10**23
    paging = ALLOCATORS["paging"](cfg).discipline
    assert free_store(paging.organize, 10**23).fits(paging.chunk, huge)
    assert not free_store(paging.organize, 10**23 - 1).fits(paging.chunk, huge)


def test_a_run_at_the_trace_limit_runs(tmp_path, capsys, monkeypatch):
    wpath = tmp_path / "w.txt"
    wpath.write_text("id=1 size=4 time=5\n")
    argv = ["run", "--workload", str(wpath), "--scheduler", "rr", "--quantum", "1",
            "--allocator", "first-fit"]
    monkeypatch.setattr(sim, "MAX_TRACE", 5)
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(sim, "MAX_TRACE", 4)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: the trace would hold")


def swapping_text(n, size):
    """Procedure 1, of `size` one-unit pages and 4n units of time, and n
    procedures of one unit, each arriving an instant after the last with a
    priority: in a memory of `size` units, each of them swaps procedure 1
    out, and its completion swaps it back in."""
    return "".join([f"id=1 size={size} time={4 * n}\n"] + [
        f"id={i} size=1 time=1 arrival={i - 1} priority=5\n" for i in range(2, n + 2)])


def swapping_flags(size):
    return ["--scheduler", "rr", "--quantum", "1", "--allocator", "paging",
            "--page-size", "1", "--memory", str(size), "--backing", str(size)]


def test_the_extents_each_swap_lists_count_toward_the_limit(tmp_path, capsys, monkeypatch):
    """`trace_bound` counts procedure 1's pages once, but each SwapOut and
    SwapIn lists its extents again, so its trace holds over 40 times the bound.
    The run counts what each swap lists: at exactly the limit it runs, one
    below it stops at a swap with the usage error."""
    ps = parse_workload(swapping_text(50, 200))
    cfg = SimConfig(memory_capacity=200, backing_capacity=200, scheduler="rr",
                    quantum=1, allocator="paging", page_size=1)
    trace, _ = run(ps, cfg)
    relisted = sum(len(e.extents) + len(getattr(e, "backing", ()))
                   for e in trace if e.kind in (EventKind.SWAP_OUT, EventKind.SWAP_IN))
    assert trace_bound(ps, cfg) == 500 and relisted > 40 * 500
    monkeypatch.setattr(sim, "MAX_TRACE", 500 + relisted)
    assert run(ps, cfg)[0] == trace
    monkeypatch.setattr(sim, "MAX_TRACE", 500 + relisted - 1)
    with pytest.raises(TraceLimitError):
        run(ps, cfg)
    wpath = tmp_path / "w.txt"
    wpath.write_text(swapping_text(50, 200))
    assert main(["run", "--workload", str(wpath), *swapping_flags(200)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"usage error: the trace would hold more than "
                                       f"{500 + relisted - 1} dispatches and listed pages\n")


def test_a_run_that_swaps_past_the_trace_limit_is_a_usage_error(tmp_path):
    """16 000 small procedures each swap a 20 000-page procedure out and
    in: the bound known before the run is 116 000, but the swaps would
    list 640 million extents. The run stops at its third SwapOut: exit 1
    within 2 s and 600 MB of address space, and no traceback."""
    wpath = tmp_path / "w.txt"
    wpath.write_text(swapping_text(16_000, 20_000))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))

    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-m", "osalg.cli", "run", "--workload", str(wpath),
         *swapping_flags(20_000)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert time.monotonic() - started < 2
    assert child.returncode == EXIT_USAGE
    assert child.stdout == ""
    assert child.stderr == (f"usage error: the trace would hold more than {sim.MAX_TRACE} "
                            "dispatches and listed pages\n")


def test_one_parser_serves_every_main_call(tmp_path):
    """The parser is built once in a process. Later calls, bad flags among
    them, still exit 0 or 1, and their usage text goes to the stderr in
    place at each call."""
    wpath = tmp_path / "w.txt"
    wpath.write_text(TWO_RECORDS)
    good = ["run", "--workload", str(wpath), "--scheduler", "rr",
            "--quantum", "2", "--allocator", "first-fit"]
    calls = [
        (good, EXIT_OK),
        (good[:-1] + ["lottery"], EXIT_USAGE),
        (good + ["--quantum", "two"], EXIT_USAGE),
        (good, EXIT_OK),
        (["orderings"], EXIT_USAGE),
        ([], EXIT_USAGE),
        (["--help"], EXIT_OK),
        (good, EXIT_OK),
    ]
    outputs = []
    for argv, expected in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == expected, argv
        outputs.append((argv, out.getvalue(), err.getvalue()))
        if expected == EXIT_USAGE:
            assert err.getvalue().startswith("usage: osalg"), argv
            assert out.getvalue() == ""
        else:
            assert err.getvalue() == ""
    runs = {text for argv, text, _ in outputs if argv == good}
    assert len(runs) == 1 and "makespan=" in runs.pop()
    assert "invalid choice: 'lottery'" in outputs[1][2]
    assert outputs[6][1].startswith("usage: osalg")
    assert cli._build_parser.cache_info().misses == 1


class TestMainOrderings:
    def test_page_table_orders(self, capsys):
        code = main([
            "orderings", "--symbols", "frames,pages,page_table",
            "--deps", "frames<page_table,pages<page_table",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "frames,pages,page_table",
            "pages,frames,page_table",
        ]

    def test_no_deps_factorial(self, capsys):
        code = main(["orderings", "--symbols", "a,b,c"])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_cycle_reported(self, capsys):
        code = main(["orderings", "--symbols", "a,b", "--deps", "a<b,b<a"])
        assert code == EXIT_WORKLOAD
        assert "cyclic" in capsys.readouterr().err

    def test_long_chain_has_one_order(self, capsys):
        # the chain runs against the lexicographic order of its names
        names = [f"s{i:04d}" for i in range(3000)]
        deps = ",".join(f"{b}<{a}" for a, b in zip(names, names[1:]))
        code = main(["orderings", "--symbols", ",".join(names), "--deps", deps])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ",".join(reversed(names)) + "\n"

    def test_symbols_are_stripped_like_the_deps(self, capsys):
        """Spaces around a symbol, and empty entries, name no symbol."""
        code = main(["orderings", "--symbols", "a, b,, ", "--deps", "a<b"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "a,b\n"

    def test_bad_dep_syntax_is_usage_error(self, capsys):
        """A pair needs exactly one `<`, with a symbol on each side."""
        for deps in ["a-b", "<b", "a<", "<", " < b", "a<b<c", "a<<b"]:
            code = main(["orderings", "--symbols", "a,b", "--deps", deps])
            assert code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"dependency {deps.strip()!r} is not of the form a<b" in captured.err


@pytest.mark.parametrize("command, lines_read", [
    (["orderings", "--symbols", "a,b,c,d,e,f,g,h"], 1),  # | head -1
    (["run", "--scheduler", "fcfs", "--allocator", "first-fit"], 0),  # | head -0
])
def test_closed_pipe_ends_quietly(tmp_path, command, lines_read):
    """A reader that closes the pipe early ends the command with exit 0
    and nothing on stderr, also at the interpreter's final flush."""
    if command[0] == "run":
        (tmp_path / "w.txt").write_text(TWO_RECORDS)
        command = [*command, "--workload", str(tmp_path / "w.txt")]
    child = subprocess.Popen(
        [sys.executable, "-m", "osalg.cli", *command],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    for _ in range(lines_read):
        assert child.stdout.readline()
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == EXIT_OK
    child.stderr.close()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
