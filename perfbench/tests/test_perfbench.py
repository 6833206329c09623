"""The benchmark's own tests: generator, checker and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io

import pytest

import check
import spans
import workloads
from osalg import cli

TINY = "id=1 size=4 time=3 arrival=0\nid=2 size=4 time=2 arrival=1\n"


def run_cli(tmp_path, text, *flags):
    path = tmp_path / "w.txt"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--workload", str(path), *flags])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_generator_is_deterministic_per_seed(name):
    spec = workloads.SPECS[name]
    assert workloads.workload_text(spec, 7, 0) == workloads.workload_text(spec, 7, 0)
    assert workloads.workload_text(spec, 7, 0) != workloads.workload_text(spec, 8, 0)
    assert workloads.jobs(spec, 7) == workloads.jobs(spec, 7)


def test_generated_files_parse(tmp_path):
    for spec in workloads.SPECS.values():
        procs = cli.parse_workload(workloads.workload_text(spec, 3, 0))
        assert len(procs) == spec.procs


def test_checker_accepts_real_output(tmp_path):
    spec = workloads.SPECS["stream-tight"]
    for allocator in spec.allocators:
        out = run_cli(tmp_path, workloads.workload_text(spec, 5, 0),
                      "--scheduler", "rr", "--quantum", "2", "--allocator", allocator,
                      "--unit", "16", "--memory", "128", "--backing", "64")
        assert "SwapOut" in out
        assert check.check(out, 128) == []


@pytest.fixture
def tiny(tmp_path):
    out = run_cli(tmp_path, TINY, "--scheduler", "fcfs", "--allocator", "first-fit",
                  "--memory", "8")
    assert check.check(out, 8) == []
    return out


def replace_line(text, prefix, new):
    lines = text.split("\n")
    (index,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[index] = new
    return "\n".join(lines)


def test_checker_rejects_overlapping_slice(tiny):
    # pid 2's slice [3..5) moved to start inside pid 1's [0..3)
    bad = tiny.replace("3,Dispatch,2,run=2", "2,Dispatch,2,run=2")
    assert bad != tiny
    assert any("overlaps one ending at 3" in p for p in check.check(bad, 8))


def test_checker_rejects_overlapping_extents(tiny):
    bad = replace_line(tiny, "1,Allocate,2,", "1,Allocate,2,extents=[2..6) ext_frag=1 int_frag=0")
    bad = bad.replace("5,Deallocate,2,extents=[4..8)", "5,Deallocate,2,extents=[2..6)")
    assert any("overlaps [0..4) of pid 1" in p for p in check.check(bad, 8))


def test_checker_rejects_extent_beyond_capacity(tiny):
    assert any("outside [0..6)" in p for p in check.check(tiny, 6))


def test_checker_rejects_wrong_mean_waiting(tiny):
    bad = replace_line(tiny, "mean_waiting=", "mean_waiting=3/2")
    assert check.check(bad, 8) == ["metric mean_waiting=3/2, trace gives 1"]


def test_checker_rejects_missing_complete(tiny):
    bad = replace_line(tiny, "5,Complete,2", "5,Preempt,2,left=0")
    assert "pid 2 arrives but never completes" in check.check(bad, 8)


def snapshot():
    """Every attribute the tracer patches, as currently bound."""
    taken = {}
    for module, path in spans.TARGETS.values():
        owner, attr = spans._resolve(module, path)
        taken[(module, path)] = vars(owner)[attr]
    return taken


def test_traced_run_leaves_osalg_unpatched(tmp_path):
    before = snapshot()
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert snapshot() != before
        main = tracer.wrap(spans.ROOT, cli.main)
        path = tmp_path / "w.txt"
        path.write_text(TINY)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["run", "--workload", str(path), "--scheduler", "rr",
                         "--allocator", "paging", "--page-size", "2", "--memory", "8"]) == 0
    after = snapshot()
    assert all(after[k] is before[k] for k in before)
    calls, self_ns, _ = tracer.totals()
    assert calls[spans.ROOT] == 1 and calls["sim.run"] == 1
    assert calls["binding.record"] > 1
    assert all(ns >= 0 for ns in self_ns.values())


def test_tracer_restores_after_an_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            raise RuntimeError
    assert all(snapshot()[k] is before[k] for k in before)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    calls, self_ns, _ = tracer.totals()
    assert calls == {"outer": 1, "inner": 2}
    outer_span = next(s for s in tracer.spans if s[0] == "outer")
    inner_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == "inner")
    assert self_ns["outer"] == outer_span[2] - outer_span[1] - inner_ns
