"""`osalg run` writes its output files all or nothing."""

import errno
import os
import stat
import tempfile

import pytest

from osalg import cli, sim
from osalg.cli import EXIT_OK, EXIT_UNRUNNABLE, EXIT_USAGE, EXIT_WORKLOAD, main

WORKLOAD = "id=1 size=4 time=3\nid=2 size=4 time=2\n"


def run_to(tmp_path, trace, metrics):
    wpath = tmp_path / "w.txt"
    wpath.write_text(WORKLOAD)
    return main([
        "run", "--workload", str(wpath), "--scheduler", "fcfs",
        "--allocator", "first-fit", "--trace", str(trace), "--metrics", str(metrics),
    ])


def test_failed_metrics_leaves_no_new_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = run_to(tmp_path, trace, tmp_path)
    assert code == EXIT_USAGE
    assert f"usage error: cannot write {tmp_path}: " in capsys.readouterr().err
    assert not trace.exists()
    assert sorted(os.listdir(tmp_path)) == ["w.txt"]  # nothing staged is left


def test_failed_metrics_keeps_an_existing_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("earlier trace\n")
    code = run_to(tmp_path, trace, tmp_path / "missing" / "m.txt")
    assert code == EXIT_USAGE
    assert f"cannot write {tmp_path / 'missing' / 'm.txt'}: " in capsys.readouterr().err
    assert trace.read_text() == "earlier trace\n"
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "w.txt"]


def test_failed_trace_keeps_an_existing_metrics(tmp_path, capsys):
    metrics = tmp_path / "m.txt"
    metrics.write_text("earlier metrics\n")
    code = run_to(tmp_path, tmp_path, metrics)
    assert code == EXIT_USAGE
    assert metrics.read_text() == "earlier metrics\n"


def test_a_write_that_fails_after_the_run_leaves_both_outputs(
        tmp_path, capsys, monkeypatch):
    """The disk fills while the metrics text is written into its staged
    file, after the run, with the trace already written into its own: the
    run is a usage error, both files keep what they held, and no staged
    file is left. (File modes cannot stand in for the fault: root writes
    through them.)"""
    trace, metrics = tmp_path / "t.csv", tmp_path / "m.txt"
    trace.write_text("earlier trace\n")
    metrics.write_text("earlier metrics\n")
    ran = []
    real_run = cli.run

    def running(*args):
        ran.append(True)
        return real_run(*args)

    def opening(file, *args, **kwargs):
        if ran and os.path.basename(file).startswith(".m.txt."):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "run", running)
    monkeypatch.setattr(cli, "open", opening, raising=False)
    assert run_to(tmp_path, trace, metrics) == EXIT_USAGE
    assert ran
    assert capsys.readouterr().err == (
        f"usage error: cannot write {metrics}: {os.strerror(errno.ENOSPC)}\n")
    assert trace.read_text() == "earlier trace\n"
    assert metrics.read_text() == "earlier metrics\n"
    assert sorted(os.listdir(tmp_path)) == ["m.txt", "t.csv", "w.txt"]


def test_each_output_is_staged_once_before_the_run(tmp_path, capsys, monkeypatch):
    ran, staged = [], []
    real_run, real_mkstemp = cli.run, tempfile.mkstemp

    def running(*args):
        ran.append(True)
        return real_run(*args)

    def mkstemp(*args, **kwargs):
        staged.append(bool(ran))
        return real_mkstemp(*args, **kwargs)

    monkeypatch.setattr(cli, "run", running)
    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    assert run_to(tmp_path, tmp_path / "t.csv", tmp_path / "m.txt") == EXIT_OK
    assert ran
    assert staged == [False, False]


@pytest.mark.parametrize("text, flags, code", [
    pytest.param("id=1 size=999 time=1\n", ["--scheduler", "fcfs", "--memory", "16"],
                 EXIT_UNRUNNABLE, id="unrunnable"),
    pytest.param("id=1 size=4 time=5\n", ["--scheduler", "rr", "--quantum", "1"],
                 EXIT_USAGE, id="trace-limit"),
    pytest.param("id=1 size=4 time=5\n", ["--scheduler", "priority"],
                 EXIT_WORKLOAD, id="no-priority"),
])
def test_a_run_that_fails_after_staging_leaves_the_directory(
        tmp_path, capsys, monkeypatch, text, flags, code):
    """The outputs are staged and the simulation fails: the existing
    output keeps its text, the new one is not made, and nothing staged
    is left."""
    monkeypatch.setattr(sim, "MAX_TRACE", 4)
    wpath = tmp_path / "w.txt"
    wpath.write_text(text)
    trace = tmp_path / "t.csv"
    trace.write_text("earlier trace\n")
    ran = []
    real_run = cli.run

    def running(*args):
        ran.append(True)
        return real_run(*args)

    monkeypatch.setattr(cli, "run", running)
    assert main([
        "run", "--workload", str(wpath), "--allocator", "first-fit", *flags,
        "--trace", str(trace), "--metrics", str(tmp_path / "m.txt"),
    ]) == code
    assert ran
    assert trace.read_text() == "earlier trace\n"
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "w.txt"]


def test_success_replaces_both(tmp_path, capsys):
    trace, metrics = tmp_path / "t.csv", tmp_path / "m.txt"
    trace.write_text("x" * 10_000)
    assert run_to(tmp_path, trace, metrics) == EXIT_OK
    assert trace.read_text().startswith("instant,event,pid,detail\n")
    assert metrics.read_text().startswith("makespan=5\n")
    assert sorted(os.listdir(tmp_path)) == ["m.txt", "t.csv", "w.txt"]
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_symlinked_trace_is_written_through(tmp_path, capsys):
    target = tmp_path / "real.csv"
    target.write_text("earlier trace\n")
    link = tmp_path / "t.csv"
    link.symlink_to(target)
    assert run_to(tmp_path, link, tmp_path / "m.txt") == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("instant,event,pid,detail\n")


def test_replaced_file_keeps_its_mode(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("earlier trace\n")
    trace.chmod(0o640)
    assert run_to(tmp_path, trace, tmp_path / "m.txt") == EXIT_OK
    assert stat.S_IMODE(trace.stat().st_mode) == 0o640


def test_new_file_gets_the_mode_of_a_plain_open(tmp_path, capsys):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    metrics = tmp_path / "m.txt"
    assert run_to(tmp_path, tmp_path / "t.csv", metrics) == EXIT_OK
    assert stat.S_IMODE(metrics.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_device_is_written_in_place(tmp_path, capsys):
    metrics = tmp_path / "m.txt"
    assert run_to(tmp_path, os.devnull, metrics) == EXIT_OK
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    assert metrics.read_text().startswith("makespan=5\n")


def test_stdout_waits_for_the_files(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text(WORKLOAD)
    code = main([
        "run", "--workload", str(wpath), "--scheduler", "fcfs",
        "--allocator", "first-fit", "--metrics", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == ""  # the trace is not printed either


@pytest.fixture
def no_simulation(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("the simulation ran before the paths were checked")

    monkeypatch.setattr("osalg.cli.run", run)


def unwritable_dir(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    if os.access(locked, os.W_OK):  # e.g. as root, mode bits do not stop a write
        locked.chmod(0o700)
        pytest.skip("this user can write into a read-only directory")
    return locked / "m.txt"


@pytest.mark.parametrize("bad_path", [
    pytest.param(lambda tmp: tmp, id="directory"),
    pytest.param(lambda tmp: tmp / "missing" / "m.txt", id="missing-parent"),
    pytest.param(lambda tmp: tmp / "w.txt" / "m.txt", id="file-as-parent"),
    pytest.param(unwritable_dir, id="unwritable-parent"),
])
def test_bad_path_is_reported_before_the_run(tmp_path, capsys, no_simulation, bad_path):
    metrics = bad_path(tmp_path)
    code = run_to(tmp_path, tmp_path / "t.csv", metrics)
    assert code == EXIT_USAGE
    assert f"usage error: cannot write {metrics}: " in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def symlink_to_it(tmp_path):
    if not hasattr(os, "symlink"):
        pytest.skip("no symlinks")
    link = tmp_path / "link.txt"
    link.symlink_to(tmp_path / "out.txt")
    return link


@pytest.mark.parametrize("metrics", [
    pytest.param(lambda tmp: tmp / "out.txt", id="same-path"),
    pytest.param(lambda tmp: tmp / "." / "out.txt", id="same-file-other-spelling"),
    pytest.param(symlink_to_it, id="symlink"),
])
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_one_file_for_both_outputs_is_a_usage_error(
        tmp_path, capsys, no_simulation, metrics, existing):
    """Both outputs would replace one file, which would then hold only the
    metrics: the run is refused before it starts and the file is left."""
    out = tmp_path / "out.txt"
    if existing:
        out.write_text("earlier output\n")
    code = run_to(tmp_path, out, metrics(tmp_path))
    assert code == EXIT_USAGE
    assert "usage error: --trace and --metrics both name " in capsys.readouterr().err
    if existing:
        assert out.read_text() == "earlier output\n"
    else:
        assert not out.exists()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_one_device_for_both_outputs_is_written_in_place(tmp_path, capsys):
    assert run_to(tmp_path, os.devnull, os.devnull) == EXIT_OK
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
