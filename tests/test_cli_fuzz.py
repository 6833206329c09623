"""Hostile input to `osalg run` ends in a documented exit code.

`cli.main` runs in process on arbitrary workload bytes, and on workload
text of well-formed fields with arbitrary integers, under every scheduler
and allocator name and integer flags that are negative, zero, small or at
least 2**63. Each case must return 0, 1, 2 or 3, print no traceback,
end within a second, and allocate at most CASE_BYTES at its peak: an
interval timer raises in the case when it runs longer, and `tracemalloc`
measures the peak of what the case allocates.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from osalg.cli import EXIT_OK, EXIT_UNRUNNABLE, EXIT_USAGE, EXIT_WORKLOAD, main
from osalg.sim import ALLOCATORS, SCHEDULERS, STRICT_ENV

CASE_SECONDS = 1.0
# the cases peak near 1 MB; a second of dispatches keeps about 60 MB
CASE_BYTES = 16 * 2**20

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="no interval timer")

# at a signed 64-bit int's edge and past it
HUGE = st.sampled_from([2**31, 2**63 - 1, 2**63, 2**64, 10**30])
SMALL = st.integers(0, 40)
INTS = st.one_of(SMALL, HUGE, st.integers(-3, -1), HUGE.map(lambda n: -n))

FLAGS = ("--memory", "--backing", "--quantum", "--io-quantum", "--cpu-quantum",
         "--unit", "--page-size")


def naturals(draw):
    """Mostly small, one in eight at the edges."""
    return draw(HUGE) if draw(st.integers(0, 7)) == 0 else draw(SMALL)


@st.composite
def workload_text(draw, valid: bool) -> bytes:
    """Procedure lines of the required fields and any of the others, in
    any order. A `valid` workload has unique ids, naturals, a time of at
    least 1, a priority on every line, a known class, and segments that
    sum to the size; any other takes any integer from INTS and any class
    text."""
    ints = (lambda: naturals(draw)) if valid else (lambda: draw(INTS))
    lines = []
    count = draw(st.integers(1, 6))
    for pid in range(1, count + 1) if valid else (ints() for _ in range(count)):
        size = ints()
        time = max(1, ints()) if valid else ints()
        fields = [f"id={pid}", f"size={size}", f"time={time}"]
        if valid or draw(st.booleans()):
            fields.append(f"priority={ints()}")
        if draw(st.booleans()):
            fields.append(f"arrival={ints()}")
        if draw(st.booleans()):
            known = st.sampled_from(["IoBound", "CpuBound"])
            fields.append(f"class={draw(known if valid else st.text(max_size=3) | known)}")
        if draw(st.booleans()):
            if valid:
                cut = draw(st.integers(1, size)) if 1 < size <= 40 else size
                segments = [cut, size - cut] if cut < size else [size]
            else:
                segments = [ints() for _ in range(draw(st.integers(0, 3)))]
            fields.append("segments=" + ",".join(map(str, segments)))
        lines.append(" ".join(draw(st.permutations(fields))))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def cases(draw) -> tuple[bytes, list[str]]:
    """A workload and the flags after `run --workload PATH`. Half the cases
    are valid throughout but for their sizes against the memory: their
    flags are naturals of at least 1, with `--unit` and `--page-size`
    always given. The other half draw bytes or hostile text, and any
    integer from INTS for each flag they give."""
    valid = draw(st.booleans())
    flags = ["--scheduler", draw(st.sampled_from(sorted(SCHEDULERS))),
             "--allocator", draw(st.sampled_from(sorted(ALLOCATORS)))]
    for flag in FLAGS:
        if valid and flag in ("--unit", "--page-size"):
            flags += [flag, str(max(1, naturals(draw)))]
        elif draw(st.booleans()):
            flags += [flag, str(max(1, naturals(draw)) if valid else draw(INTS))]
    if valid:
        workload = draw(workload_text(True))
    else:
        workload = draw(workload_text(False) | st.binary(max_size=200))
    return workload, flags


class Hang(BaseException):
    """Raised into a case that outlives CASE_SECONDS; no `except OSError`
    or `except Exception` in the program under test catches it."""


def too_long(signum, frame):
    raise Hang(f"a case ran past {CASE_SECONDS} s")


@pytest.fixture(scope="module")
def workload_path():
    with tempfile.TemporaryDirectory() as directory:
        yield os.path.join(directory, "w.txt")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), strict=st.booleans())
def test_hostile_input_ends_in_a_documented_exit_code(workload_path, case, strict):
    workload, flags = case
    with open(workload_path, "wb") as handle:
        handle.write(workload)
    argv = ["run", "--workload", workload_path, *flags]
    out, err = io.StringIO(), io.StringIO()
    saved_strict = os.environ.get(STRICT_ENV)
    os.environ[STRICT_ENV] = "1" if strict else "0"
    previous = signal.signal(signal.SIGALRM, too_long)
    tracemalloc.start()
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        signal.signal(signal.SIGALRM, previous)
        if saved_strict is None:
            del os.environ[STRICT_ENV]
        else:
            os.environ[STRICT_ENV] = saved_strict
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_WORKLOAD, EXIT_UNRUNNABLE), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == EXIT_OK) == (err.getvalue() == ""), err.getvalue()
    assert peak <= CASE_BYTES, f"a case allocated {peak} bytes at its peak"
