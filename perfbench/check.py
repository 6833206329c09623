"""Independent checker for the text one ``osalg run`` prints.

It re-derives everything from the trace CSV and the metrics lines and
imports nothing from ``osalg``, so a defect in the simulator cannot hide
behind shared code. ``check`` returns the list of problems found, empty
when the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

HEADER = "instant,event,pid,detail"
KINDS = {"Arrive", "Admit", "Allocate", "Dispatch", "Preempt", "Complete",
         "SwapOut", "SwapIn", "Deallocate"}


def _detail(text: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in text.split())


def _extents(text: str) -> list[tuple[int, int]]:
    """Parse ``[a..b)+[c..d)``; ``-`` is the empty list."""
    if text == "-":
        return []
    out = []
    for item in text.split("+"):
        start, end = item[1:-1].split("..")
        out.append((int(start), int(end)))
    return out


def split_output(out: str) -> tuple[list[list[str]], dict[str, str]]:
    """The trace rows (instant, event, pid, detail) and the metrics lines."""
    lines = out.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing trace header")
    rows: list[list[str]] = []
    metrics: dict[str, str] = {}
    for line in lines[1:]:
        if metrics or line.startswith("makespan="):
            key, value = line.split("=", 1)
            metrics[key] = value
        else:
            rows.append(line.split(",", 3))
    return rows, metrics


def check(out: str, capacity: int) -> list[str]:
    """Every way the output breaks the simulator's contract."""
    try:
        rows, metrics = split_output(out)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    problems: list[str] = []
    arrival: dict[int, int] = {}
    need: dict[int, int] = {}
    ran: dict[int, int] = {}
    completion: dict[int, int] = {}
    resident: dict[int, list[tuple[int, int]]] = {}
    cpu_free_at = 0
    group: list[tuple[int, str, int, dict[str, str]]] = []
    for n, (instant_s, kind, pid_s, detail_s) in enumerate(rows, start=1):
        instant, pid = int(instant_s), int(pid_s)
        if group and instant != group[0][0]:
            if instant < group[0][0]:
                problems.append(f"event {n}: instant {instant} after {group[0][0]}")
            problems.extend(_memory_step(group, resident, capacity))
            group = []
        detail = _detail(detail_s)
        group.append((instant, kind, pid, detail))
        if kind not in KINDS:
            problems.append(f"event {n}: unknown kind {kind}")
        elif kind == "Arrive":
            if pid in arrival:
                problems.append(f"event {n}: pid {pid} arrives twice")
            arrival[pid] = instant
            need[pid] = int(detail["time"])
        elif kind == "Complete":
            if pid not in arrival or pid in completion:
                problems.append(f"event {n}: unexpected Complete of pid {pid}")
            completion[pid] = instant
        elif kind == "Dispatch":
            run = int(detail["run"])
            if instant < cpu_free_at:
                problems.append(
                    f"event {n}: slice of pid {pid} at {instant} overlaps one "
                    f"ending at {cpu_free_at}"
                )
            cpu_free_at = instant + run
            ran[pid] = ran.get(pid, 0) + run
    problems.extend(_memory_step(group, resident, capacity))
    for pid in sorted(arrival):
        if pid not in completion:
            problems.append(f"pid {pid} arrives but never completes")
        if ran.get(pid, 0) != need[pid]:
            problems.append(f"pid {pid} ran {ran.get(pid, 0)} of time {need[pid]}")
    problems.extend(_check_metrics(metrics, arrival, need, completion))
    return problems


def _memory_step(
    group: list[tuple[int, str, int, dict[str, str]]],
    resident: dict[int, list[tuple[int, int]]],
    capacity: int,
) -> list[str]:
    """Apply one instant's memory events to `resident` and check the result.

    Within an instant the trace lists events in a fixed kind order, not in
    the order they happened, so residency is checked at instant boundaries.
    Grants and releases of one pid alternate, so their counts give its net
    residency; its last grant gives its extents.
    """
    if not group:
        return []
    instant = group[0][0]
    problems: list[str] = []
    net: dict[int, int] = {}
    grants: dict[int, list[list[tuple[int, int]]]] = {}
    last: dict[int, list[tuple[int, int]]] = {}
    for _, kind, pid, detail in group:
        if kind in ("Allocate", "SwapIn"):
            extents = _extents(detail["extents"])
            net[pid] = net.get(pid, 0) + 1
            grants.setdefault(pid, []).append(extents)
            if kind == "SwapIn" or pid not in last:
                last[pid] = extents  # a swap-in always follows the admission
    for _, kind, pid, detail in group:
        if kind in ("SwapOut", "Deallocate"):
            net[pid] = net.get(pid, 0) - 1
            freed = _extents(detail["extents"])
            if freed != resident.get(pid) and freed not in grants.get(pid, []):
                problems.append(
                    f"instant {instant}: {kind} of pid {pid} frees "
                    f"{detail['extents']}, which it never held"
                )
    granted = []
    for pid, change in net.items():
        after = (pid in resident) + change
        if after not in (0, 1):
            problems.append(f"instant {instant}: pid {pid} granted or freed twice")
        elif after == 0:
            resident.pop(pid, None)
        elif pid in last:
            resident[pid] = last[pid]
            granted.append(pid)
    for pid in granted:
        for start, end in resident[pid]:
            if not 0 <= start < end <= capacity:
                problems.append(f"instant {instant}: extent [{start}..{end}) of "
                                f"pid {pid} outside [0..{capacity})")
            for other, held in resident.items():
                if other == pid:
                    continue
                for s, e in held:
                    if start < e and s < end:
                        problems.append(
                            f"instant {instant}: extent [{start}..{end}) of pid "
                            f"{pid} overlaps [{s}..{e}) of pid {other}"
                        )
    for _, kind, pid, _ in group:
        if kind == "Dispatch" and pid not in resident:
            problems.append(f"instant {instant}: dispatch of non-resident pid {pid}")
    return problems


def _check_metrics(
    metrics: dict[str, str],
    arrival: dict[int, int],
    need: dict[int, int],
    completion: dict[int, int],
) -> list[str]:
    turnaround = {p: completion[p] - arrival[p] for p in arrival if p in completion}
    waiting = {p: t - need[p] for p, t in turnaround.items()}
    count = len(turnaround)
    expected = {
        "makespan": str(max(completion.values(), default=0)),
        "mean_waiting": str(Fraction(sum(waiting.values()), count or 1)),
        "mean_turnaround": str(Fraction(sum(turnaround.values()), count or 1)),
    }
    for pid in turnaround:
        expected[f"waiting.{pid}"] = str(waiting[pid])
        expected[f"turnaround.{pid}"] = str(turnaround[pid])
    return [
        f"metric {key}={metrics.get(key)}, trace gives {value}"
        for key, value in expected.items()
        if metrics.get(key) != value
    ]


def event_count(out: str) -> int:
    """Trace rows in the output: lines before the metrics, less the header."""
    return out.count("\n", 0, out.index("\nmakespan=") + 1) - 1
