"""Exception hierarchy shared by every osalg module."""

from __future__ import annotations


class OsAlgError(Exception):
    """Base class for all osalg errors."""


class MalformedExtentError(OsAlgError):
    """Extent with start > end, or negative addresses."""


class BoundsError(OsAlgError, IndexError):
    """1-indexed access outside a set or tuple."""


class ParameterError(OsAlgError, ValueError):
    """An operation parameter violates its precondition."""


class InvariantViolation(ParameterError):
    """A memory state, or a strict run, breaking an invariant.

    `invariant` names it: ``disjointness``, ``conservation``,
    ``free-total`` or ``store-shape`` of a memory, ``cpu-time`` (a CPU
    instant dispatched twice), ``residency`` (a dispatch of a procedure
    not in primary memory) or ``binding``. When strict mode finds the
    breach during a run, the other fields say where:

    - `at` is the trace event the breach was found at, as (instant,
      event, pid): the first three fields of its line in the rendered
      trace. None for a check at the end of the run.
    - `event` is that event's index in emission order, or the number of
      events for a check at the end of the run. The rendered trace sorts
      the events of one instant by kind, so `at`, not `event`, finds the
      line there.
    - `excerpt` is a short account of the memory, or the CPU, found
      broken.
    - `last_clean` is, for a breach found by a full check, the `event`
      index at which a full check last found that memory clean (None
      before the first).

    The binding log is checked once the run is over, so its breach has
    only `event`, the number of events.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        event: int | None = None,
        at: tuple[int, str, int] | None = None,
        excerpt: str = "",
        last_clean: int | None = None,
    ):
        super().__init__(message)
        self.invariant = invariant
        self.event = event
        self.at = at
        self.excerpt = excerpt
        self.last_clean = last_clean


class CompositionError(OsAlgError):
    """Select and organize operations target incompatible set shapes."""


class AllocationFailure(OsAlgError):
    """No extent, block, frame, or segment placement fits the demand.

    This is a signal, not a fatal condition: callers may swap a victim
    out and retry, or queue the request.
    """


class SwapFailure(OsAlgError):
    """The backing store cannot hold the victim's contents."""


class NotFoundError(OsAlgError, KeyError):
    """Referenced procedure id or block is not present."""


class ClockError(OsAlgError):
    """Event recorded with an instant earlier than the log's last one."""


class CycleError(OsAlgError):
    """Dependency relation contains a cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("cyclic dependencies: " + " -> ".join(cycle + cycle[:1]))


class TranslationFault(OsAlgError):
    """Address unmapped at some hop of a virtualization chain."""

    def __init__(self, address: int, layer: int):
        self.address = address
        self.layer = layer  # 1-indexed position of the faulting layer
        super().__init__(f"address {address} unmapped at layer {layer}")


class TraceLimitError(OsAlgError):
    """A run's trace would list more than `limit` dispatches and pages
    (``sim.MAX_TRACE``): known before the run, or once a swap lists
    extents again."""

    def __init__(self, limit: int):
        super().__init__(
            f"the trace would hold more than {limit} dispatches and listed pages")


class UnrunnableProcedureError(OsAlgError):
    """Procedure can never be made resident under the configured memory."""


class IncompleteRunError(OsAlgError):
    """Metrics requested for a trace whose procedures have not all completed."""


class WorkloadError(OsAlgError):
    """Workload text failed to parse or violated a record invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
