"""osalg: resource-management disciplines as composable select/organize
operations, with a deterministic single-processor simulator and a
binding-before-use validator.

The package exports what a run, its results, the README example and the
acceptance criteria use; everything else is reached through its module.
"""

from .core import Extent, Procedure, ProcedureSet, WorkClass
from .combinators import Organize, Select, SortKey, compose, organize_buddy
from .schedulers import fcfs, priority_schedule, round_robin, sjf
from .allocators import BindingLayer, translate
from .binding import BindingGraph, legal_orderings, record, validate
from .sim import Metrics, SimConfig, Trace, TraceEvent, run
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BindingGraph",
    "BindingLayer",
    "Extent",
    "Metrics",
    "Organize",
    "Procedure",
    "ProcedureSet",
    "Select",
    "SimConfig",
    "SortKey",
    "Trace",
    "TraceEvent",
    "WorkClass",
    "compose",
    "errors",
    "fcfs",
    "legal_orderings",
    "organize_buddy",
    "priority_schedule",
    "record",
    "round_robin",
    "run",
    "sjf",
    "translate",
    "validate",
]
