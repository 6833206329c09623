"""osalg: resource-management disciplines as composable select/organize
operations, with a deterministic single-processor simulator and a
binding-before-use validator."""

from .core import (
    Address,
    Extent,
    LifecycleState,
    Procedure,
    ProcedureSet,
    ResourceKind,
    ResourceSet,
    ResourceUnit,
    WorkClass,
    activate,
    addr,
    extent_size,
    passivate,
    project,
    set_state,
)
from .combinators import (
    BuddyTree,
    Discipline,
    Organize,
    OrganizeTag,
    PartitionedSet,
    Select,
    SelectTag,
    SortKey,
    compose,
    organize_buddy,
    organize_fixed_partition,
    organize_identity,
    organize_sort,
    select_argmax_priority,
    select_buddy,
    select_first_fit,
    select_identity,
)
from .schedulers import (
    ArrivalStream,
    Quantum,
    Schedule,
    Slice,
    admit,
    class_quantum,
    fcfs,
    priority_schedule,
    round_robin,
    sjf,
    variable_quantum,
)
from .allocators import (
    BindingLayer,
    MemoryState,
    PageMap,
    Pagination,
    SegmentMap,
    SwapRecord,
    allocate,
    build_page_table,
    deallocate,
    paginate,
    partition_by_owner,
    segment_alloc,
    swap_in,
    swap_out,
    translate,
)
from .binding import (
    BindingEvent,
    BindingGraph,
    Violation,
    export_edges,
    legal_orderings,
    record,
    validate,
)
from .sim import Metrics, SimConfig, Trace, TraceEvent, metrics, run
from . import errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
