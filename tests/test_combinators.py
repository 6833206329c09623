"""The select/organize algebra and its composition laws."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from osalg import (
    Extent, Organize, ProcedureSet, Select, SortKey, WorkClass, compose, organize_buddy,
)
from osalg.allocators import MemoryState
from osalg.combinators import (
    BuddyTree,
    Chunk,
    ChunkTag,
    FreeRuns,
    free_store,
    organize_identity,
    organize_sort,
    select_argmax_priority,
    select_first_fit,
    select_identity,
)
from osalg.errors import (
    AllocationFailure,
    BoundsError,
    CompositionError,
    NotFoundError,
    ParameterError,
)
from osalg.sim import ALLOCATORS, SimConfig, class_quantum, dispatch_slices

from conftest import encloses, proc, random_batch
from oracle import NoFreeBlock, ReferenceBuddy


def assert_tiles(tree, granted):
    """The free blocks and the granted ones tile [0, capacity), each an
    aligned power of two."""
    cursor = 0
    for e in sorted([*tree.free_extents(), *granted], key=lambda e: e.start):
        assert e.start == cursor
        assert e.size & (e.size - 1) == 0 and e.start % e.size == 0
        cursor = e.end
    assert cursor == tree.capacity


def whole_units(store):
    """Every unit a fixed-partition store grants, one grant at a time,
    lowest first, until it has none left."""
    units = []
    while store.largest():
        (unit,), store = store.grant((store.unit,))
        units.append(unit)
    return tuple(units)


def free_buddies(tree):
    """The free blocks whose buddy, the block of the same size at
    start ^ size, is free too."""
    free = {(e.start, e.size) for e in tree.free_extents()}
    return sorted((start, size) for start, size in free if (start ^ size, size) in free)


class TestOrganizeIdentity:
    def test_keeps_order(self):
        assert organize_identity(["a", "b", "c"]) == ("a", "b", "c")

    def test_empty(self):
        assert organize_identity([]) == ()

    def test_idempotent(self):
        once = organize_identity(["x", "y"])
        assert organize_identity(once) == once


class TestOrganizeSort:
    def test_sort_by_size(self):
        p1, p2, p3 = proc(1, size=5), proc(2, size=2), proc(3, size=9)
        assert organize_sort(ProcedureSet.of(p1, p2, p3), SortKey.SIZE) == (p2, p1, p3)

    def test_tie_breaks_by_id(self):
        p1, p2 = proc(1, size=4), proc(2, size=4)
        assert organize_sort([p2, p1], SortKey.SIZE) == (p1, p2)

    def test_sort_by_time(self):
        p1, p2 = proc(1, time=3), proc(2, time=1)
        assert organize_sort([p1, p2], SortKey.TIME) == (p2, p1)

    def test_sort_by_priority_requires_priorities(self):
        with pytest.raises(ParameterError):
            organize_sort([proc(1)], SortKey.PRIORITY)

    def test_sort_by_priority(self):
        p1, p2 = proc(1, priority=4), proc(2, priority=2)
        assert organize_sort([p1, p2], SortKey.PRIORITY) == (p2, p1)


class TestFixedPartition:
    def test_exact_division(self):
        store = Organize.fixed_partition(4)(16)
        assert store.free_extents() == (Extent(0, 16),)
        assert whole_units(store) == (
            Extent(0, 4), Extent(4, 8), Extent(8, 12), Extent(12, 16),
        )
        assert MemoryState.initial(16, Organize.fixed_partition(4)).residue is None

    def test_remainder_becomes_residue(self):
        assert whole_units(Organize.fixed_partition(4)(10)) == (Extent(0, 4), Extent(4, 8))
        assert MemoryState.initial(10, Organize.fixed_partition(4)).residue == Extent(8, 10)

    def test_degenerate_all_residue(self):
        assert Organize.fixed_partition(4)(3).free_extents() == ()
        assert MemoryState.initial(3, Organize.fixed_partition(4)).residue == Extent(0, 3)

    def test_zero_unit_rejected(self):
        with pytest.raises(ParameterError):
            Organize.fixed_partition(0)

    @pytest.mark.parametrize("capacity", range(0, 14))
    @pytest.mark.parametrize("unit", [1, 3, 4])
    def test_units_equal_the_eager_tuple(self, capacity, unit):
        """The units a partitioned memory grants are the units cut up
        front."""
        store = Organize.fixed_partition(unit)(capacity)
        count = capacity // unit
        eager = tuple(Extent(i * unit, (i + 1) * unit) for i in range(count))
        assert whole_units(store) == eager
        assert store == FreeRuns(count * unit, (Extent(0, count * unit),) if count else (),
                                 unit)

    def test_a_huge_memory_partitions_in_constant_space(self):
        capacity = 1 << 30
        tracemalloc.start()
        try:
            store = Organize.fixed_partition(1)(capacity)
            (first,), rest = store.grant((1,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.free_extents() == (Extent(0, capacity),)
        assert first == Extent(0, 1) and rest.free_extents() == (Extent(1, capacity),)
        assert peak < 64 * 1024


class TestBuddyOrganize:
    def test_construction_shape(self):
        tree = organize_buddy(16)
        assert tree.free_extents() == (Extent(0, 16),)
        # the root block splits into its two halves
        half, split = tree.allocate(8)
        assert (half, split.free_extents()) == (Extent(0, 8), (Extent(8, 16),))
        assert_tiles(split, [half])

    def test_single_unit(self):
        tree = organize_buddy(1)
        assert tree.free_extents() == (Extent(0, 1),)

    def test_split_conserves_size(self):
        tree = organize_buddy(32)
        unit, split = tree.allocate(1)
        # one right half is left free at each level the root splits down
        assert split.free_extents() == (
            Extent(1, 2), Extent(2, 4), Extent(4, 8), Extent(8, 16), Extent(16, 32)
        )
        assert_tiles(split, [unit])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            organize_buddy(12)


class TestSelectIdentity:
    def test_one_indexed(self):
        assert select_identity(["a", "b", "c"], 2) == "b"

    def test_single(self):
        assert select_identity(["a"], 1) == "a"

    def test_out_of_range(self):
        with pytest.raises(BoundsError):
            select_identity(["a", "b"], 3)


@pytest.mark.parametrize("operation, error, message", [
    (lambda: SortKey.SIZE.value_of("a"), ParameterError,
     "sort keys apply to procedures, got str"),
    (lambda: select_argmax_priority(()), BoundsError, "empty set has no members"),
    (lambda: select_argmax_priority([proc(1, priority=2), proc(2)]), ParameterError,
     "priority selection needs priorities on every member"),
    (lambda: free_store(Organize.sort(SortKey.SIZE), 16), ParameterError,
     "memory cannot be organized by sort"),
    (lambda: Select.identity(0), ParameterError, "selection index must be >= 1, got 0"),
], ids=["sort-key-of-a-non-procedure", "argmax-of-nothing", "argmax-without-priority",
        "memory-sorted", "select-index-0"])
def test_an_operation_refuses_what_it_cannot_apply_to(operation, error, message):
    with pytest.raises(error, match=message):
        operation()


class TestSelectFirstFit:
    def test_prefix_of_first_adequate(self):
        free = [Extent(0, 8), Extent(12, 20)]
        assert select_first_fit(free, 5) == Extent(0, 5)

    def test_skips_too_small(self):
        free = [Extent(0, 3), Extent(12, 20)]
        assert select_first_fit(free, 5) == Extent(12, 17)

    def test_failure_signal(self):
        with pytest.raises(AllocationFailure):
            select_first_fit([Extent(0, 3)], 5)

    def test_zero_demand_rejected(self):
        with pytest.raises(ParameterError):
            select_first_fit([Extent(0, 8)], 0)


class TestSelectBuddy:
    def test_first_allocations_match_reference(self):
        tree = organize_buddy(16)
        first, tree = tree.allocate(3)
        assert first == Extent(0, 4)
        second, tree = tree.allocate(4)
        assert second == Extent(4, 8)

    def test_demand_beyond_root_fails(self):
        tree = organize_buddy(16)
        with pytest.raises(AllocationFailure):
            tree.allocate(17)

    def test_release_merges_to_root(self):
        tree = organize_buddy(16)
        a, tree = tree.allocate(4)
        b, tree = tree.allocate(4)
        tree = tree.release(a).release(b)
        assert tree.free_extents() == (Extent(0, 16),)

    def test_no_free_siblings_after_random_ops(self):
        rng = random.Random(7)
        tree = organize_buddy(64)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                tree = tree.release(live.pop(rng.randrange(len(live))))
            else:
                try:
                    extent, tree = tree.allocate(rng.randint(1, 16))
                    live.append(extent)
                except AllocationFailure:
                    pass
        # merge completeness: no free block has a free buddy; the free and
        # the granted blocks stay aligned powers of two that tile memory
        assert free_buddies(tree) == []
        assert_tiles(tree, live)
        tree.check()



class TestBuddyStoreChecks:
    """The flat store's own checks: the shape of its free blocks, and
    what a release may take back."""

    @pytest.mark.parametrize("free, words", [
        ((Extent(0, 4), Extent(6, 12)), "not an aligned power of two"),
        ((Extent(0, 4), Extent(6, 10)), "not an aligned power of two"),
        ((Extent(0, 8), Extent(4, 6)), "overlaps or precedes"),
        ((Extent(8, 16), Extent(0, 4)), "overlaps or precedes"),
        ((Extent(0, 4), Extent(16, 32)), "past capacity 16"),
        ((Extent(4, 6), Extent(6, 8)), "unmerged buddies"),
    ], ids=["size", "alignment", "overlap", "order", "capacity", "buddies"])
    def test_check_rejects_each_shape_breach(self, free, words):
        with pytest.raises(ParameterError, match=words):
            BuddyTree(16, free).check()

    def test_releasing_a_free_block_is_not_found(self):
        _, tree = organize_buddy(16).allocate(4)
        for free in (Extent(4, 8), Extent(8, 12), Extent(12, 16), Extent(8, 16)):
            with pytest.raises(NotFoundError):
                tree.release(free)

    @pytest.mark.parametrize("extent", [Extent(0, 3), Extent(2, 6), Extent(0, 0)])
    def test_releasing_what_is_not_a_block_is_not_found(self, extent):
        _, tree = organize_buddy(16).allocate(8)
        with pytest.raises(NotFoundError):
            tree.release(extent)

    def test_releasing_past_capacity_is_not_found(self):
        _, tree = organize_buddy(16).allocate(16)
        assert tree.free_extents() == ()
        for extent in (Extent(16, 32), Extent(0, 32)):
            with pytest.raises(NotFoundError):
                tree.release(extent)


class TestCompose:
    def test_fcfs_kernel(self):
        d = compose(Select.identity(1), Organize.identity())
        assert d.apply(["a", "b"]) == "a"

    def test_sjf_kernel(self):
        d = compose(Select.identity(1), Organize.sort(SortKey.SIZE))
        p1, p2 = proc(1, size=5), proc(2, size=2)
        assert d.apply([p1, p2]) is p2

    def test_shape_mismatch(self):
        with pytest.raises(CompositionError):
            compose(Select.first_fit(), Organize.sort(SortKey.SIZE))
        with pytest.raises(CompositionError):
            compose(Select.argmax_priority(), Organize.buddy())

    def test_buddy_discipline_applies(self):
        d = compose(Select.first_fit(), Organize.buddy())
        assert d.apply(16, demand=3) == Extent(0, 4)

    def test_every_allocator_selects_first_fit(self):
        """The allocators differ only in organize and chunk."""
        cfg = SimConfig(memory_capacity=64, unit_size=4, page_size=4)
        for name, entry in ALLOCATORS.items():
            assert entry(cfg).discipline.select == Select.first_fit(), name

    def test_first_fit_discipline_applies(self):
        """A memory select is the extent its store grants: under a fixed
        partition, one whole unit, and never a piece past one unit."""
        d = compose(Select.first_fit(), Organize.identity())
        assert d.apply(16, demand=3) == Extent(0, 3)
        d = compose(Select.first_fit(), Organize.fixed_partition(4))
        assert d.apply(10, demand=3) == Extent(0, 4)
        with pytest.raises(AllocationFailure):
            d.apply(10, demand=8)

    @pytest.mark.parametrize("organize", [
        Organize.identity(), Organize.fixed_partition(4), Organize.buddy(),
    ], ids=["identity", "fixed", "buddy"])
    @pytest.mark.parametrize("demand", [0, -1, None])
    def test_a_memory_select_needs_a_demand_of_at_least_one(self, organize, demand):
        with pytest.raises(ParameterError):
            compose(Select.first_fit(), organize).apply(16, demand=demand)

    @pytest.mark.parametrize("organize", [
        Organize.identity(), Organize.fixed_partition(4), Organize.buddy(),
    ], ids=["identity", "fixed", "buddy"])
    @pytest.mark.parametrize("piece", [0, -1])
    def test_a_store_refuses_a_piece_below_one(self, organize, piece):
        """Every organization refuses the piece before it rounds it up, so
        a fixed partition grants no whole unit for it."""
        with pytest.raises(ParameterError):
            organize(16).grant((2, piece))

    def test_composition_law_randomized(self):
        rng = random.Random(11)
        for _ in range(50):
            members = random_batch(rng, rng.randint(1, 12))
            i = rng.randint(1, len(members))
            select, organize = Select.identity(i), Organize.sort(SortKey.TIME)
            d = compose(select, organize)
            assert d.apply(members) == select(organize(members))

    def test_order_of_establishment_is_free(self):
        # construct select before organize and vice versa: same behavior
        rng = random.Random(13)
        s_first = Select.identity(1)
        o_after = Organize.sort(SortKey.SIZE)
        o_first = Organize.sort(SortKey.SIZE)
        s_after = Select.identity(1)
        d1 = compose(s_first, o_after)
        d2 = compose(s_after, o_first)
        for _ in range(25):
            members = random_batch(rng, rng.randint(1, 10))
            assert d1.apply(members) == d2.apply(members)


class TestConservation:
    @given(st.lists(st.integers(0, 50), max_size=60))
    def test_identity_and_sort_preserve_members(self, sizes):
        members = tuple(
            proc(i + 1, size=s, time=1 + (s % 3)) for i, s in enumerate(sizes)
        )
        assert organize_identity(members) == members
        by_size = organize_sort(members, SortKey.SIZE)
        assert sorted(p.id for p in by_size) == sorted(p.id for p in members)

    @given(st.integers(0, 4096), st.integers(1, 64))
    def test_fixed_partition_conserves_units(self, capacity, unit):
        m = MemoryState.initial(capacity, Organize.fixed_partition(unit))
        covered = sum(e.size for e in m.free)
        covered += m.residue.size if m.residue else 0
        assert covered == capacity
        assert all(e.start % unit == 0 and e.size % unit == 0 for e in m.free)
        m.check_invariants()

    @given(st.integers(0, 10))
    def test_buddy_leaves_tile_capacity(self, log_capacity):
        capacity = 1 << log_capacity
        tree = organize_buddy(capacity)
        granted = []
        if capacity >= 4:
            block, tree = tree.allocate(capacity // 4)
            granted.append(block)
        assert_tiles(tree, granted)

    def test_large_set_conservation_once(self):
        members = tuple(proc(i, size=i % 17, time=1) for i in range(10_000))
        assert set(organize_sort(members, SortKey.SIZE)) == set(members)


class TestMembership:
    def test_selected_member_is_contained(self):
        rng = random.Random(3)
        for _ in range(30):
            members = random_batch(rng, rng.randint(1, 9))
            i = rng.randint(1, len(members))
            chosen = select_identity(organize_sort(members, SortKey.TIME), i)
            assert chosen in list(members)

    def test_first_fit_extent_is_inside_a_free_extent(self):
        rng = random.Random(5)
        for _ in range(50):
            cursor, free = 0, []
            for _ in range(rng.randint(1, 6)):
                cursor += rng.randint(0, 3)
                end = cursor + rng.randint(1, 10)
                free.append(Extent(cursor, end))
                cursor = end
            q = rng.randint(1, 12)
            try:
                got = select_first_fit(free, q)
            except AllocationFailure:
                assert all(e.size < q for e in free)
                continue
            assert got.size == q
            assert any(encloses(e, got) for e in free)


def test_buddy_matches_reference_on_random_sequences():
    """Equivalence with the free-list reference on mixed alloc/free runs."""
    rng = random.Random(42)
    for round_no in range(30):
        capacity = rng.choice([16, 32, 64, 128, 256])
        tree = organize_buddy(capacity)
        ref = ReferenceBuddy(capacity)
        live: dict[int, Extent] = {}
        key = 0
        for _ in range(200):
            if live and rng.random() < 0.45:
                victim = rng.choice(sorted(live))
                tree = tree.release(live.pop(victim))
                ref.free(victim)
            else:
                key += 1
                q = rng.randint(1, capacity // 2)
                try:
                    extent, tree = tree.allocate(q)
                except AllocationFailure:
                    with pytest.raises(NoFreeBlock):
                        ref.alloc(key, q)
                    continue
                start, size = ref.alloc(key, q)
                assert (extent.start, extent.end) == (start, start + size)
                live[key] = extent
        assert sorted((e.start, e.end) for e in tree.free_extents()) == \
            ref.free_extent_pairs()


# -- chunk -----------------------------------------------------------------


@st.composite
def chunked_demands(draw):
    """A chunk, a procedure and a demand of it: any demand for whole,
    fixed and class chunks, the procedure's size for its declared
    segments."""
    chunk = draw(st.one_of(
        st.just(Chunk.whole()),
        st.integers(1, 7).map(Chunk.fixed),
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
            lambda q: Chunk.by_class(class_quantum(*q))),
        st.just(Chunk.segments()),
    ))
    size = draw(st.integers(0, 30))
    cuts = draw(st.lists(st.integers(1, max(1, size - 1)), max_size=4, unique=True))
    bounds = sorted({0, size, *(c for c in cuts if c < size)})
    segments = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    p = proc(1, size=size, time=draw(st.integers(1, 30)),
             io_class=draw(st.sampled_from([None, *WorkClass])),
             segments=segments if size and draw(st.booleans()) else None)
    demand = size if chunk.tag is ChunkTag.SEGMENTS else draw(st.integers(0, 40))
    return chunk, p, demand


@given(chunked_demands())
def test_chunk_pieces_partition_the_demand(case):
    chunk, p, demand = case
    pieces = chunk.pieces(p, demand)
    assert sum(pieces) == demand
    assert all(piece >= 1 for piece in pieces)
    assert chunk.count(p, demand) == len(pieces)
    assert chunk.first(p, demand) == (pieces[0] if pieces else demand)
    if chunk.tag is ChunkTag.FIXED:
        assert all(piece == chunk.size for piece in pieces[:-1])


@given(chunked_demands())
def test_a_chunk_of_cpu_time_is_the_dispatches_of_a_procedure(case):
    """Run alone under a rotation, a procedure is dispatched once per piece
    its chunk cuts its CPU time into, each run the first piece of what is
    left."""
    chunk, p, _ = case
    if chunk.tag is ChunkTag.SEGMENTS:
        return
    discipline = compose(Select.identity(1), Organize.identity(), chunk)
    runs = [length for _, _, length in dispatch_slices([p], discipline)]
    assert runs == list(chunk.pieces(p, p.time))


def test_a_class_chunk_below_one_is_a_parameter_error():
    chunk, p = Chunk.by_class(lambda p: 0), proc(1, time=5)
    for measure in (chunk.pieces, chunk.count, chunk.first):
        with pytest.raises(ParameterError, match="quantum for procedure 1"):
            measure(p, 5)
    with pytest.raises(ParameterError):
        Chunk.fixed(0)


def test_a_chunk_counts_a_huge_demand_without_its_pieces():
    p = proc(1, size=10**23)
    assert Chunk.fixed(1).count(p, 10**23) == 10**23
    assert Chunk.fixed(3).first(p, 10**23) == 3
    assert Chunk.whole().count(p, 10**23) == 1
