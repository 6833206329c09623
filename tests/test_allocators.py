"""Memory state transitions: allocation, paging, segmentation, swap,
translation."""

import random

import pytest

from osalg import BindingLayer, Extent, Organize, Select, compose, translate
from osalg.allocators import (
    MemoryState,
    PageMap,
    allocate,
    build_page_table,
    deallocate,
    paginate,
    segment_alloc,
    swap_in,
    swap_out,
    victim_key,
)
from osalg.combinators import Chunk
from osalg.errors import (
    AllocationFailure,
    NotFoundError,
    ParameterError,
    TranslationFault,
)

from conftest import proc

FIRST_FIT = compose(Select.first_fit(), Organize.identity())
BUDDY = compose(Select.first_fit(), Organize.buddy())


def first_fit_memory(capacity):
    return MemoryState.initial(capacity, Organize.identity())


class TestAllocate:
    def test_first_fit_carves_prefix(self):
        m = first_fit_memory(20)
        allocate(FIRST_FIT, m, proc(9, size=8))
        deallocate(m, 9)  # leaves [0,20) coalesced again
        allocate(FIRST_FIT, m, proc(1, size=8))
        allocate(FIRST_FIT, m, proc(2, size=4))
        deallocate(m, 2)  # free: [8,12) and [12,20) coalesce
        allocate(FIRST_FIT, m, proc(3, size=5))
        assert m.extents_of(3) == (Extent(8, 13),)

    def test_first_fit_free_list_update(self):
        m = first_fit_memory(20)
        allocate(FIRST_FIT, m, proc(1, size=8))   # [0,8)
        allocate(FIRST_FIT, m, proc(2, size=4))   # [8,12)
        deallocate(m, 1)                          # free [0,8), [12,20)
        got = allocate(FIRST_FIT, m, proc(3, size=5))
        assert got == (Extent(0, 5),)
        assert m.free == (Extent(5, 8), Extent(12, 20))

    def test_buddy_allocation(self):
        m = MemoryState.initial(16, Organize.buddy())
        got = allocate(BUDDY, m, proc(1, size=3))
        assert got == (Extent(0, 4),)

    def test_failure_when_nothing_fits(self):
        m = first_fit_memory(8)
        allocate(FIRST_FIT, m, proc(1, size=6))
        with pytest.raises(AllocationFailure):
            allocate(FIRST_FIT, m, proc(2, size=4))

    def test_zero_size_holds_no_extents(self):
        m = first_fit_memory(8)
        got = allocate(FIRST_FIT, m, proc(1, size=0))
        assert got == ()
        assert m.extents_of(1) == ()
        assert m.free_total == 8

    def test_double_allocation_rejected(self):
        m = first_fit_memory(8)
        allocate(FIRST_FIT, m, proc(1, size=2))
        with pytest.raises(ParameterError):
            allocate(FIRST_FIT, m, proc(1, size=2))

    def test_discipline_memory_shape_mismatch(self):
        m = MemoryState.initial(16, Organize.buddy())
        with pytest.raises(ParameterError):
            allocate(FIRST_FIT, m, proc(1, size=2))

    def test_a_select_that_allocates_no_memory_rejected(self):
        by_index = compose(Select.identity(1), Organize.identity())
        with pytest.raises(ParameterError, match="identity selection does not allocate"):
            allocate(by_index, first_fit_memory(8), proc(1, size=2))


class TestDeallocate:
    def test_adjacent_extents_coalesce(self):
        m = first_fit_memory(8)
        allocate(FIRST_FIT, m, proc(1, size=4))
        allocate(FIRST_FIT, m, proc(2, size=4))
        assert deallocate(m, 2) == (Extent(4, 8),)
        assert m.free == (Extent(4, 8),)
        assert deallocate(m, 1) == (Extent(0, 4),)
        assert m.free == (Extent(0, 8),)
        assert m.allocated == {} and m.free_total == 8

    def test_buddy_sibling_merge(self):
        m = MemoryState.initial(16, Organize.buddy())
        allocate(BUDDY, m, proc(1, size=4))
        allocate(BUDDY, m, proc(2, size=4))
        deallocate(m, 1)
        deallocate(m, 2)
        assert m.free == (Extent(0, 16),)

    def test_unknown_pid(self):
        with pytest.raises(NotFoundError):
            deallocate(first_fit_memory(8), 42)


class TestPaginate:
    def test_ceiling_division_and_fragmentation(self):
        pages = paginate(proc(1, size=10), 4)
        assert pages.page_count == 3
        m = MemoryState.initial(16, Organize.fixed_partition(4))
        build_page_table(pages, m)
        assert sum(e.size for e in m.extents_of(1)) - 10 == 2  # the last page's unused units

    def test_exact_fit(self):
        pages = paginate(proc(1, size=8), 4)
        assert pages.page_count == 2

    def test_zero_size(self):
        assert paginate(proc(1, size=0), 4).page_count == 0

    def test_zero_page_size_rejected(self):
        with pytest.raises(ParameterError):
            paginate(proc(1, size=4), 0)

    def test_huge_demand_costs_no_more_than_a_small_one(self):
        """A pagination is arithmetic on the size: 2**70 units, more pages
        than any memory holds, paginate at once and exactly."""
        pages = paginate(proc(1, size=2**70), 3)
        assert pages.page_count == (2**70 + 2) // 3
        assert paginate(proc(1, size=2**70), 2**10).page_count == 2**60


class TestPageTable:
    def test_lowest_free_frames(self):
        m = MemoryState.initial(16, Organize.fixed_partition(4))
        table = build_page_table(paginate(proc(1, size=10), 4), m)
        assert table.entries == ((0, 0), (1, 1), (2, 2))

    def test_uses_whatever_frames_are_free(self):
        m = MemoryState.initial(24, Organize.fixed_partition(4))
        build_page_table(paginate(proc(1, size=8), 4), m)   # frames 0,1
        table2 = build_page_table(paginate(proc(2, size=8), 4), m)  # frames 2,3
        deallocate(m, 1)                                    # frames 0,1 free
        table3 = build_page_table(paginate(proc(3, size=5), 4), m)
        assert table3.entries == ((0, 0), (1, 1))
        assert table2.entries == ((0, 2), (1, 3))

    def test_non_contiguous_free_frames(self):
        # occupy frames 0..5, then free exactly frames 2 and 5
        m = MemoryState.initial(24, Organize.fixed_partition(4))
        build_page_table(paginate(proc(1, size=8), 4), m)    # frames 0,1
        build_page_table(paginate(proc(2, size=4), 4), m)    # frame 2
        build_page_table(paginate(proc(3, size=8), 4), m)    # frames 3,4
        build_page_table(paginate(proc(4, size=4), 4), m)    # frame 5
        deallocate(m, 2)
        deallocate(m, 4)
        table = build_page_table(paginate(proc(5, size=8), 4), m)
        assert table.entries == ((0, 2), (1, 5))

    def test_insufficient_frames(self):
        m = MemoryState.initial(12, Organize.fixed_partition(4))
        with pytest.raises(AllocationFailure):
            build_page_table(paginate(proc(1, size=16), 4), m)

    @pytest.mark.parametrize("memory, message", [
        (lambda: MemoryState.initial(16, Organize.identity()),
         "page tables need a fixed-partitioned memory"),
        (lambda: MemoryState.initial(16, Organize.fixed_partition(2)),
         "page size 4 does not match frame size 2"),
    ], ids=["unframed", "frame-size"])
    def test_memory_that_cannot_hold_the_pages_refused(self, memory, message):
        with pytest.raises(ParameterError, match=message):
            build_page_table(paginate(proc(1, size=8), 4), memory())

    def test_injectivity_enforced(self):
        with pytest.raises(ParameterError):
            PageMap(page_size=4, entries=((0, 1), (1, 1)))
        with pytest.raises(ParameterError):
            PageMap(page_size=4, entries=((0, 0), (2, 1)))

    @pytest.mark.parametrize("lookup, address", [
        (lambda table: table.frame_of(2), 2),
        (lambda table: table.translate(8), 8),
        (lambda table: table.translate(-1), -1),
    ], ids=["unmapped-page", "past-the-table", "negative"])
    def test_an_address_outside_the_table_faults(self, lookup, address):
        table = PageMap(page_size=4, entries=((0, 2), (1, 0)))
        with pytest.raises(TranslationFault) as exc:
            lookup(table)
        assert (exc.value.address, exc.value.layer) == (address, 1)

    def test_translation_lands_in_owned_frames(self):
        m = MemoryState.initial(32, Organize.fixed_partition(4))
        table = build_page_table(paginate(proc(1, size=11), 4), m)
        owned = m.extents_of(1)
        for logical in range(12):
            physical = table.translate(logical)
            assert any(e.start <= physical < e.end for e in owned)


SEGMENTED = compose(Select.first_fit(), Organize.identity(), Chunk.segments())


class TestSegmentation:
    def test_sequential_first_fit_bases(self):
        m = first_fit_memory(16)
        segments = segment_alloc(SEGMENTED, m, proc(1, size=10, segments=(4, 6)))
        assert segments == ((0, 4, 0), (1, 6, 4))

    def test_segments_over_fixed_partitions(self):
        """A segment grant is the store's grant, mapped: each segment
        takes one whole unit, and the map keeps the declared lengths."""
        fixed = Organize.fixed_partition(4)
        m = MemoryState.initial(16, fixed)
        d = compose(Select.first_fit(), fixed, Chunk.segments())
        segments = segment_alloc(d, m, proc(1, size=6, segments=(2, 4)))
        assert segments == ((0, 2, 0), (1, 4, 4))
        assert m.extents_of(1) == (Extent(0, 4), Extent(4, 8)) and m.free_total == 8

    def test_rollback_on_partial_failure(self):
        m = first_fit_memory(12)
        allocate(FIRST_FIT, m, proc(9, size=5))  # free [5,12): 7 units
        before = dict(m.allocated), m.store, m.free_total
        with pytest.raises(AllocationFailure):
            segment_alloc(SEGMENTED, m, proc(1, size=12, segments=(4, 8)))
        assert (dict(m.allocated), m.store, m.free_total) == before


class TestTranslate:
    def test_function_composition(self):
        m1 = BindingLayer({0: 2})
        m2 = BindingLayer({2: 7})
        assert translate(0, [m1, m2]) == 7

    def test_empty_chain_is_identity(self):
        assert translate(5, []) == 5

    def test_fault_names_layer(self):
        m1 = BindingLayer({0: 2})
        m2 = BindingLayer({})
        with pytest.raises(TranslationFault) as exc:
            translate(0, [m1, m2])
        assert exc.value.layer == 2
        with pytest.raises(TranslationFault) as exc:
            translate(1, [m1, m2])
        assert exc.value.layer == 1

    def test_page_map_as_layer(self):
        table = PageMap(page_size=4, entries=((0, 2), (1, 0)))
        layer = BindingLayer({a: table.translate(a) for a in range(8)})
        assert translate(5, [layer]) == 1  # page 1, offset 1, frame 0
        assert table.translate(5) == 1

    def test_injectivity_required(self):
        with pytest.raises(ParameterError):
            BindingLayer({0: 3, 1: 3})

    def test_associativity_random_chains(self):
        rng = random.Random(53)
        for _ in range(50):
            universe = list(range(64))
            rng.shuffle(universe)
            dom1 = sorted(rng.sample(range(64), rng.randint(1, 40)))
            img1 = rng.sample(range(64), len(dom1))
            m1 = BindingLayer(dict(zip(dom1, img1)))
            dom2 = sorted(rng.sample(range(64), rng.randint(1, 40)))
            img2 = rng.sample(range(64), len(dom2))
            m2 = BindingLayer(dict(zip(dom2, img2)))
            for a in range(64):
                try:
                    whole = translate(a, [m1, m2])
                except TranslationFault as fault:
                    if fault.layer == 1:
                        assert m1.lookup(a) is None
                    else:
                        mid = m1.lookup(a)
                        assert mid is not None and m2.lookup(mid) is None
                    continue
                assert whole == translate(translate(a, [m1]), [m2])


class TestSwap:
    def residents(self):
        return [
            proc(1, size=4, time=5, priority=5),
            proc(2, size=4, time=5, priority=1),
        ]

    def victim(self):
        return min(self.residents(), key=victim_key)

    def full_memory(self):
        m = first_fit_memory(8)
        for p in self.residents():
            allocate(FIRST_FIT, m, p)
        return m

    def test_lowest_priority_swapped_first(self):
        m = self.full_memory()
        backing = first_fit_memory(8)
        victim = self.victim()
        assert victim.id == 2
        assert swap_out(m, backing, victim) == (Extent(0, 4),)
        assert m.free == (Extent(4, 8),)
        assert backing.extents_of(2) == (Extent(0, 4),)
        # incoming demand now fits
        got = allocate(FIRST_FIT, m, proc(3, size=4))
        assert got == (Extent(4, 8),)

    def test_policy_tie_breaks(self):
        candidates = [
            proc(1, size=2, priority=1),
            proc(2, size=6, priority=1),
            proc(3, size=6, priority=1),
        ]
        assert min(candidates, key=victim_key).id == 3  # largest size, then highest id
        assert min([proc(4, size=1), proc(5, size=1, priority=0)], key=victim_key).id == 4

    def test_swap_in_round_trip(self):
        m = self.full_memory()
        backing = first_fit_memory(8)
        pieces = tuple(e.size for e in m.extents_of(2))
        swap_out(m, backing, self.victim())
        deallocate(m, 1)
        granted = swap_in(m, backing, 2, pieces)
        assert 2 in m.allocated
        assert sum(e.size for e in granted) == 4
        assert backing.free_total == 8

    def test_backing_capacity_zero_fails(self):
        m = self.full_memory()
        backing = first_fit_memory(0)
        with pytest.raises(AllocationFailure):
            swap_out(m, backing, self.victim())
        assert m.free_total == 0 and m.extents_of(2) == (Extent(4, 8),)  # unchanged

    def test_a_victim_that_holds_no_memory_is_not_found(self):
        backing = first_fit_memory(8)
        with pytest.raises(NotFoundError):
            swap_out(first_fit_memory(8), backing, proc(1, size=4))
        assert backing.free_total == 8

    def test_a_multi_block_buddy_grant_swaps_and_releases_whole(self):
        """Buddy in chunks of 2 grants size 5 as three blocks; a swap-out,
        a swap-in and a release each take all three."""
        chunked = compose(Select.first_fit(), Organize.buddy(), Chunk.fixed(2))
        m, backing = MemoryState.initial(16, Organize.buddy()), first_fit_memory(16)
        p, blocks = proc(1, size=5), (Extent(0, 2), Extent(2, 4), Extent(4, 5))
        assert allocate(chunked, m, p) == blocks and m.free_total == 11
        pieces = tuple(e.size for e in m.extents_of(1))
        assert swap_out(m, backing, p) == (Extent(0, 5),) == backing.extents_of(1)
        assert pieces == (2, 2, 1)
        assert m.free == (Extent(0, 16),) and 1 not in m.allocated
        assert swap_in(m, backing, 1, pieces) == blocks and backing.free_total == 16
        assert deallocate(m, 1) == blocks
        assert m.free == (Extent(0, 16),) and m.free_total == 16

    def test_swap_in_retriable_when_tight(self):
        m = self.full_memory()
        backing = first_fit_memory(8)
        swap_out(m, backing, self.victim())
        allocate(FIRST_FIT, m, proc(3, size=4))
        with pytest.raises(AllocationFailure):
            swap_in(m, backing, 2, (4,))


class TestConservationRandomOps:
    def test_random_operation_sequences_conserve(self):
        rng = random.Random(59)
        for organizer, capacity in [
            (Organize.identity(), 50),
            (Organize.fixed_partition(4), 50),
            (Organize.buddy(), 64),
        ]:
            if organizer.tag.value == "identity":
                discipline = FIRST_FIT
            elif organizer.tag.value == "fixed-partition":
                discipline = compose(Select.first_fit(), organizer)
            else:
                discipline = BUDDY
            m = MemoryState.initial(capacity, organizer)
            live = []
            pid = 0
            for _ in range(1200):
                if live and rng.random() < 0.45:
                    victim = live.pop(rng.randrange(len(live)))
                    deallocate(m, victim)
                else:
                    pid += 1
                    size = rng.randint(0, 4 if organizer.unit_size else 12)
                    try:
                        allocate(discipline, m, proc(pid, size=size))
                        live.append(pid)
                    except AllocationFailure:
                        pass
                m.check_invariants()
