"""Unit and property tests for message cleaning (Algorithm 2).

The central invariant: after cleaning a set of cells, the reported
occupants equal the eagerly-maintained object table restricted to those
cells — lazy and eager agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GGridConfig
from repro.core.ggrid import GGridIndex
from repro.core.messages import Message
from repro.roadnet.generators import grid_road_network


def _index(graph, **kw) -> GGridIndex:
    return GGridIndex(graph, GGridConfig(eta=3, delta_b=4, **kw))


def _random_updates(graph, index, rng, objects, t0, rounds):
    t = t0
    for _ in range(rounds):
        t += 1.0
        for obj in rng.sample(range(objects), max(1, objects // 3)):
            e = rng.randrange(graph.num_edges)
            index.ingest(Message(obj, e, rng.uniform(0, graph.edge(e).weight), t))
    return t


def test_cleaning_agrees_with_object_table(medium_graph):
    rng = random.Random(1)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=40, t0=0.0, rounds=6)
    result = index.clean_cells(set(range(index.grid.num_cells)), t_now=t)
    for cell in range(index.grid.num_cells):
        want = index.object_table.objects_in_cell(cell)
        got = frozenset(result.occupants.get(cell, {}))
        assert got == want


def test_cleaning_idempotent(medium_graph):
    rng = random.Random(2)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=30, t0=0.0, rounds=4)
    cells = set(range(index.grid.num_cells))
    first = index.clean_cells(cells, t_now=t)
    second = index.clean_cells(cells, t_now=t)
    assert first.occupants == second.occupants


def test_cleaning_compacts_lists(medium_graph):
    rng = random.Random(3)
    index = _index(medium_graph)
    t = _random_updates(medium_graph, index, rng, objects=30, t0=0.0, rounds=6)
    before = index.pending_messages()
    index.clean_cells(set(range(index.grid.num_cells)), t_now=t)
    after = index.pending_messages()
    assert after <= before
    assert after == index.num_objects  # exactly one snapshot message each


def test_cleaned_locations_are_latest(medium_graph):
    index = _index(medium_graph)
    e1, e2 = 0, 1
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e1, 0.2, 2.0))
    result = index.clean_cells({index.grid.cell_of_edge(e1)}, t_now=3.0)
    cell = index.grid.cell_of_edge(e1)
    assert result.occupants[cell][5].offset == 0.2
    assert result.occupants[cell][5].t == 2.0


def test_moved_object_leaves_old_cell(medium_graph):
    index = _index(medium_graph)
    # find two edges whose sources land in different cells
    grid = index.grid
    e1 = 0
    e2 = next(
        e.id
        for e in medium_graph.edges()
        if grid.cell_of_edge(e.id) != grid.cell_of_edge(e1)
    )
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e2, 0.3, 2.0))
    c1, c2 = grid.cell_of_edge(e1), grid.cell_of_edge(e2)
    result = index.clean_cells({c1, c2}, t_now=3.0)
    assert 5 not in result.occupants.get(c1, {})
    assert 5 in result.occupants[c2]


def test_moved_object_cleaning_old_cell_only(medium_graph):
    """Cleaning only the old cell must still drop the moved object (its
    removal marker plus the object-table check both say it left)."""
    index = _index(medium_graph)
    grid = index.grid
    e1 = 0
    e2 = next(
        e.id
        for e in medium_graph.edges()
        if grid.cell_of_edge(e.id) != grid.cell_of_edge(e1)
    )
    index.ingest(Message(5, e1, 0.1, 1.0))
    index.ingest(Message(5, e2, 0.3, 2.0))
    c1 = grid.cell_of_edge(e1)
    result = index.clean_cells({c1}, t_now=3.0)
    assert 5 not in result.occupants.get(c1, {})


def test_stale_objects_pruned_by_t_delta(medium_graph):
    """Pruning is bucket-granular (Section IV-B1): a bucket whose newest
    message predates ``t_now - t_delta`` is discarded unread, dropping
    objects that violated the update contract."""
    index = _index(medium_graph, t_delta=10.0)
    # fill a whole delta_b=4 bucket with old messages of object 1...
    for i in range(4):
        index.ingest(Message(1, 0, 0.1, 1.0 + i * 0.1))
    # ...then a fresh message of object 2 lands in the next bucket
    index.ingest(Message(2, 0, 0.2, 95.0))
    cell = index.grid.cell_of_edge(0)
    result = index.clean_cells({cell}, t_now=100.0)
    assert 1 not in result.occupants[cell]
    assert 2 in result.occupants[cell]
    assert result.messages_dropped >= 4


def test_contract_violator_expired_even_in_fresh_bucket(medium_graph):
    """Bucket-granular pruning may still *process* an over-age message
    sharing a bucket with a fresh one, but the object-table expiry drops
    the violator from the result regardless — the cleaned view and the
    object table always agree (Section II's t_delta contract)."""
    index = _index(medium_graph, t_delta=10.0)
    index.ingest(Message(1, 0, 0.1, 1.0))
    index.ingest(Message(2, 0, 0.2, 95.0))  # same delta_b=4 bucket
    cell = index.grid.cell_of_edge(0)
    result = index.clean_cells({cell}, t_now=100.0)
    assert 1 not in result.occupants[cell]
    assert 2 in result.occupants[cell]
    assert 1 not in index.object_table  # expired, not just hidden
    assert result.objects_expired == 1


def test_locked_list_skipped(medium_graph):
    """A list already under cleaning is skipped safely (p_l != p_h)."""
    index = _index(medium_graph)
    index.ingest(Message(1, 0, 0.1, 1.0))
    cell = index.grid.cell_of_edge(0)
    index.lists[cell].lock_for_cleaning()  # simulate a concurrent cleaner
    result = index.clean_cells({cell}, t_now=2.0)
    assert cell not in result.cells


def test_empty_cells_clean_to_empty(medium_graph):
    index = _index(medium_graph)
    result = index.clean_cells({0, 1, 2}, t_now=1.0)
    assert result.messages_processed == 0
    assert all(not objs for objs in result.occupants.values())


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_lazy_eager_agreement_property(seed):
    """Property: after any random update sequence and any cleaned cell
    subset, lazy == eager on those cells."""
    rng = random.Random(seed)
    graph = grid_road_network(6, 6, seed=seed % 7)
    index = _index(graph)
    t = _random_updates(graph, index, rng, objects=15, t0=0.0, rounds=5)
    cells = set(
        rng.sample(range(index.grid.num_cells), rng.randrange(1, index.grid.num_cells))
    )
    result = index.clean_cells(cells, t_now=t)
    for cell in cells:
        assert frozenset(result.occupants.get(cell, {})) == (
            index.object_table.objects_in_cell(cell)
        )


def test_gpu_transfer_accounted(medium_graph):
    index = _index(medium_graph)
    for i in range(20):
        index.ingest(Message(i, i % medium_graph.num_edges, 0.0, float(i)))
    before = index.stats.snapshot()
    index.clean_cells(set(range(index.grid.num_cells)), t_now=25.0)
    delta = index.stats.diff(before)
    assert delta.bytes_h2d > 0
    assert delta.bytes_d2h > 0
    assert delta.kernel_launches >= 2  # x-shuffle chunks + collect


# ----------------------------------------------------------------------
# host dedup against a brute-force spec
# ----------------------------------------------------------------------
def _dedup_host(live_pairs):
    from repro.core.cleaning import CleaningResult, MessageCleaner
    from repro.simgpu.device import SimGpu

    cleaner = MessageCleaner(SimGpu(), GGridConfig())
    return cleaner._dedup_host(list(live_pairs), CleaningResult())


def _dedup_spec(live_pairs):
    """Per object, the first message carrying the maximal ``(t, flag)``
    key (removal markers lose timestamp ties); objects listed by first
    occurrence."""
    from repro.core.messages import CellMessage

    flat = [(cell, m) for cell, bucket in live_pairs for m in bucket.messages]
    spec = {}
    for obj in dict.fromkeys(m.obj for _, m in flat):
        mine = [(cell, m) for cell, m in flat if m.obj == obj]
        best = max(m.sort_key for _, m in mine)
        cell, m = next((cell, m) for cell, m in mine if m.sort_key == best)
        spec[obj] = CellMessage.tag(m, cell)
    return spec


def _bucketize(messages, cells, capacity=4):
    """Pack messages into (cell, Bucket) pairs of at most `capacity`."""
    from repro.core.message_list import Bucket

    pairs = []
    for start in range(0, len(messages), capacity):
        chunk = list(messages[start : start + capacity])
        pairs.append((cells[start // capacity % len(cells)], Bucket(capacity, chunk)))
    return pairs


def test_host_dedup_matches_spec_adversarial():
    """Timestamp ties, removal markers and cross-bucket repeats: the
    first message carrying the max (t, flag) key wins, and the result
    lists objects by first occurrence."""
    msgs = [
        Message(1, 0, 0.1, 5.0),
        Message(2, None, None, 5.0),  # marker: loses the t=5.0 tie below
        Message(1, 3, 0.3, 5.0),  # same key as the first: first one wins
        Message(2, 4, 0.4, 5.0),
        Message(3, 5, 0.5, 1.0),
        Message(2, None, None, 6.0),  # newest for obj 2: marker wins
        Message(3, 6, 0.6, 1.0),  # tie again: first occurrence wins
        Message(4, 7, 0.7, 2.0),
    ]
    live_pairs = _bucketize(msgs, cells=[11, 22, 33], capacity=3)
    got = _dedup_host(live_pairs)
    assert got == _dedup_spec(live_pairs)
    assert list(got) == [1, 2, 3, 4]  # insertion order too
    assert got[1].offset == 0.1 and got[1].cell == 11
    assert got[2].is_removal and got[2].cell == 22
    assert got[3].offset == 0.5
    assert got[4].cell == 33


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_host_dedup_matches_spec_property(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 120)
    msgs = []
    for _ in range(n):
        obj = rng.randrange(8)
        t = float(rng.randrange(6))  # coarse times force many ties
        if rng.random() < 0.25:
            msgs.append(Message(obj, None, None, t))
        else:
            msgs.append(Message(obj, rng.randrange(20), rng.random(), t))
    cells = [rng.randrange(50) for _ in range(4)]
    live_pairs = _bucketize(msgs, cells, capacity=rng.randrange(1, 7))
    got = _dedup_host(live_pairs)
    spec = _dedup_spec(live_pairs)
    assert got == spec
    assert list(got) == list(spec)
