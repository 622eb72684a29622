"""Differential test: the array X-shuffle against the per-lane reference.

Both kernels run the same launches with the same race seed; everything
observable must be equal with ``==`` and no tolerance — messages
processed, every slot of ``T`` in insertion order, the collected result
in order, every ``GpuStats`` field (simulated time included) and the
random generator's state afterwards.  The array kernel's ``(cell,
message)`` entries and the reference's records are both compared as
``(cell, obj, edge, offset, t)`` tuples.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.message_list import Bucket
from repro.core.messages import Message
from repro.core.xshuffle import IntermediateTable, collect_kernel, x_shuffle_kernel
from repro.simgpu.device import SimGpu
from tests.core import xshuffle_reference as reference


def _launches(kernel, collect, buckets, eta, chunk_bundles, seed):
    """Run ``buckets`` as pipeline chunks of ``chunk_bundles`` bundles
    each (one launch per chunk, sharing ``T`` and the race generator),
    then collect — the shape of ``MessageCleaner``'s GPU pipeline."""
    gpu = SimGpu()
    rng = random.Random(seed)
    bundle_size = 1 << eta
    table = IntermediateTable(max(1, -(-len(buckets) // bundle_size)))
    chunk = chunk_bundles * bundle_size
    processed = [
        gpu.launch(
            "GPU_X_Shuffle",
            max(1, len(buckets[i : i + chunk])),
            kernel,
            buckets[i : i + chunk],
            eta,
            table,
            i // bundle_size,
            rng,
        )
        for i in range(0, max(1, len(buckets)), chunk)
    ]
    latest = gpu.launch("GPU_Collect", max(1, len(table.slots)), collect, table)
    return processed, table, latest, gpu, rng


def _flat(entry):
    """A ``(cell, Message)`` pair or a reference record, as the tuple
    ``(cell, obj, edge, offset, t)``; ``None`` stays ``None``."""
    if entry is None:
        return None
    if isinstance(entry, reference.CellMessage):
        return dataclasses.astuple(entry)
    cell, m = entry
    return (cell, m.obj, m.edge, m.offset, m.t)


def _assert_identical(pairs, eta, chunk_bundles, seed):
    tagged = [
        [reference.CellMessage(cell, m.obj, m.edge, m.offset, m.t) for m in b.messages]
        for cell, b in pairs
    ]
    want = _launches(
        reference.x_shuffle_kernel, reference.collect_kernel, tagged, eta,
        chunk_bundles, seed,
    )
    got = _launches(x_shuffle_kernel, collect_kernel, pairs, eta, chunk_bundles, seed)
    w_processed, w_table, w_latest, w_gpu, w_rng = want
    g_processed, g_table, g_latest, g_gpu, g_rng = got
    assert g_processed == w_processed
    assert [(obj, [_flat(e) for e in row]) for obj, row in g_table.slots.items()] == [
        (obj, [_flat(e) for e in row]) for obj, row in w_table.slots.items()
    ]
    assert [(obj, _flat(e)) for obj, e in g_latest.items()] == [
        (obj, _flat(e)) for obj, e in w_latest.items()
    ]
    assert dataclasses.asdict(g_gpu.stats) == dataclasses.asdict(w_gpu.stats)
    assert g_rng.getstate() == w_rng.getstate()


def _buckets(seed, n_buckets, min_len, max_len, n_objects, n_times, marker_pct):
    """Random ``(cell, Bucket)`` pairs.  Timestamps come from ``n_times``
    values, so equal ``(t, flag)`` keys — a removal marker tying a
    location update, two distinct updates of one object — are common."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_buckets):
        messages = []
        for _ in range(rng.randint(min_len, max_len)):
            obj = rng.randrange(n_objects)
            t = float(rng.randrange(n_times))
            if rng.randrange(100) < marker_pct:
                messages.append(Message(obj, None, None, t))
            else:
                messages.append(Message(obj, rng.randrange(4), rng.choice((0.0, 0.5)), t))
        pairs.append((rng.randrange(3), Bucket(max(1, len(messages)), messages)))
    return pairs


@settings(max_examples=60, deadline=None)
@given(
    eta=st.integers(1, 7),
    bundles=st.integers(0, 3),
    extra=st.integers(0, 127),
    min_len=st.integers(0, 3),
    max_len=st.integers(0, 8),
    n_objects=st.integers(1, 40),
    n_times=st.integers(1, 12),
    marker_pct=st.integers(0, 50),
    chunk_bundles=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# fleet_tick shape: one 32-lane bundle of 8 buckets, 60-99 messages each
@example(
    eta=5, bundles=0, extra=8, min_len=60, max_len=99, n_objects=3000,
    n_times=1000, marker_pct=5, chunk_bundles=4, seed=1,
)
# removal markers tying location updates of one object
@example(
    eta=2, bundles=1, extra=0, min_len=1, max_len=2, n_objects=1,
    n_times=1, marker_pct=50, chunk_bundles=1, seed=3,
)
# a multi-chunk launch: later chunks start at first_bundle > 0
@example(
    eta=1, bundles=3, extra=1, min_len=0, max_len=5, n_objects=4,
    n_times=3, marker_pct=20, chunk_bundles=1, seed=7,
)
def test_array_kernel_matches_reference(
    eta, bundles, extra, min_len, max_len, n_objects, n_times, marker_pct,
    chunk_bundles, seed,
):
    """Ragged and empty buckets, partial last bundles, eta 6-7 bundles
    that span warps, and launches split into several chunks."""
    n_buckets = bundles * (1 << eta) + extra % (1 << eta)
    pairs = _buckets(
        seed, n_buckets, min(min_len, max_len), max(min_len, max_len),
        n_objects, n_times, marker_pct,
    )
    _assert_identical(pairs, eta, chunk_bundles, seed)


def test_equal_keys_of_distinct_messages():
    """Two distinct updates of one object with equal ``(t, flag)``: which
    one lands in ``T`` depends on the cache and the race, identically."""
    for seed in range(40):
        pairs = [
            (0, Bucket(2, [Message(1, 3, 0.25, 5.0), Message(1, None, None, 5.0)])),
            (1, Bucket(2, [Message(1, 7, 0.75, 5.0)])),
            (2, Bucket(2, [Message(1, 9, 0.5, 5.0), Message(2, 1, 0.0, 4.0)])),
            (0, Bucket(1, [])),
        ]
        _assert_identical(pairs, 2, 1, seed)


def test_empty_launch():
    _assert_identical([], 3, 4, 0)
    _assert_identical([(0, Bucket(1, [])), (1, Bucket(1, []))], 3, 4, 0)
