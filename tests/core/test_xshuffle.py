"""Unit and property tests for GPU_X_Shuffle (Algorithm 3).

The two guarantees the paper proves, tested empirically:

1. the latest message of every object always survives the shuffles and
   the mu(eta)-repeated racy table writes;
2. after one shuffle round the number of distinct surviving messages of
   any single object never exceeds mu(eta) (Theorem 1).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message_list import Bucket
from repro.core.messages import Message
from repro.core.mu import mu
from repro.core.xshuffle import (
    IntermediateTable,
    collect_kernel,
    shuffle_round,
    x_shuffle_kernel,
)
from repro.errors import KernelError
from repro.simgpu.device import SimGpu


def _msg(obj: int, t: float) -> Message:
    return Message(obj, edge=0, offset=0.0, t=t)


def _pairs(buckets, cells=None):
    """Lists of messages -> the kernel's ``(cell, Bucket)`` input; list
    ``i`` is filed under ``cells[i]`` (cell 0 by default)."""
    cells = cells or [0] * len(buckets)
    return [
        (cell, Bucket(max(1, len(bucket)), list(bucket)))
        for cell, bucket in zip(cells, buckets)
    ]


def _clean_bundle(bundle, eta, mu_eta, table, bundle_id, rng):
    """Run one bundle through the kernel as bundle ``bundle_id`` of T."""
    assert len(bundle) == 1 << eta and mu_eta == mu(eta)
    SimGpu().launch(
        "xshuffle", len(bundle), x_shuffle_kernel, _pairs(bundle), eta, table,
        bundle_id, rng,
    )


def _run_kernel(buckets, eta, seed=0, cells=None):
    gpu = SimGpu()
    bundle_size = 1 << eta
    num_bundles = -(-len(buckets) // bundle_size)
    table = IntermediateTable(num_bundles)
    processed = gpu.launch(
        "xshuffle",
        max(1, len(buckets)),
        x_shuffle_kernel,
        _pairs(buckets, cells),
        eta,
        table,
        0,
        random.Random(seed),
    )
    latest = gpu.launch("collect", max(1, len(table.slots)), collect_kernel, table)
    return processed, table, latest, gpu


def test_single_bucket_single_message():
    processed, _, latest, _ = _run_kernel([[_msg(7, 1.0)]], eta=3)
    assert processed == 1
    assert latest[7] == (0, Message(7, 0, 0.0, 1.0))


def test_latest_message_wins_within_bucket():
    bucket = [_msg(1, t) for t in (1.0, 5.0, 3.0)]
    _, _, latest, _ = _run_kernel([bucket], eta=3)
    assert latest[1][1].t == 5.0


def test_latest_message_wins_across_buckets():
    buckets = [[_msg(1, 1.0)], [_msg(1, 9.0)], [_msg(1, 4.0)], [_msg(2, 2.0)]]
    _, _, latest, _ = _run_kernel(buckets, eta=2)
    assert latest[1][1].t == 9.0
    assert latest[2][1].t == 2.0


def test_ragged_buckets_handled():
    buckets = [[_msg(1, 1.0), _msg(1, 2.0)], [], [_msg(2, 1.0)]]
    processed, _, latest, _ = _run_kernel(buckets, eta=2)
    assert processed == 3
    assert latest[1][1].t == 2.0


def test_removal_marker_loses_timestamp_tie():
    marker = Message(1, None, None, 5.0)
    real = Message(1, 3, 0.25, 5.0)
    _, _, latest, _ = _run_kernel([[marker], [real]], eta=2, cells=[0, 1])
    assert latest[1] == (1, real)


def test_kernel_charges_work():
    buckets = [[_msg(i, float(j)) for j in range(4)] for i in range(8)]
    *_, gpu = _run_kernel(buckets, eta=3)
    assert gpu.stats.shuffle_ops > 0
    assert gpu.stats.atomic_ops > 0
    assert gpu.stats.lane_ops > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5), st.integers(1, 6))
def test_latest_always_survives(seed, eta, num_objects):
    """Property: for random buckets, the newest message per object is
    exactly what GPU_Collect reports."""
    rng = random.Random(seed)
    bundle_size = 1 << eta
    n_buckets = rng.randrange(1, 3 * bundle_size)
    buckets = []
    truth = {}
    t = 0.0
    for _ in range(n_buckets):
        bucket = []
        for _ in range(rng.randrange(0, 6)):
            obj = rng.randrange(num_objects)
            t += 1.0
            bucket.append(_msg(obj, t))
            truth[obj] = t
        buckets.append(bucket)
    _, _, latest, _ = _run_kernel(buckets, eta, seed=seed)
    assert {o: m.t for o, (_, m) in latest.items()} == truth


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 5))
def test_survivors_bounded_by_mu(seed, eta):
    """Theorem 1 (empirical): one round of shuffles leaves at most
    mu(eta) distinct messages of a single object in the bundle."""
    rng = random.Random(seed)
    bundle_size = 1 << eta
    # one message per thread, all the same object, distinct timestamps
    times = list(range(bundle_size))
    rng.shuffle(times)
    lanes = shuffle_round([_msg(0, float(t)) for t in times], eta)
    survivors = {m.t for m in lanes}
    assert len(survivors) <= mu(eta)
    assert max(survivors) == float(bundle_size - 1)  # newest survived


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_racy_writes_converge(seed):
    """Property: the mu-repeated last-write-wins race always ends with
    the newest message stored, for any write ordering."""
    rng = random.Random(seed)
    eta = 4
    bundle_size = 1 << eta
    times = list(range(bundle_size))
    rng.shuffle(times)
    bundle = [[_msg(0, float(t))] for t in times]
    table = IntermediateTable(1)
    _clean_bundle(bundle, eta, mu(eta), table, 0, rng)
    assert table.slot(0, 0)[1].t == float(bundle_size - 1)


def test_overlapping_bundle_ranges_rejected():
    """Each launch owns its bundles' slots of T; a second launch over
    the same bundle range must not silently overwrite them."""
    bundle = [[_msg(1, 1.0)], [_msg(2, 2.0)]]
    table = IntermediateTable(1)
    _clean_bundle(bundle, 1, mu(1), table, 0, random.Random(0))
    with pytest.raises(KernelError, match="already written"):
        _clean_bundle(bundle, 1, mu(1), table, 0, random.Random(0))


def test_intermediate_table_slots():
    table = IntermediateTable(3)
    assert table.slot(5, 1) is None
    table.store(5, 1, (0, _msg(5, 2.0)))
    assert table.slot(5, 1) == (0, _msg(5, 2.0))
    assert table.slot(5, 0) is None
    assert table.device_nbytes() > 0
