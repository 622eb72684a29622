"""GPU_X_Shuffle: lock-free message deduplication (Algorithm 3).

One GPU thread is assigned per message bucket; threads are grouped into
bundles of ``2^eta`` lanes.  In every round each thread reads one message
from its bucket, then the bundle performs ``eta`` butterfly shuffles with
lane masks ``2^(eta-1) ... 2^0``.  Between shuffles each thread checks the
message it received against a small per-thread cache ``Gamma``: an older
message of a cached object is *replaced in flight* by the cached newer
one, which is how duplicates die without any lock.  Theorem 1 guarantees
at most ``mu(eta)`` distinct messages of any object survive a round, so
the final racy writes into the intermediate table ``T`` need only be
repeated ``mu(eta)`` times to ensure the newest message lands.

Array layout
------------
A launch is simulated as arrays, not lane by lane.  Its messages are
numbered globally, bucket after bucket, from each bucket's cached
:meth:`~repro.core.message_list.Bucket.columns`; the number one past the
last message stands for an empty lane.  Each message's ``(t, flag)``
sort key becomes a dense integer rank, so every recency compare is one
integer compare.  The launch is then one ``(rows, lanes)`` lane-index
matrix: a row per (bundle, round) pair, bundles ascending and, within a
bundle, rounds descending (the order in which a bundle's threads read
their buckets).  ``Gamma`` is cleared every round, so rows are
independent: the ``eta + 1`` cache checks and the ``eta`` ``lane ^ mask``
permutations run over all rows at once, with ``Gamma`` held as
``eta + 1`` ``(rows, lanes)`` planes: plane ``s`` holds the message each
lane's cache stored at check ``s``.  An object's current cache entry is
its latest stored plane, since a cache entry is only ever replaced by a
strictly newer message.

The write race is simulated faithfully, row by row: every repetition,
all lanes read a snapshot of ``T``, the lanes newer than their slot
write, and the writes land in a seeded random order (``rng.shuffle``)
with last-write-wins — exactly the hazard a real GPU exhibits.  The loop
stops at the first repetition with no writers, which is exact: an empty
shuffle draws no randomness.  ``T`` is materialised into
:class:`IntermediateTable` once, at the end of the launch: a slot holds
the winning bucket message itself, paired with its cell as
``(cell, message)`` — no record is copied.

Does the race's outcome depend on the shuffle order?  The winning
*keys* never do: each repetition strictly raises a slot's stored key
while a newer message exists, and there are at most ``mu(eta)`` distinct
ones.  But ``atomic_ops`` and the insertion order of ``T`` (hence of the
collected result) do: across 2,000 random ``eta = 5`` launches, changing
the race seed changed ``atomic_ops`` in 214 launches and the insertion
order in 1,293.  Launches with more duplicates per object change more
often (1,039 and 1,770 of 2,000 launches drawn by the differential
test's generator).  So the seeded race is kept, and its random stream is
consumed exactly as the per-lane simulation consumed it — every
simulated counter, result order and later random draw stays
reproducible.

Deviations from the paper's pseudocode (both required for Theorem 1 to
hold, see ``tests/core/test_xshuffle.py``):

* the cache ``Gamma`` is cleared at the start of each read round —
  Algorithm 3 allocates it once, but its size-``eta`` capacity is only
  sufficient per round; clearing keeps the bound tight and cannot lose
  messages (a cached entry only duplicates a message still in flight);
* a final cache check runs *after* the last shuffle — Algorithm 3's loop
  checks before shuffling, so a message arriving on the ``eta``-th
  shuffle would never meet the cache, yet the coverage argument behind
  Theorem 1 (Lemma 1 with ``k = eta``) counts exactly those meetings.
  Without the final check, a 4-lane bundle can end with 2 distinct
  survivors where ``mu`` says 1.

All bundles of a launch execute in lockstep on the device, so the kernel
charges its work once over the full thread count (rounds x (read + eta
cache/compare steps + eta shuffles) + mu(eta) table-write repetitions);
only the racy atomic writes are charged per actual conflict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.message_list import Bucket
from repro.core.messages import Message
from repro.core.mu import mu
from repro.errors import KernelError
from repro.simgpu.kernel import KernelContext


@dataclass
class IntermediateTable:
    """The table ``T``: per object, one candidate slot per bundle, each
    holding a ``(cell, message)`` pair or ``None``."""

    num_bundles: int
    slots: dict[int, list[tuple[int, Message] | None]] = field(default_factory=dict)

    def slot(self, obj: int, bundle: int) -> tuple[int, Message] | None:
        row = self.slots.get(obj)
        return row[bundle] if row is not None else None

    def store(self, obj: int, bundle: int, entry: tuple[int, Message]) -> None:
        row = self.slots.get(obj)
        if row is None:
            row = [None] * self.num_bundles
            self.slots[obj] = row
        row[bundle] = entry

    def device_nbytes(self) -> int:
        from repro.simgpu.memory import MESSAGE_BYTES, TABLE_ENTRY_BYTES

        return sum(
            TABLE_ENTRY_BYTES + self.num_bundles * MESSAGE_BYTES for _ in self.slots
        )


def x_shuffle_kernel(
    ctx: KernelContext,
    buckets: Sequence[tuple[int, Bucket]],
    eta: int,
    table: IntermediateTable,
    first_bundle: int,
    rng: random.Random,
) -> int:
    """Clean a batch of buckets into ``table``; returns messages processed.

    Args:
        ctx: kernel context for work accounting.
        buckets: one ``(cell, bucket)`` pair per thread (ragged; short or
            empty buckets read nothing past their end).
        eta: bundle-size exponent (``2^eta`` lanes per bundle).
        table: the shared intermediate table ``T``.
        first_bundle: global bundle index of this batch's first bundle
            (bundles from different pipeline chunks must not collide).
        rng: seeded source for the simulated write-race ordering.

    Raises:
        KernelError: a slot of this launch's bundles was already written
            (two launches were given overlapping bundle ranges).
    """
    bundle_size = 1 << eta
    mu_eta = mu(eta)
    lens = np.fromiter((b.n for _, b in buckets), np.int64, len(buckets))
    processed = int(lens.sum())
    atomic_writes = 0
    if processed:
        objs, ranks = _launch_keys(buckets, processed)
        lanes, row_bundle = _lane_matrix(lens, bundle_size, processed)
        lanes = _gamma_rounds(lanes, objs, ranks, eta)
        stored, atomic_writes = _write_race(lanes, row_bundle, objs, ranks, mu_eta, rng)
        _materialise(table, stored, buckets, lens, first_bundle)

    # Lockstep accounting over the whole launch: every thread walks the
    # longest bucket's rounds (shorter buckets idle but stay in step).
    rounds = int(lens.max()) if len(lens) else 0
    if rounds:
        # register work per round: (eta + 1) x (cache lookup + compare)
        ctx.charge(rounds * 2 * (eta + 1))
        # global-memory work per round: the bucket read + mu snapshot
        # reads of T (this is what makes very large serial buckets —
        # few threads, many rounds — lose in Fig. 4a)
        ctx.charge_mem(rounds * (1 + mu_eta))
        ctx.charge_shuffles(bundle_size, rounds * eta)
    ctx.charge_atomic(atomic_writes)
    return processed


def shuffle_round(lanes: list[Message | None], eta: int) -> list[Message | None]:
    """One cache-and-shuffle round over a bundle's lanes (Algorithm 3
    lines 5-10 plus the final post-shuffle check, see module docstring).

    The one-row case of the kernel's array path.  Returns the surviving
    per-lane messages; at most ``mu(eta)`` distinct messages of any
    single object remain, and the newest message of every object is
    always among the survivors.
    """
    if len(lanes) != 1 << eta:
        raise KernelError(f"a bundle at eta={eta} has {1 << eta} lanes, got {len(lanes)}")
    present = [m for m in lanes if m is not None]
    n = len(present)
    objs = np.fromiter((m.obj for m in present), np.int64, n)
    ts = np.fromiter((m.t for m in present), np.float64, n)
    flags = np.fromiter((0 if m.is_removal else 1 for m in present), np.int64, n)
    row = np.full((1, len(lanes)), n, dtype=np.int64)
    row[0, [i for i, m in enumerate(lanes) if m is not None]] = np.arange(n)
    out = _gamma_rounds(row, np.append(objs, 0), np.append(_key_ranks(ts, flags), -1), eta)
    return [present[i] if i < n else None for i in out[0].tolist()]


def _key_ranks(ts: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Dense ranks of the ``(t, flag)`` sort keys: equal keys share a
    rank, and a greater rank is a newer message."""
    order = np.lexsort((flags, ts))
    st, sf = ts[order], flags[order]
    step = np.empty(len(order), dtype=np.int64)
    step[:1] = 0
    step[1:] = (st[1:] != st[:-1]) | (sf[1:] != sf[:-1])
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step)
    return ranks


def _launch_keys(
    buckets: Sequence[tuple[int, Bucket]], total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-message object ids and key ranks over the launch, each with
    one trailing sentinel entry for the empty lane (index ``total``)."""
    objs = np.empty(total + 1, dtype=np.int64)
    ts = np.empty(total, dtype=np.float64)
    flags = np.empty(total, dtype=np.int64)
    at = 0
    for _, bucket in buckets:
        o, t, fl = bucket.columns()
        n = len(o)
        objs[at : at + n] = o
        ts[at : at + n] = t
        flags[at : at + n] = fl
        at += n
    objs[total] = 0
    return objs, np.append(_key_ranks(ts, flags), -1)


def _lane_matrix(
    lens: np.ndarray, bundle_size: int, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """The launch's ``(rows, lanes)`` message-index matrix and each row's
    launch-local bundle; empty lanes hold ``total``."""
    n_bundles = -(-len(lens) // bundle_size)
    padded = np.zeros(n_bundles * bundle_size, dtype=np.int64)
    padded[: len(lens)] = lens
    starts = np.cumsum(padded) - padded
    per_lane = padded.reshape(n_bundles, bundle_size)
    rounds = per_lane.max(axis=1)
    row_bundle = np.repeat(np.arange(n_bundles), rounds)
    # bundle b's rows read rounds rounds[b]-1 ... 0, in that order
    row_round = np.repeat(np.cumsum(rounds), rounds) - 1 - np.arange(len(row_bundle))
    lane_len = per_lane[row_bundle]
    lane_start = starts.reshape(n_bundles, bundle_size)[row_bundle]
    at = row_round[:, None]
    lanes = np.where(at < lane_len, lane_start + at, total)
    return lanes, row_bundle


def _gamma_rounds(
    lanes: np.ndarray, objs: np.ndarray, ranks: np.ndarray, eta: int
) -> np.ndarray:
    """The ``eta + 1`` cache checks and ``eta`` butterfly shuffles of
    every row at once; returns each lane's surviving message index.

    ``objs`` and ``ranks`` are indexed by message; their last entry is
    the empty-lane sentinel, whose rank -1 loses every compare.
    """
    empty = len(objs) - 1
    # dense object codes, -1 on the empty lane: a cache plane's empty
    # entries then never match an occupied lane's object
    codes = np.append(np.unique(objs[:-1], return_inverse=True)[1], -1)
    lane_code = codes[lanes]
    lane_ids = np.arange(lanes.shape[1])
    gamma: list[np.ndarray] = []  # per check: the message each cache stored
    gamma_code: list[np.ndarray] = []
    for s in range(eta + 1):
        cached = np.full_like(lanes, empty)
        for g, g_code in zip(gamma, gamma_code):
            cached = np.where(g_code == lane_code, g, cached)  # latest entry wins
        # an older (or equal) message is replaced by the cached one; an
        # empty lane only ever finds the empty entry, and stays empty
        keep_cached = ranks[cached] >= ranks[lanes]
        lanes = np.where(keep_cached, cached, lanes)
        gamma.append(np.where(keep_cached, empty, lanes))
        gamma_code.append(np.where(keep_cached, -1, lane_code))
        if s < eta:
            perm = lane_ids ^ (1 << (eta - 1 - s))
            lanes = lanes[:, perm]
            lane_code = lane_code[:, perm]
    return lanes


def _write_race(
    lanes: np.ndarray,
    row_bundle: np.ndarray,
    objs: np.ndarray,
    ranks: np.ndarray,
    mu_eta: int,
    rng: random.Random,
) -> tuple[list[tuple[int, dict[int, int]]], int]:
    """The ``mu(eta)``-repeated racy writes of every row, in row order.

    Returns, per launch-local bundle with rows, its slots as
    ``{obj: message index}`` in first-write order, and the number of
    atomic writes.
    """
    # each row's occupied lanes, in lane order
    live = lanes != len(objs) - 1
    occupied = lanes[live].tolist()
    row_ends = np.cumsum(live.sum(axis=1)).tolist()

    obj_of = objs.tolist()
    rank_of = ranks.tolist()
    stored: list[tuple[int, dict[int, int]]] = []
    slot_rank: dict[int, int] = {}
    slot_msg: dict[int, int] = {}
    writes = 0
    current = -1
    start = 0
    for b, end in zip(row_bundle.tolist(), row_ends):
        if b != current:
            current = b
            slot_rank, slot_msg = {}, {}
            stored.append((b, slot_msg))
        row = occupied[start:end]
        start = end
        for _ in range(mu_eta):
            # every lane reads the snapshot, then the newer ones write
            writers = [m for m in row if rank_of[m] > slot_rank.get(obj_of[m], -1)]
            if not writers:
                break  # the table is unchanged, so later repetitions are too
            if len(writers) > 1:  # shuffling one writer draws nothing
                rng.shuffle(writers)  # last write wins, in arbitrary order
            for m in writers:
                o = obj_of[m]
                slot_rank[o] = rank_of[m]
                slot_msg[o] = m
            writes += len(writers)
    return stored, writes


def _materialise(
    table: IntermediateTable,
    stored: list[tuple[int, dict[int, int]]],
    buckets: Sequence[tuple[int, Bucket]],
    lens: np.ndarray,
    first_bundle: int,
) -> None:
    """Write the race's winners into ``T`` as ``(cell, message)`` pairs
    of the bucket's own message objects, in the order the race first
    wrote each object."""
    winners = np.fromiter((m for _, slots in stored for m in slots.values()), np.int64)
    starts = np.cumsum(lens) - lens
    owner = np.searchsorted(starts, winners, side="right") - 1
    where = iter(zip(owner.tolist(), (winners - starts[owner]).tolist()))
    rows = table.slots
    for b, slots in stored:
        bundle_id = first_bundle + b
        for obj in slots:
            k, i = next(where)
            row = rows.get(obj)
            if row is None:
                row = rows[obj] = [None] * table.num_bundles
            elif row[bundle_id] is not None:
                raise KernelError(
                    f"slot of object {obj} in bundle {bundle_id} already written"
                )
            cell, bucket = buckets[k]
            row[bundle_id] = (cell, bucket.messages[i])


def collect_kernel(
    ctx: KernelContext, table: IntermediateTable
) -> dict[int, tuple[int, Message]]:
    """``GPU_Collect``: reduce each object's bundle slots to its latest.

    One thread per object scans the object's per-bundle candidates and
    returns ``{obj: (cell, latest message)}``.
    """
    result: dict[int, tuple[int, Message]] = {}
    for obj, row in table.slots.items():
        latest: tuple[int, Message] | None = None
        for entry in row:
            if entry is not None and (
                latest is None or entry[1].sort_key > latest[1].sort_key
            ):
                latest = entry
        if latest is not None:
            result[obj] = latest
    # parallel reduction over the bundle axis: log2 depth per object
    depth = max(1, (table.num_bundles - 1).bit_length())
    ctx.charge(depth, n_threads=max(1, len(table.slots)))
    return result
