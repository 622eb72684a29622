"""Reference model: the per-lane X-shuffle simulation, kept verbatim.

This is the list-based implementation of ``GPU_X_Shuffle`` (Algorithm 3)
that simulated one lane, one round and one cache probe at a time.  The
array kernel in :mod:`repro.core.xshuffle` replaced it; the differential
property in ``test_xshuffle_differential.py`` runs both on the same
launches and seeds and requires identical tables, counters, simulated
time and random-generator state.

Only its records differ from the array kernel: each bucket here is a
list of cell-tagged :class:`CellMessage` records (private to this model)
rather than a ``(cell, Bucket)`` pair, ``T`` holds those records rather
than ``(cell, message)`` pairs, and :func:`collect_kernel` reduces them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.mu import mu
from repro.core.xshuffle import IntermediateTable
from repro.simgpu import warp as warp_mod
from repro.simgpu.kernel import KernelContext


@dataclass(frozen=True, slots=True)
class CellMessage:
    """A message tagged with its cell id, ``<o, c, e, d, t>``."""

    cell: int
    obj: int
    edge: int | None
    offset: float | None
    t: float

    @property
    def is_removal(self) -> bool:
        return self.edge is None

    @property
    def sort_key(self) -> tuple[float, int]:
        """Removal markers lose timestamp ties."""
        return (self.t, 0 if self.is_removal else 1)


def x_shuffle_kernel(
    ctx: KernelContext,
    buckets: list[list[CellMessage]],
    eta: int,
    table: IntermediateTable,
    first_bundle: int,
    rng: random.Random,
) -> int:
    """Clean a batch of buckets into ``table``; returns messages processed.

    Args:
        ctx: kernel context for work accounting.
        buckets: one message bucket per thread (ragged; short/empty
            buckets read ``None`` past their end).
        eta: bundle-size exponent (``2^eta`` lanes per bundle).
        table: the shared intermediate table ``T``.
        first_bundle: global bundle index of this batch's first bundle
            (bundles from different pipeline chunks must not collide).
        rng: seeded source for the simulated write-race ordering.
    """
    bundle_size = 1 << eta
    mu_eta = mu(eta)
    processed = 0
    atomic_writes = 0
    for start in range(0, len(buckets), bundle_size):
        bundle = buckets[start : start + bundle_size]
        bundle = bundle + [[] for _ in range(bundle_size - len(bundle))]
        bundle_id = first_bundle + start // bundle_size
        done, writes = _clean_bundle(bundle, eta, mu_eta, table, bundle_id, rng)
        processed += done
        atomic_writes += writes

    # Lockstep accounting over the whole launch: every thread walks the
    # longest bucket's rounds (shorter buckets idle but stay in step).
    rounds = max((len(b) for b in buckets), default=0)
    if rounds:
        # register work per round: (eta + 1) x (cache lookup + compare)
        ctx.charge(rounds * 2 * (eta + 1))
        # global-memory work per round: the bucket read + mu snapshot
        # reads of T (this is what makes very large serial buckets —
        # few threads, many rounds — lose in Fig. 4a)
        ctx.charge_mem(rounds * (1 + mu_eta))
        for _ in range(rounds * eta):
            ctx.charge_shuffle(bundle_size)
    ctx.charge_atomic(atomic_writes)
    return processed


def shuffle_round(
    lanes: list[CellMessage | None], eta: int
) -> list[CellMessage | None]:
    """One cache-and-shuffle round over a bundle's lanes (Algorithm 3
    lines 5-10 plus the final post-shuffle check, see module docstring).

    Returns the surviving per-lane messages; at most ``mu(eta)`` distinct
    messages of any single object remain, and the newest message of every
    object is always among the survivors.
    """
    bundle_size = 1 << eta
    lanes = list(lanes)
    caches: list[dict[int, CellMessage]] = [dict() for _ in range(bundle_size)]

    def check(lane: int) -> None:
        m = lanes[lane]
        if m is None:
            return
        cached = caches[lane].get(m.obj)
        if cached is None or cached.sort_key < m.sort_key:
            caches[lane][m.obj] = m
        else:
            lanes[lane] = cached  # carry the newer message onward

    for j in range(1, eta + 1):
        for lane in range(bundle_size):
            check(lane)
        lanes = warp_mod.shuffle_xor(lanes, 1 << (eta - j))
    for lane in range(bundle_size):
        check(lane)  # final check: meetings at the eta-th shuffle count
    return lanes


def _clean_bundle(
    bundle: list[list[CellMessage]],
    eta: int,
    mu_eta: int,
    table: IntermediateTable,
    bundle_id: int,
    rng: random.Random,
) -> tuple[int, int]:
    """Run Algorithm 3 on one bundle; returns (messages, atomic writes)."""
    rounds = max((len(b) for b in bundle), default=0)
    processed = 0
    atomic_writes = 0
    for i in range(rounds - 1, -1, -1):
        # every lane reads one message from its bucket (line 4)
        read: list[CellMessage | None] = [
            bucket[i] if i < len(bucket) else None for bucket in bundle
        ]
        processed += sum(1 for m in read if m is not None)
        lanes = shuffle_round(read, eta)
        # racy table writes, repeated mu(eta) times (lines 11-13)
        for _ in range(mu_eta):
            snapshot = {
                lane: table.slot(m.obj, bundle_id)
                for lane, m in enumerate(lanes)
                if m is not None
            }
            writers = [
                lane
                for lane, m in enumerate(lanes)
                if m is not None
                and (snapshot[lane] is None or snapshot[lane].sort_key < m.sort_key)
            ]
            rng.shuffle(writers)  # last write wins, in arbitrary order
            for lane in writers:
                table.store(lanes[lane].obj, bundle_id, lanes[lane])
            atomic_writes += len(writers)
    return processed, atomic_writes


def collect_kernel(
    ctx: KernelContext, table: IntermediateTable
) -> dict[int, CellMessage]:
    """``GPU_Collect`` over this model's records: per object, the first
    slot holding the greatest sort key."""
    result: dict[int, CellMessage] = {}
    for obj, row in table.slots.items():
        latest: CellMessage | None = None
        for m in row:
            if m is not None and (latest is None or m.sort_key > latest.sort_key):
                latest = m
        if latest is not None:
            result[obj] = latest
    depth = max(1, (table.num_bundles - 1).bit_length())
    ctx.charge(depth, n_threads=max(1, len(table.slots)))
    return result
