"""Message cleaning: materialising cached updates on demand (Algorithm 2).

Given the message lists of the cells a query touches, cleaning

1. **locks** each list (fresh tail bucket, ``p_l`` pointer) and gathers
   the live buckets, discarding buckets whose newest message is older
   than ``t_now - t_delta`` (every object must update at least once per
   ``t_delta``, so such buckets are wholly obsolete);
2. **ships** the buckets to the GPU — pipelined, so the device cleans
   early chunks while later chunks are still in flight (Section V-A);
3. **deduplicates** them with the X-shuffle kernel into the intermediate
   table ``T`` (one candidate slot per object per bundle);
4. **collects** the per-object latest messages into the result table
   ``R``, copies ``R`` back and rewrites each cell's message list as the
   compacted snapshot (one message per live object).

The result — the up-to-date occupants of every cleaned cell — is what the
kNN candidate phase consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config import GGridConfig
from repro.core.message_list import Bucket, MessageList
from repro.core.messages import CellMessage, Message
from repro.core.object_table import ObjectTable
from repro.core.xshuffle import IntermediateTable, collect_kernel, x_shuffle_kernel
from repro.obs.tracing import span
from repro.simgpu.device import SimGpu
from repro.simgpu.memory import MESSAGE_BYTES
from repro.simgpu.stream import PipelinedStream

#: Buckets are shipped to the GPU in chunks of this many bundles.
_CHUNK_BUNDLES = 4


@dataclass(frozen=True, slots=True)
class CleanedLocation:
    """Latest known position of an object after cleaning."""

    edge: int
    offset: float
    t: float


@dataclass
class CleaningResult:
    """Outcome of one ``Message_Cleaning`` invocation.

    Attributes:
        occupants: per cleaned cell, the live objects and their latest
            locations (removal-marker-latest objects are excluded).
        cells: the cells actually cleaned (locked lists are skipped).
        messages_processed: messages the GPU kernels consumed.
        buckets_shipped: buckets transferred to the device.
        messages_dropped: messages discarded as obsolete before transfer.
    """

    occupants: dict[int, dict[int, CleanedLocation]] = field(default_factory=dict)
    cells: set[int] = field(default_factory=set)
    messages_processed: int = 0
    buckets_shipped: int = 0
    messages_dropped: int = 0
    objects_expired: int = 0

    def all_objects(self) -> dict[int, tuple[int, CleanedLocation]]:
        """Flatten to ``{obj: (cell, location)}``."""
        flat: dict[int, tuple[int, CleanedLocation]] = {}
        for cell, objs in self.occupants.items():
            for obj, loc in objs.items():
                flat[obj] = (cell, loc)
        return flat


class MessageCleaner:
    """Executes Algorithm 2 against a set of per-cell message lists."""

    def __init__(self, gpu: SimGpu, config: GGridConfig) -> None:
        self.gpu = gpu
        self.config = config
        self._rng = random.Random(config.seed ^ 0x5EED)
        self._stream = PipelinedStream(gpu, enabled=config.pipelined_transfers)
        #: lifetime counters the batching cost tests and the ``batch``
        #: experiment compare: cleaning passes completed and cells
        #: cleaned across them (a cell re-cleaned by a later pass counts
        #: again — that repetition is exactly what epoch batching dedups)
        self.cleanings_total = 0
        self.cells_cleaned_total = 0

    def clean(
        self,
        lists: dict[int, MessageList],
        t_now: float,
        object_table: ObjectTable,
        use_gpu: bool = True,
    ) -> CleaningResult:
        """Clean the given cells' message lists; see the module docstring.

        Args:
            lists: ``{cell id: its message list}`` for the cells to clean.
            t_now: current time (prunes buckets older than ``t_delta``).
            object_table: the eager object table, used to drop objects
                whose newest message lives in a cell outside this pass.
            use_gpu: run steps 2-4 on the device (the paper's pipeline).
                ``False`` deduplicates on the host instead — the
                degraded-mode rung used when the device is faulting; the
                result (and the compacted lists) are identical, only the
                X-shuffle/transfer machinery is bypassed.
        """
        with span("clean_cells") as sp:
            result = self._clean(lists, t_now, object_table, use_gpu)
            sp.set_attr("cells", len(result.cells))
            sp.set_attr("messages", result.messages_processed)
            sp.set_attr("buckets", result.buckets_shipped)
        self.cleanings_total += 1
        self.cells_cleaned_total += len(result.cells)
        return result

    def _clean(
        self,
        lists: dict[int, MessageList],
        t_now: float,
        object_table: ObjectTable,
        use_gpu: bool = True,
    ) -> CleaningResult:
        result = CleaningResult()
        config = self.config

        # -- step 1: preprocessing — lock lists and gather live buckets --
        locked: dict[int, MessageList] = {}
        live_pairs: list[tuple[int, Bucket]] = []
        for cell, mlist in lists.items():
            if mlist.locked:  # concurrent cleaning owns it: skip safely
                continue
            before = mlist.num_messages
            mlist.lock_for_cleaning()
            locked[cell] = mlist
            live = mlist.locked_buckets(t_now, config.t_delta)
            shipped = 0
            for bucket in live:
                live_pairs.append((cell, bucket))
                shipped += bucket.n
            result.messages_dropped += before - shipped
            result.cells.add(cell)
        result.buckets_shipped = len(live_pairs)

        try:
            if use_gpu:
                latest = self._run_gpu_pipeline(live_pairs, result)
            else:
                latest = self._dedup_host(live_pairs, result)
        except Exception:
            # fault during the GPU phase: put every frozen bucket back —
            # cached updates must survive any cleaning failure
            for mlist in locked.values():
                mlist.unlock_abort()
            self.gpu.free("clean.T")
            self.gpu.free("clean.R")
            raise

        # -- step 4 (CPU side): build R, reconcile with the object table,
        #    and rewrite the cleaned lists as compacted snapshots --
        for cell in locked:
            result.occupants[cell] = {}
        # expire contract violators from the object table too: an object
        # whose last report predates t_now - t_delta was pruned from the
        # message lists above, and leaving it in the table would let the
        # CPU refinement (which enumerates objects via the table) see a
        # different world than the GPU candidate phase
        cutoff = t_now - config.t_delta
        for cell in locked:
            # columnar scan: one vectorised timestamp compare per cell;
            # the expired ids are materialised before removal mutates the
            # underlying per-cell set
            cols = object_table.cell_columns(cell)
            if cols is None:
                continue
            for obj in cols.objs[cols.ts < cutoff].tolist():
                object_table.remove(obj)
                result.objects_expired += 1
        for obj, message in latest.items():
            if message.is_removal:
                continue  # the object left this cell
            entry = object_table.try_get(obj)
            if entry is None or entry.cell != message.cell:
                continue  # moved away; its newer message lives elsewhere
            result.occupants.setdefault(message.cell, {})[obj] = CleanedLocation(
                message.edge, message.offset, message.t
            )

        for cell, mlist in locked.items():
            mlist.release_cleaned()
            snapshot = [
                Message(obj, loc.edge, loc.offset, loc.t)
                for obj, loc in sorted(
                    result.occupants.get(cell, {}).items(),
                    key=lambda kv: kv[1].t,
                )
            ]
            mlist.prepend_snapshot(snapshot)
        return result

    def _dedup_host(
        self,
        live_pairs: list[tuple[int, Bucket]],
        result: CleaningResult,
    ) -> dict[int, CellMessage]:
        """Degraded-mode steps 2-4 on the host: per-object latest message.

        Semantically identical to X-shuffle + collect (which keep the
        message with the greatest :attr:`CellMessage.sort_key` per
        object, removal markers losing timestamp ties) without touching
        the device.  Used by the resilience ladder when the GPU is
        faulting; the wall time it costs is charged through the normal
        CPU-phase measurement of the caller.

        One scalar pass keeps, per object, the *first* message carrying
        the maximal ``(t, flag)`` key; the result lists objects by first
        occurrence.  It is the only host path: the degraded calls seen in
        the trajectory scenarios carry at most about a hundred messages,
        and a columnar lexsort over the buckets' cached columns was
        slower than this loop at those sizes.
        """
        total = sum(bucket.n for _, bucket in live_pairs)
        with span("dedup_host") as sp:
            result.messages_processed += total
            sp.set_attr("messages", total)
            winners: dict[int, tuple[tuple[float, int], int, Message]] = {}
            for cell, bucket in live_pairs:
                for m in bucket.messages:
                    key = (m.t, 0 if m.is_removal else 1)
                    prev = winners.get(m.obj)
                    if prev is None or prev[0] < key:
                        winners[m.obj] = (key, cell, m)
            return {
                obj: CellMessage.tag(m, cell) for obj, (_, cell, m) in winners.items()
            }

    def _run_gpu_pipeline(
        self,
        live_pairs: list[tuple[int, Bucket]],
        result: CleaningResult,
    ) -> dict[int, CellMessage]:
        """Steps 2-4 (GPU side): ship, X-shuffle and collect.

        Each chunk of ``(cell, bucket)`` pairs ships as its messages'
        packed size; the kernel tags a message with its cell only when
        the message wins a slot of ``T``.
        """
        if not live_pairs:
            return {}
        config = self.config
        bundle_size = config.bundle_size
        num_bundles = -(-len(live_pairs) // bundle_size)

        # -- step 2: prepare device memory for T --
        table = IntermediateTable(num_bundles)
        self.gpu.memory.store("clean.T", table, nbytes=0)

        # -- step 3: pipelined transfer + parallel X-shuffle cleaning --
        chunk_size = _CHUNK_BUNDLES * bundle_size
        chunks = [
            live_pairs[i : i + chunk_size]
            for i in range(0, len(live_pairs), chunk_size)
        ]

        def chunk_nbytes(chunk: list[tuple[int, Bucket]]) -> int:
            return sum(bucket.n for _, bucket in chunk) * MESSAGE_BYTES

        def process(chunk_index: int, chunk: list[tuple[int, Bucket]]) -> int:
            first_bundle = chunk_index * _CHUNK_BUNDLES
            return self.gpu.launch(
                "GPU_X_Shuffle",
                len(chunk),
                x_shuffle_kernel,
                chunk,
                config.eta,
                table,
                first_bundle,
                self._rng,
            )

        with span("xshuffle_dedup") as sp:
            processed = self._stream.run(
                chunks, process, name="clean.buckets", chunk_nbytes=chunk_nbytes
            )
            result.messages_processed += sum(processed)
            sp.set_attr("chunks", len(chunks))
            sp.set_attr("messages", sum(processed))

        # -- step 4 (GPU side): collect the latest message per object --
        with span("collect"):
            latest = self.gpu.launch(
                "GPU_Collect", max(1, len(table.slots)), collect_kernel, table
            )
            self.gpu.memory.store(
                "clean.R", latest, nbytes=len(latest) * MESSAGE_BYTES
            )
            self.gpu.from_device("clean.R")
            self.gpu.free("clean.R")
            self.gpu.free("clean.T")
        return latest
