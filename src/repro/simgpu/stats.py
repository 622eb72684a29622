"""Counters and simulated-time accounting for the software GPU.

Everything the benchmarks report about the GPU comes from here: per-lane
operation counts, shuffle counts, barrier counts, host<->device transfer
bytes, and the simulated times derived from them by the cost model.  The
figures on DRAM–GPU transfer cost (Fig. 10c/d) read these counters
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: what :meth:`GpuStats.mark` returns: kernel, transfer and pipelined-
#: saved seconds, then host-to-device and device-to-host bytes
StatsMark = tuple[float, float, float, int, int]


@dataclass
class GpuStats:
    """Mutable counter block attached to a :class:`~repro.simgpu.device.SimGpu`.

    Attributes:
        kernel_launches: number of kernels launched.
        batched_launches: launches made by the batch engine (a subset
            of ``kernel_launches``), including launches that carry a
            single job — every kNN query runs as a member of a batch.
        batched_jobs: per-query jobs carried by those launches;
            ``batched_jobs - batched_launches`` is the number of launch
            overheads the batch engine saved.
        lane_ops: total per-lane operations charged by kernels.
        shuffle_ops: warp shuffle instructions executed (per lane).
        sync_count: ``sync_threads`` barriers executed.
        atomic_ops: simulated racy/atomic table writes.
        bytes_h2d: host-to-device bytes transferred.
        bytes_d2h: device-to-host bytes transferred.
        transfers_h2d: host-to-device transfer operations.
        transfers_d2h: device-to-host transfer operations.
        kernel_time_s: simulated kernel execution time.
        transfer_time_s: simulated transfer time (pipelining may make the
            *wall* contribution smaller; streams record the overlap in
            ``pipelined_saved_s``).
        pipelined_saved_s: transfer time hidden by stream overlap.
    """

    kernel_launches: int = 0
    batched_launches: int = 0
    batched_jobs: int = 0
    lane_ops: int = 0
    shuffle_ops: int = 0
    sync_count: int = 0
    atomic_ops: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    transfers_h2d: int = 0
    transfers_d2h: int = 0
    kernel_time_s: float = 0.0
    transfer_time_s: float = 0.0
    pipelined_saved_s: float = 0.0

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in _FIELD_NAMES:
            setattr(self, name, type(getattr(self, name))())

    def snapshot(self) -> "GpuStats":
        """An independent copy of the current counters."""
        return GpuStats(**{name: getattr(self, name) for name in _FIELD_NAMES})

    def diff(self, earlier: "GpuStats") -> "GpuStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return GpuStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _FIELD_NAMES
            }
        )

    def merge(self, other: "GpuStats") -> None:
        """Add ``other``'s counters into this block."""
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def mark(self) -> StatsMark:
        """The five counters behind :attr:`gpu_time_s` and
        :attr:`total_bytes`, for a later :meth:`since`.

        Five attribute reads into a plain tuple, where :meth:`snapshot`
        builds a fourteen-field copy: the serving path takes one around
        every update and query.
        """
        return (
            self.kernel_time_s,
            self.transfer_time_s,
            self.pipelined_saved_s,
            self.bytes_h2d,
            self.bytes_d2h,
        )

    def since(self, mark: StatsMark) -> tuple[float, int]:
        """``(gpu_time_s, total_bytes)`` accumulated since ``mark``.

        Bit-identical to ``self.diff(snapshot).gpu_time_s`` and
        ``.total_bytes`` for a snapshot taken at the mark: each counter
        is subtracted first, then combined in the same order.
        """
        kernel0, transfer0, saved0, h2d, d2h = mark
        kernel = self.kernel_time_s - kernel0
        transfer = self.transfer_time_s - transfer0
        saved = self.pipelined_saved_s - saved0
        return (
            kernel + transfer - saved,
            (self.bytes_h2d - h2d) + (self.bytes_d2h - d2h),
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_h2d + self.bytes_d2h

    @property
    def gpu_time_s(self) -> float:
        """Simulated wall contribution: kernels + non-hidden transfers."""
        return self.kernel_time_s + self.transfer_time_s - self.pipelined_saved_s

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}


#: every counter's name, in declaration order (``fields()`` is slow to
#: call per operation)
_FIELD_NAMES: tuple[str, ...] = tuple(f.name for f in fields(GpuStats))
