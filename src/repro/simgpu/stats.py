"""Counters and simulated-time accounting for the software GPU.

Everything the benchmarks report about the GPU comes from here: per-lane
operation counts, shuffle counts, barrier counts, host<->device transfer
bytes, and the simulated times derived from them by the cost model.  The
figures on DRAM–GPU transfer cost (Fig. 10c/d) read these counters
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


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
        for f in fields(self):
            setattr(self, f.name, type(getattr(self, f.name))())

    def snapshot(self) -> "GpuStats":
        """An independent copy of the current counters."""
        return GpuStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def diff(self, earlier: "GpuStats") -> "GpuStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return GpuStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "GpuStats") -> None:
        """Add ``other``'s counters into this block."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def total_bytes(self) -> int:
        return self.bytes_h2d + self.bytes_d2h

    @property
    def gpu_time_s(self) -> float:
        """Simulated wall contribution: kernels + non-hidden transfers."""
        return self.kernel_time_s + self.transfer_time_s - self.pipelined_saved_s

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
