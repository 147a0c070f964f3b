"""The simulated TensorCore: cost model + profiler + HBM, per logical core.

A core receives charges, it does not decide them.  What an op costs is
priced by the TPU backend's table (:data:`repro.backend.tpu_backend.PRICES`)
from the op's buffers; the core turns each (category, flops, bytes,
batch) charge into modeled seconds and books them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost_model import TPUCostModel, TPU_V3
from .profiler import Profiler

__all__ = ["TensorCore"]


@dataclass
class TensorCore:
    """One logical TPU v3 core of the simulated machine.

    The TPUBackend bound to this core prices every op it runs and
    forwards each (category, flops, bytes, batch) charge here;
    :meth:`charge_op` converts it to modeled seconds via the cost model
    and books them in the profiler.  The mesh runtime charges
    communication time the same way.
    """

    core_id: int
    coords: tuple[int, int] = (0, 0)
    cost_model: TPUCostModel = field(default_factory=lambda: TPU_V3)
    profiler: Profiler = field(default_factory=Profiler)
    #: When set to a list, every op's raw (category, flops, bytes, batch)
    #: descriptor is appended — the performance harness uses this to
    #: scale a proxy-sized op stream up to paper-sized workloads.
    op_log: list | None = None

    def charge_op(
        self,
        category: str,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        batch: float | None = None,
        name: str = "",
    ) -> None:
        """Book one op's modeled time (possibly split across categories)."""
        if self.op_log is not None:
            self.op_log.append((category, flops, bytes_moved, batch))
        for cat, seconds in self.cost_model.op_times(
            category, flops, bytes_moved, batch
        ).items():
            self.profiler.charge(
                cat,
                seconds,
                flops=flops if cat == category else 0.0,
                bytes_moved=bytes_moved if cat == category else 0.0,
                name=name or category,
            )

    def charge_communication(
        self, seconds: float, bytes_moved: float = 0.0, name: str = "collective_permute"
    ) -> None:
        """Book inter-core communication time (called by the mesh runtime)."""
        self.profiler.charge(
            "communication", seconds, bytes_moved=bytes_moved, name=name
        )

    # -- convenience ---------------------------------------------------------

    @property
    def step_time(self) -> float:
        """Total modeled seconds booked so far."""
        return self.profiler.total_seconds

    def mark_step(self):
        return self.profiler.mark_step()

    def reset(self) -> None:
        self.profiler.reset()

    def hbm_utilization(self, n_sites: int, itemsize: int) -> float:
        """Fraction of this core's HBM a lattice of n_sites occupies."""
        return self.cost_model.hbm.utilization(n_sites, itemsize)
