"""Machine cost models: the paper's two demonstration platforms.

The paper runs parallel LOLCODE on (i) the $99 Parallella board with the
16-core Adapteva Epiphany-III coprocessor and (ii) ARL's 101,312-core Cray
XC40.  We own neither, so — per the substitution rule — benchmarks execute
on the Python runtime and replay the recorded op trace against these cost
models to obtain *modeled* execution times.  Parameters come from public
datasheets/papers:

* Epiphany-III (E16G301): 16 RISC cores at 600 MHz on a 4x4 eMesh;
  ~1.5 ns/hop write network, ~8 bytes/cycle on-chip write bandwidth,
  remote *reads* make a round trip and are roughly an order of magnitude
  slower than writes (the reason OpenSHMEM-on-Epiphany favours put over
  get); barrier cost grows with mesh diameter.
* Cray XC40 (Aries interconnect): ~1.3 us one-sided latency, ~10 GB/s
  per-PE bandwidth, hardware-accelerated barriers ~5 us at scale; Xeon
  cores at 2.3 GHz.
* PYTHON_HOST: a calibration model whose "flop" cost matches this
  repository's interpreter on commodity hardware, for sanity-checking the
  trace-replay machinery against wall-clock measurements.

The absolute numbers are approximations; what the reproduction relies on
is the *shape*: local << remote access (Figure 1's PGAS asymmetry),
Epiphany latencies in nanoseconds vs Cray in microseconds, and barrier
costs that grow with PE count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Optional

from .mesh import Mesh2D, square_mesh_for


@dataclass(frozen=True, slots=True)
class MachineModel:
    """An analytic machine model for trace replay."""

    name: str
    max_pes: int
    #: effective scalar floating-point rate of one PE, in flop/s (for the
    #: PYTHON_HOST model this is "interpreter ops per second")
    flops_per_pe: float
    #: one-way injection latency for a small put, seconds
    put_latency: float
    #: additional round-trip factor for gets (Epiphany reads are slow)
    get_multiplier: float
    #: per-byte transfer time, seconds (1 / bandwidth)
    byte_time: float
    #: per-hop wire latency, seconds (mesh machines; 0 => flat network)
    hop_latency: float = 0.0
    #: barrier base cost, seconds
    barrier_base: float = 0.0
    #: per-log2(n_pes) barrier scaling term, seconds
    barrier_per_stage: float = 0.0
    #: lock acquire/release overhead, seconds (uncontended)
    lock_overhead: float = 0.0
    #: mesh topology (None => all PEs equidistant)
    mesh: Optional[Mesh2D] = None
    notes: str = ""

    def hops(self, src: int, dst: int) -> int:
        if self.mesh is None or src < 0 or dst < 0:
            return 1
        n = self.mesh.n_nodes
        return self.mesh.hops(src % n, dst % n)

    def put_time(self, src: int, dst: int, nbytes: int) -> float:
        return (
            self.put_latency
            + self.hops(src, dst) * self.hop_latency
            + nbytes * self.byte_time
        )

    def get_time(self, src: int, dst: int, nbytes: int) -> float:
        # Reads traverse the network twice (request + reply).
        return self.get_multiplier * (
            self.put_latency
            + 2 * self.hops(src, dst) * self.hop_latency
            + nbytes * self.byte_time
        )

    def barrier_time(self, n_pes: int) -> float:
        stages = max(1, ceil(log2(max(2, n_pes))))
        return self.barrier_base + stages * self.barrier_per_stage

    def compute_time(self, flops: int) -> float:
        return flops / self.flops_per_pe


def epiphany_iii(n_pes: int = 16) -> MachineModel:
    """The Parallella's 16-core coprocessor (4x4 eMesh)."""
    mesh = square_mesh_for(min(n_pes, 16)) if n_pes > 1 else Mesh2D(1, 1)
    return MachineModel(
        name="Epiphany-III (Parallella, $99)",
        max_pes=16,
        flops_per_pe=600e6,  # 600 MHz, ~1 flop/cycle scalar
        put_latency=0.1e-6,  # SHMEM software overhead dominates
        get_multiplier=4.0,  # remote reads are far slower than writes
        byte_time=1.0 / 2.4e9,  # ~2.4 GB/s effective on-chip put bandwidth
        hop_latency=1.5e-9,
        barrier_base=0.4e-6,
        barrier_per_stage=0.3e-6,
        lock_overhead=1.0e-6,
        mesh=mesh,
        notes="E16G301 datasheet + ARL OpenSHMEM-for-Epiphany paper",
    )


def cray_xc40(n_pes: int = 101_312) -> MachineModel:
    """ARL's production Cray XC40 ('a portion of' which ran LOLCODE)."""
    return MachineModel(
        name="Cray XC40 (101,312 cores, $30M)",
        max_pes=101_312,
        flops_per_pe=2.3e9,  # scalar rate of one Xeon core
        put_latency=1.3e-6,  # Aries one-sided latency
        get_multiplier=1.6,
        byte_time=1.0 / 10e9,  # ~10 GB/s per PE
        hop_latency=0.0,  # dragonfly modeled as flat
        barrier_base=4.0e-6,
        barrier_per_stage=0.6e-6,
        lock_overhead=3.0e-6,
        mesh=None,
        notes="Aries interconnect public figures",
    )


def python_host(ops_per_sec: float = 2.0e6) -> MachineModel:
    """Calibration model matching this repo's tree-walking interpreter."""
    return MachineModel(
        name="Python host (this reproduction)",
        max_pes=1024,
        flops_per_pe=ops_per_sec,
        put_latency=2e-6,
        get_multiplier=1.0,
        byte_time=1.0 / 1e9,
        barrier_base=20e-6,
        barrier_per_stage=10e-6,
        lock_overhead=5e-6,
        notes=(
            "thread-executor barrier/lock costs on commodity hardware; the "
            "barrier figures were taken with threading.Barrier, before the "
            "executor moved to HandoffBarrier"
        ),
    )


def ideal_crossbar(base: MachineModel) -> MachineModel:
    """Ablation variant: same injection costs, zero hop distance (as if
    every PE pair had a private wire)."""
    return MachineModel(
        name=f"{base.name} [ideal crossbar]",
        max_pes=base.max_pes,
        flops_per_pe=base.flops_per_pe,
        put_latency=base.put_latency,
        get_multiplier=base.get_multiplier,
        byte_time=base.byte_time,
        hop_latency=0.0,
        barrier_base=base.barrier_base,
        barrier_per_stage=base.barrier_per_stage,
        lock_overhead=base.lock_overhead,
        mesh=None,
        notes="ablation: XY mesh routing removed",
    )


def registry() -> dict[str, MachineModel]:
    return {
        "epiphany": epiphany_iii(),
        "cray-xc40": cray_xc40(),
        "python-host": python_host(),
    }
