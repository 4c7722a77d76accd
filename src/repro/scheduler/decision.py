"""Decision model for CPU / GPU / heterogeneous cSTF execution.

Strategy space (per outer iteration, tensor resident on both hosts):

- ``cpu``  — the whole iteration on the CPU (SPLATT-style: CSF + ADMM).
- ``gpu``  — fully GPU-resident (the paper's framework: BLCO + cuADMM);
  no per-iteration transfers, the paper's headline configuration.
- ``het:mttkrp=cpu`` — MTTKRP on the CPU, the dense phases (GRAM, UPDATE,
  NORMALIZE) on the GPU. Pays PCIe transfers of the MTTKRP output M and
  the updated factor H every mode. Wins when the GPU MTTKRP is poisoned
  (e.g. atomic contention on a very short mode — VAST) while the update
  still wants the GPU's bandwidth.
- ``het:update=cpu`` — the mirror split: MTTKRP on the GPU, update phases
  on the CPU. Wins for tensors whose factor matrices are tiny (update is
  launch-bound on the GPU) but whose nonzero stream is large.

The predictor reuses the exact cost-model code paths the simulator charges
(`estimate_phases` runs one analytic iteration per device), so the decision
is consistent with what the simulation would measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CstfConfig
from repro.core.cstf import cstf
from repro.core.trace import PHASE_GRAM, PHASE_MTTKRP, PHASE_NORMALIZE, PHASE_UPDATE, PHASES
from repro.machine.analytic import TensorStats
from repro.machine.counters import WORD_BYTES
from repro.machine.spec import get_device
from repro.utils.validation import check_rank, require

__all__ = [
    "TransferModel",
    "PhaseEstimate",
    "ExecutionPlan",
    "estimate_phases",
    "plan_execution",
]


@dataclass(frozen=True)
class TransferModel:
    """Host↔device interconnect (PCIe 4.0 ×16 by default).

    The paper's Section 1 motivates full GPU residency precisely by the
    cost of "the slower PCIe or NVLink interconnect"; this model prices it.
    """

    bandwidth: float = 25e9
    """Sustained bytes/second."""

    latency: float = 10e-6
    """Per-transfer fixed cost (driver + DMA setup)."""

    def seconds(self, words: float) -> float:
        require(words >= 0, "words must be non-negative")
        if words == 0:
            return 0.0
        return self.latency + words * WORD_BYTES / self.bandwidth


@dataclass(frozen=True)
class PhaseEstimate:
    """Predicted per-iteration seconds per phase on one device."""

    device: str
    update: str
    mttkrp_format: str
    seconds: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def estimate_phases(
    stats: TensorStats,
    rank: int,
    device,
    update: str | None = None,
    mttkrp_format: str | None = None,
    inner_iters: int = 10,
) -> PhaseEstimate:
    """Predict per-phase iteration time by running one analytic iteration.

    Defaults follow the paper's per-device configurations: GPUs use BLCO +
    cuADMM; the CPU uses CSF + generic ADMM (the SPLATT baseline).
    """
    spec = get_device(device)
    if update is None:
        update = "cuadmm" if spec.kind == "gpu" else "admm"
    if mttkrp_format is None:
        mttkrp_format = "blco" if spec.kind == "gpu" else "csf"
    result = cstf(
        stats,
        CstfConfig(
            rank=check_rank(rank),
            max_iters=1,
            update=update,
            device=spec,
            mttkrp_format=mttkrp_format,
            compute_fit=False,
            update_params={"inner_iters": inner_iters} if update in ("admm", "cuadmm") else {},
        ),
    )
    return PhaseEstimate(
        device=spec.name,
        update=update,
        mttkrp_format=mttkrp_format,
        seconds={p: result.timeline.seconds(p) for p in PHASES},
    )


@dataclass(frozen=True)
class ExecutionPlan:
    """The chosen strategy plus every evaluated alternative."""

    strategy: str
    """``"cpu"``, ``"gpu"``, ``"het:mttkrp=cpu"``, or ``"het:update=cpu"``."""

    placement: dict[str, str]
    """Phase name → device name."""

    predicted_seconds: float
    """Per-iteration prediction including transfers."""

    transfer_seconds: float
    alternatives: dict[str, float] = field(default_factory=dict)
    """Strategy → predicted seconds for everything considered."""

    host_shards: int = 1
    """Engine worker shards assumed for the CPU MTTKRP estimates (see
    :mod:`repro.engine`); 1 = serial execution."""

    @property
    def is_heterogeneous(self) -> bool:
        return self.strategy.startswith("het:")

    def advantage(self) -> float:
        """Speedup of the chosen strategy over the best pure strategy."""
        pure = min(self.alternatives["cpu"], self.alternatives["gpu"])
        return pure / self.predicted_seconds


def _per_iteration_transfer_words(stats: TensorStats, rank: int) -> float:
    """Heterogeneous splits ship M to the update device and H back, every
    mode: 2 · ΣIₙ · R words per outer iteration."""
    return 2.0 * sum(stats.shape) * rank


def plan_execution(
    stats: TensorStats,
    rank: int,
    gpu="a100",
    cpu="cpu",
    transfer: TransferModel | None = None,
    inner_iters: int = 10,
    host_shards: int = 1,
    shard_efficiency: float = 0.85,
) -> ExecutionPlan:
    """Pick the fastest of CPU-only, GPU-only, and the two per-phase splits.

    ``host_shards`` exposes the engine's sharded CPU MTTKRP path (see
    :mod:`repro.engine`) to the decision: the CPU MTTKRP estimate is
    divided by ``1 + (host_shards - 1) · shard_efficiency`` — linear
    scaling discounted for reduction and imbalance overheads — which can
    flip a ``gpu`` decision to ``het:mttkrp=cpu`` on contention-poisoned
    modes. The default (1 shard) reproduces the serial decision exactly.
    """
    require(host_shards >= 1, "host_shards must be >= 1")
    require(0.0 < shard_efficiency <= 1.0, "shard_efficiency must be in (0, 1]")
    transfer = transfer or TransferModel()
    gpu_est = estimate_phases(stats, rank, gpu, inner_iters=inner_iters)
    cpu_est = estimate_phases(stats, rank, cpu, inner_iters=inner_iters)

    shard_speedup = 1.0 + (host_shards - 1) * shard_efficiency
    cpu_mttkrp = cpu_est.seconds[PHASE_MTTKRP] / shard_speedup
    dense_phases = (PHASE_GRAM, PHASE_UPDATE, PHASE_NORMALIZE)
    gpu_dense = sum(gpu_est.seconds[p] for p in dense_phases)
    cpu_dense = sum(cpu_est.seconds[p] for p in dense_phases)
    cpu_total = cpu_est.total - cpu_est.seconds[PHASE_MTTKRP] + cpu_mttkrp
    xfer = (2 * stats.ndim) * transfer.latency + transfer.seconds(
        _per_iteration_transfer_words(stats, rank)
    )

    candidates: dict[str, tuple[float, float, dict[str, str]]] = {
        "cpu": (cpu_total, 0.0, {p: cpu_est.device for p in PHASES}),
        "gpu": (gpu_est.total, 0.0, {p: gpu_est.device for p in PHASES}),
        "het:mttkrp=cpu": (
            cpu_mttkrp + gpu_dense + xfer,
            xfer,
            {
                PHASE_MTTKRP: cpu_est.device,
                **{p: gpu_est.device for p in dense_phases},
            },
        ),
        "het:update=cpu": (
            gpu_est.seconds[PHASE_MTTKRP] + cpu_dense + xfer,
            xfer,
            {
                PHASE_MTTKRP: gpu_est.device,
                **{p: cpu_est.device for p in dense_phases},
            },
        ),
    }

    best = min(candidates, key=lambda k: candidates[k][0])
    seconds, xfer_s, placement = candidates[best]
    return ExecutionPlan(
        strategy=best,
        placement=placement,
        predicted_seconds=seconds,
        transfer_seconds=xfer_s,
        alternatives={k: v[0] for k, v in candidates.items()},
        host_shards=host_shards,
    )
