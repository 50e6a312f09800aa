"""repro.service: clock-as-a-service layer over synced models.

The subsystem turns the simulator's synchronized clocks into a
query-serving surface: compiled model epochs (`epoch`), the cached +
batched `ClockService` (`core`), resync scheduling policies (`slo`),
deterministic client workloads (`workload`), and the end-to-end run
driver (`driver`).  The ``service_slo`` experiment target sweeps resync
policies against an error SLO on top of :func:`run_service`.
"""

from repro.service.core import (
    ClockService,
    ModelProvider,
    ServiceResponse,
    ServiceStats,
)
from repro.service.driver import (
    SERVICE_TIME,
    ServiceConfig,
    ServicePolicyResult,
    SimulatedCluster,
    run_service,
)
from repro.service.epoch import ModelEpoch, compile_epoch
from repro.service.slo import (
    ErrorBoundResyncPolicy,
    PeriodicResyncPolicy,
    ResyncPolicy,
)
from repro.service.workload import (
    OP_COMPARE,
    OP_NOW,
    OP_TRANSLATE,
    QueryStream,
    WorkloadSpec,
    generate,
)

__all__ = [
    "OP_COMPARE",
    "OP_NOW",
    "OP_TRANSLATE",
    "SERVICE_TIME",
    "ClockService",
    "ErrorBoundResyncPolicy",
    "ModelEpoch",
    "ModelProvider",
    "PeriodicResyncPolicy",
    "QueryStream",
    "ResyncPolicy",
    "ServiceConfig",
    "ServicePolicyResult",
    "ServiceResponse",
    "ServiceStats",
    "SimulatedCluster",
    "WorkloadSpec",
    "compile_epoch",
    "generate",
    "run_service",
]
