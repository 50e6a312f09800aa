"""Fig. 3: accuracy vs duration of the flat algorithms (Jupiter).

Compares HCA, HCA2, HCA3 and JK in the paper's best-found configurations
(labels below), plotting the max measured clock offset right after the
synchronization and 10 s later against the synchronization duration.

Expected shapes (paper, 32×16 processes on Jupiter):

* JK's duration is an order of magnitude above the HCA family (O(p) vs
  O(log p) rounds, moderated by JK's 5× cheaper fit points).
* All algorithms are accurate right after synchronizing (≲ 4 µs).
* After 10 s, the HCA family sits within a few µs of each other (the
  paper's HCA3 < HCA2 < HCA ordering is a sub-µs effect at our scale; see
  EXPERIMENTS.md for the noise-floor discussion).
"""

from __future__ import annotations

from repro.cluster.machines import JUPITER
from repro.experiments.common import (
    Scale,
    SyncCampaignResult,
    format_campaign,
    resolve_scale,
    run_sync_accuracy_campaign,
)

#: The paper's Fig. 3 configurations.  The numeric fields (nfitpoints and
#: ping-pongs) are scaled by the campaign's Scale; labels keep the paper's
#: structure so the registry round-trips them.
def labels_for(scale: Scale) -> list[str]:
    n = scale.nfitpoints
    e = scale.nexchanges
    return [
        f"hca/{n}/skampi_offset/{e}",
        f"hca2/recompute_intercept/{n}/skampi_offset/{e}",
        f"hca3/recompute_intercept/{n}/skampi_offset/{e}",
        f"jk/{n}/skampi_offset/{max(5, e // 5)}",
    ]


def run(
    scale: str | Scale = "quick", seed: int = 0, jobs: int | None = 1
) -> SyncCampaignResult:
    sc = resolve_scale(scale)
    return run_sync_accuracy_campaign(
        spec=JUPITER,
        labels=labels_for(sc),
        scale=sc,
        wait_times=(0.0, 10.0),
        seed=seed,
        jobs=jobs,
    )


def format_result(result: SyncCampaignResult) -> str:
    return format_campaign(
        result,
        f"Fig. 3: max clock offset vs sync duration "
        f"(Jupiter, {result.nprocs} processes)",
        "algorithm",
    )
