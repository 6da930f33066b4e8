"""The models each in-process workload checks, built through repro's API."""

from __future__ import annotations

from typing import Dict

from common import ROOT

#: Cluster size of the numerics-mix workload (20 states).
CLUSTER_CONSTANTS = {"F": 4, "B": 3}


def build_models(workload: str) -> Dict[str, object]:
    """Import repro and build the named workload's models."""
    from repro.lang.compiler import load_model
    from repro.models import build_phone_model, build_tmr
    from repro.models.tmr import TMR11_REWARDS

    if workload == "tmr-until":
        # Table 5.5 uses the calibrated 11-module rewards.
        return {"tmr11": build_tmr(11, rewards=TMR11_REWARDS), "tmr3": build_tmr(3)}
    if workload == "numerics-mix":
        cluster = load_model(
            str(ROOT / "examples" / "models" / "cluster.mrm"),
            constants=CLUSTER_CONSTANTS,
        )
        return {
            "phone": build_phone_model(),
            "tmr3": build_tmr(3),
            "cluster": cluster.mrm,
        }
    raise ValueError(f"no in-process models for workload {workload!r}")
