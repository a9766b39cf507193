"""The autoscaler policy family: how many replicas a pool should hold.

Four policies over the same sizing rule — replicas = arrival rate over
(per-replica capacity times the target utilization), floored at the
scenario's minimum:

* ``reactive`` sizes to demand *now*; it pays the spin-up lag on every
  ramp and surge (capacity lands one reconfigure-plus-restore late).
* ``predictive`` sizes to the worst of now and one lead-time ahead on
  the known curve — the lead covers spin-up, so diurnal ramps (and any
  surge longer than the lead) arrive pre-provisioned.
* ``scheduled`` follows a per-hour plan precomputed from the *diurnal*
  curve only: the operationally simple policy that handles every
  daily ramp and is blind to surprise surges by construction.
* ``static`` pins the pool at the full curve's peak (surges included)
  for the whole run — the capacity-split baseline the bench gate
  compares against: it never sheds, and it burns chips all night.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.fleet.config import AUTOSCALERS
from repro.fleet.serve.pool import ReplicaPool
from repro.units import HOUR

#: Samples per hour when precomputing a scheduled plan's hourly peaks.
_PLAN_SAMPLES_PER_HOUR = 12


def _replicas_for(qps: float, pool: ReplicaPool, target_utilization: float,
                  min_replicas: int) -> int:
    capacity = pool.replica_qps * target_utilization
    return max(min_replicas, math.ceil(qps / capacity))


def _scheduled_qps(pool: ReplicaPool, now: float) -> float:
    """The current hour's diurnal maximum (surge-blind, by design)."""
    hour_start = math.floor(now / HOUR) * HOUR
    step = HOUR / _PLAN_SAMPLES_PER_HOUR
    return max(pool.traffic.diurnal_qps(hour_start + k * step)
               for k in range(_PLAN_SAMPLES_PER_HOUR + 1))


def desired_replicas(policy: str, pool: ReplicaPool, now: float, *,
                     target_utilization: float, min_replicas: int,
                     lead_seconds: float) -> int:
    """The policy's replica target for `pool` at time `now`."""
    traffic = pool.traffic
    if policy == "reactive":
        qps = traffic.qps_at(now)
    elif policy == "predictive":
        qps = max(traffic.qps_at(now),
                  traffic.qps_at(now + lead_seconds))
    elif policy == "scheduled":
        qps = _scheduled_qps(pool, now)
    elif policy == "static":
        qps = traffic.peak_qps_with_surge
    else:
        raise ConfigurationError(
            f"unknown autoscaler {policy!r}; have {list(AUTOSCALERS)}")
    return _replicas_for(qps, pool, target_utilization, min_replicas)
