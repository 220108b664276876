"""LUBM federations with injected faults.

One member (:data:`DOWN_ENDPOINT`) is the designated victim; it may have
a fault-free standby replica.  Shared by the golden faulted-accounting
table (``test_public_surface``) and the engine-level resilience tests,
so both describe the same scenarios.
"""

from typing import Dict, Optional

from repro.datasets.lubm import LubmGenerator
from repro.endpoint import FaultProfile, LocalEndpoint
from repro.federation import Federation

#: the endpoint taken down / slowed / stalled in every scenario
DOWN_ENDPOINT = "university1"
REPLICA_ENDPOINT = "university1-replica"

#: added latency of the straggler endpoint (roughly 10x a healthy call)
STRAGGLER_SPIKE_SECONDS = 0.25
#: "stalled forever" relative to any reasonable query budget
STALL_SECONDS = 1e6


def build_faulted_federation(
    generator: LubmGenerator,
    fault_profiles: Optional[Dict[str, FaultProfile]] = None,
    with_replica: bool = False,
) -> Federation:
    """LUBM federation with per-endpoint fault profiles, optionally
    with a fault-free standby replica of :data:`DOWN_ENDPOINT`."""
    profiles = fault_profiles or {}
    endpoints = []
    for index in range(generator.universities):
        endpoint_id = f"university{index}"
        endpoints.append(LocalEndpoint.from_triples(
            endpoint_id,
            generator.generate_university(index),
            faults=profiles.get(endpoint_id),
        ))
    if with_replica:
        down_index = int(DOWN_ENDPOINT.removeprefix("university"))
        endpoints.append(LocalEndpoint.from_triples(
            REPLICA_ENDPOINT, generator.generate_university(down_index),
        ))
    federation = Federation(endpoints)
    if with_replica:
        federation.declare_fragment(
            DOWN_ENDPOINT, (DOWN_ENDPOINT, REPLICA_ENDPOINT), policy="failover"
        )
    return federation


def victim_federation(
    profile: Optional[FaultProfile] = None, with_replica: bool = False
) -> Federation:
    """Two universities, :data:`DOWN_ENDPOINT` carrying ``profile``."""
    return build_faulted_federation(
        LubmGenerator(universities=2),
        {DOWN_ENDPOINT: profile} if profile else None,
        with_replica,
    )
