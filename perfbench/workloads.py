"""The benchmark's workloads: how each is built, driven and checked.

Every workload is an open loop in simulated time: Poisson arrivals at a
fixed simulated rate, streamed through
:meth:`~repro.harness.MonitoredFederation.issue_stream`.  The simulator is
a discrete-event loop, so an arrival is always dispatched at its due time
and the generator's lateness is 0 by construction.  A run lasts until the
federation is quiescent for the workload's purpose: every decision
enforced and, on ``monitored-federation``, committed, audited and
receipt-verified, with every chain node on one head.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from benchmarks.common import bench_drams_config
from repro.crypto.signatures import Signature
from repro.drams.system import DramsConfig
from repro.scenariogen import (
    ArrivalSpec,
    FederationShape,
    PopulationSpec,
    ScenarioSpec,
    TreeSpec,
    build_stack_from_spec,
    preset_spec,
)

#: Simulated seconds past the expected end of the arrival stream after
#: which a run that has not reached quiescence is cut and its
#: unfinished decisions count as failed.
DRAIN_HORIZON_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ScenarioSpec
    #: Decisions issued per repetition.
    requests: int
    #: The DRAMS deployment; None runs the bare decision plane.
    drams: DramsConfig | None
    light_clients: bool = False


def _federation_scale(clouds: int, rate: float) -> ScenarioSpec:
    return dataclasses.replace(
        preset_spec("federation-scale"),
        federation=FederationShape(clouds=clouds),
        arrival=ArrivalSpec(rate=rate))


WORKLOADS = {
    workload.name: workload for workload in (
        # federation-scale, 2 clouds: 3 tenant nodes + the Analyser's = 4,
        # with a light client on every member tenant.
        Workload("monitored-federation", _federation_scale(clouds=2, rate=40.0),
                 requests=250, drams=bench_drams_config(), light_clients=True),
        # E18's streaming population (10^6 subjects), no DRAMS.  The tree
        # is wider than E18's 4 classes, and every read rule checks the
        # subject's clearance, so about two thirds of the decisions miss
        # the PDP decision cache and reach the XACML engine.  At 200 req/s
        # the two PDPs' simulated evaluation time fills about three
        # quarters of the run (``accesscontrol.pdp.busy_frac``).
        Workload("decision-plane", ScenarioSpec(
            name="decision-plane",
            roles=("analyst", "operator", "auditor"),
            tree=TreeSpec(classes=256, depth=2, width=16, clearance_fraction=1.0),
            federation=FederationShape(clouds=2),
            population=PopulationSpec(subjects=1_000_000, resources=100_000),
            arrival=ArrivalSpec(rate=200.0),
        ), requests=5_000, drams=None),
    )
}


def build(workload: Workload, seed: int):
    """Deploy and start the workload's stack (the timed set-up phase)."""
    if workload.drams is None:
        stack = build_stack_from_spec(workload.spec, seed=seed, with_drams=False)
    else:
        stack = build_stack_from_spec(
            workload.spec, seed=seed, drams_config=workload.drams,
            light_clients=workload.light_clients)
    stack.start()
    if stack.drams is not None:
        _warm_key_tables(stack.drams)
    return stack


def _warm_key_tables(drams) -> None:
    """Build the process-wide fixed-base tables every user process pays for.

    A verification against a throwaway signature computes ``g^s`` and
    ``y^e`` through the generator's and each deployed key's fixed-base
    table (built on first use) and returns False; nothing else changes.
    """
    keys = [node.signing_key.public for node in drams.nodes.values()]
    keys += [li.keystore.signing_key.public for li in drams.interfaces.values()]
    keys.append(drams.analyser.signing_key.public)
    probe = Signature(e=1, s=1)
    for key in keys:
        key.verify(b"", probe)


class Drive:
    """Streams the workload's requests and runs the simulator to quiescence."""

    def __init__(self, workload: Workload, stack) -> None:
        self.workload = workload
        self.stack = stack
        self.latencies: list[float] = []
        self.indeterminate = 0
        self._digest = hashlib.sha256()
        self.handle = None
        drams = stack.drams
        self._analyser = drams.analyser if drams else None
        self._interfaces = list(drams.interfaces.values()) if drams else []
        self._consumers = list(drams.light_clients.values()) if drams else []
        self._nodes = list(drams.nodes.values()) if drams else []

    def _on_outcome(self, outcome) -> None:
        decision = outcome.decision
        self.latencies.append(outcome.latency)
        if decision.decision.startswith("Indeterminate"):
            self.indeterminate += 1
        # The request id and arrival time pin which generated request this
        # was; the seeded generator pins its content.
        self._digest.update(repr((
            outcome.request.request_id, round(outcome.requested_at, 9),
            decision.decision, decision.status_code, decision.obligations,
        )).encode())

    def quiescent(self) -> bool:
        count = self.workload.requests
        handle = self.handle
        if handle.issued < count or handle.enforced < count:
            return False
        if self.stack.drams is None:
            return True
        if self._analyser.checked < count:
            return False
        for li in self._interfaces:
            if len(li.commit_latencies) < li.logs_submitted:
                return False
        for consumer in self._consumers:
            if consumer.outstanding:
                return False
        head = self._nodes[0].chain.head.hash
        return all(node.chain.head.hash == head for node in self._nodes)

    def run(self) -> bool:
        """Issue every request and step until quiescent; False if cut."""
        workload = self.workload
        sim = self.stack.sim
        self.handle = self.stack.issue_stream(
            workload.requests, on_outcome=self._on_outcome)
        deadline = workload.requests / workload.spec.arrival.rate + DRAIN_HORIZON_S
        while not self.quiescent():
            if sim.now > deadline or not sim.step():
                return False
        return True

    def digest(self) -> str:
        """Decisions, alerts and chain head folded into one hash."""
        digest = self._digest.copy()
        drams = self.stack.drams
        if drams is not None:
            alerts = sorted((a.alert_type.value, a.correlation_id)
                            for a in drams.alerts.all())
            head = drams.reference_chain().head
            digest.update(repr((alerts, head.hash, head.height)).encode())
        return digest.hexdigest()
