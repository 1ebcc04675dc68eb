"""One measured repetition of a workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition begins with process-wide caches cold, pays the one-time tables
in its own set-up, and owns its ``ru_maxrss`` high-water mark.  It prints
one JSON object of raw facts; ``run.py`` checks and aggregates them.
``--seed`` is the seed this repetition builds from, as ``run.py`` derives
it from the run's seed.

    python3 perfbench/rep.py --workload NAME --seed N [--trace]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.blockchain.pow import expected_hashes  # noqa: E402
from repro.common.ids import reset_id_counter  # noqa: E402

SPANS_DIR = ROOT / "perfbench" / "results"


def _traffic(stack) -> dict:
    network = stack.federation.network.stats
    return {"messages": network.sent, "bytes": network.bytes_sent,
            "events": stack.sim.executed_events, "sim_s": stack.sim.now}


def _program_counters(stack, drive: workloads.Drive, before: dict) -> dict:
    """Counts read off the program's own state, over the drive phase."""
    after = _traffic(stack)
    counters = {name: after[name] - before[name] for name in after}
    services = stack.pdp_services
    caches = [s.decision_cache for s in services if s.decision_cache is not None]
    counters.update({
        "cache_hits": sum(c.hits for c in caches),
        "cache_lookups": sum(c.hits + c.misses for c in caches),
        "pdp_busy_frac": (sum(s.busy_accumulated for s in services)
                          / (len(services) * counters["sim_s"])),
        "drain_s": stack.sim.now - drive.handle.last_at,
    })
    drams = stack.drams
    if drams is None:
        return counters
    nodes = list(drams.nodes.values())
    consumers = list(drams.light_clients.values())
    lags = drams.commit_latencies()
    # The missing-log timeout in seconds at the deployment's mean block
    # interval: a log committed later than this is one the Analyser may
    # already have reported missing.
    block_s = (expected_hashes(drams.config.chain.difficulty_bits)
               / sum(node.hashrate for node in nodes if node.mining_enabled))
    late_s = drams.config.timeout_blocks * block_s
    counters.update({
        "logs": sum(li.logs_submitted for li in drams.interfaces.values()),
        "reorgs": sum(node.chain.reorgs for node in nodes),
        "blocks_mined": sum(node.blocks_mined for node in nodes),
        "main_chain_blocks": drams.reference_chain().height,
        "commit_lags_s": lags,
        "logs_committed_late": sum(lag > late_s for lag in lags),
        "receipt_fetches": sum(c.receipts_requested for c in consumers),
        "receipts_accepted": sum(c.receipts_accepted for c in consumers),
    })
    return counters


def _checks(stack, drive: workloads.Drive, finished: bool) -> dict:
    """Failure counts by kind; every one is 0 on a correct run."""
    issued = drive.workload.requests
    failures = {
        "not_quiescent": int(not finished),
        "not_enforced": issued - drive.handle.enforced,
        "pep_timeouts": sum(pep.timeouts for pep in stack.peps.values()),
        "indeterminate": drive.indeterminate,
    }
    drams = stack.drams
    if drams is not None:
        heads = {node.chain.head.hash for node in drams.nodes.values()}
        consumers = drams.light_clients.values()
        failures.update({
            "unaudited": issued - drams.analyser.checked,
            "uncommitted_logs": sum(li.logs_submitted - len(li.commit_latencies)
                                    for li in drams.interfaces.values()),
            "alerts": len(drams.alerts.all()),
            "head_disagreement": len(heads) - 1,
            "receipts_rejected": sum(c.receipts_rejected for c in consumers),
            "receipts_outstanding": sum(c.outstanding for c in consumers),
        })
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    recorder = layers.SpanRecorder()
    if args.trace:
        layers.install(recorder)

    setup_start = perf_counter()
    reset_id_counter()
    stack = workloads.build(workload, args.seed)
    setup_s = perf_counter() - setup_start

    drive = workloads.Drive(workload, stack)
    before = _traffic(stack)
    recorder.active = args.trace
    drive_start = perf_counter()
    finished = drive.run()
    drive_s = perf_counter() - drive_start
    recorder.active = False

    facts = {
        "setup_s": setup_s,
        "drive_s": drive_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "issued": workload.requests,
        "monitored": stack.drams is not None,
        "latencies_s": drive.latencies,
        "digest": drive.digest(),
        "failures": _checks(stack, drive, finished),
        "counters": _program_counters(stack, drive, before),
    }
    if args.trace:
        facts["trace"] = {
            "self_s": recorder.self_time,
            "calls": recorder.calls,
            "verify_distinct": len(recorder.verify_triples),
        }
        recorder.write(SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz",
                       origin=drive_start)
    print(json.dumps(facts))


if __name__ == "__main__":
    main()
