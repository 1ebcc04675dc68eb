"""Repository benchmark: monitored decisions per wall-second, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh process (``rep.py``), one after another.
A run's seed derives one repetition seed per slot of the workload's plan
(``SLOTS``); the plan runs every slot once and then the first slot again,
whose digest must match.  While the next repetition still fits in
``--seconds``, further repetitions cycle through the slots and must match
theirs too.  Latency percentiles pool the decisions of every slot;
wall-clock figures are medians over all repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced and traced repetitions of the first slot in pairs, alternating
which runs first, and prints the per-layer metrics: self time and call
counts of each layer, timed from outside by wrappers installed around the
layers' entry points (``layers.py``), plus counts read off the program's
state.  The spans go to
``perfbench/results/spans-<workload>-seed<seed>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if every output check passed.  See ``perfbench/README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The program's modules are imported only once main() has found them.
sys.path.insert(1, str(ROOT / "src"))
#: Distinct repetition seeds per run, by workload.
SLOTS = {"monitored-federation": 4, "decision-plane": 4}
#: No repetition starts after this much wall time, so the command ends
#: well inside its 180 s limit.
LAST_START_S = 110.0
REP_TIMEOUT_S = 150.0
#: Layers that a bare decision plane must never call.
MONITORING_LAYERS = ("crypto.", "blockchain.", "drams.", "lightclient.")


class RepFailed(RuntimeError):
    """A repetition process crashed or printed no result."""


def rep_seed(seed: int, slot: int) -> int:
    return seed * 1000 + slot


def rep(workload: str, seed: int, traced: bool = False) -> dict:
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    started = perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0 or not done.stdout.strip():
        raise RepFailed(f"{' '.join(command[1:])} exited {done.returncode}:\n"
                        f"{done.stderr[-4000:]}")
    facts = json.loads(done.stdout.strip().splitlines()[-1])
    facts.update(seed=seed, traced=traced, wall_s=perf_counter() - started)
    return facts


def source_identity() -> tuple[str, str]:
    """The git commit if this is a git checkout, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return commit, digest.hexdigest()[:16]


def run_plan(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run repetitions until the plan is done and no further one fits."""
    if trace:
        # Pairs of the first slot: UT, TU, UT, ...
        def traced_at(index: int) -> bool:
            return (index % 2 == 1) == ((index // 2) % 2 == 0)
        minimum, step = 2, 2
        seeds = [rep_seed(seed, 0)]
    else:
        def traced_at(index: int) -> bool:
            return False
        minimum, step = SLOTS[workload] + 1, 1
        seeds = [rep_seed(seed, slot) for slot in range(SLOTS[workload])]
    started = perf_counter()
    reps: list[dict] = []
    while True:
        if len(reps) >= minimum and len(reps) % step == 0:
            elapsed = perf_counter() - started
            longest = max(f["wall_s"] for f in reps)
            if elapsed + step * longest > min(seconds, LAST_START_S):
                return reps
        index = len(reps)
        reps.append(rep(workload, seeds[index % len(seeds)], traced_at(index)))


def per_decision(value: float, facts: dict) -> float:
    return value / facts["issued"]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(reps: list[dict]) -> dict:
    """``name -> (value, unit, sample description)``."""
    from repro.metrics.recorder import percentile
    one_per_seed = {f["seed"]: f for f in reps}
    latencies = sorted(s for f in one_per_seed.values() for s in f["latencies_s"])
    pooled = (f"{len(latencies)} decisions over {len(one_per_seed)} seeds, "
              f"{len(latencies) - int(0.99 * len(latencies))} beyond p99")
    return {
        "decisions_per_s": (statistics.median(f["issued"] / f["drive_s"] for f in reps),
                            "1/s", f"{len(reps)} repetitions of {reps[0]['issued']} decisions"),
        "setup_s": (statistics.median(f["setup_s"] for f in reps), "s",
                    f"{len(reps)} set-ups"),
        "peak_rss_mb": (statistics.median(f["peak_rss_mb"] for f in reps), "MB",
                        f"{len(reps)} processes"),
        "enforce_latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms", pooled),
        "enforce_latency_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms", pooled),
    }


def per_layer(reps: list[dict]) -> dict:
    """``name -> (value, unit)`` from the traced/untraced pairs."""
    from repro.metrics.recorder import percentile
    traced = [f for f in reps if f["traced"]]
    untraced = [f for f in reps if not f["traced"]]

    def median(value) -> float:
        return statistics.median(value(f) for f in traced)

    first = traced[0]
    counters = first["counters"]
    calls = first["trace"]["calls"]
    lags = sorted(counters.get("commit_lags_s", []))

    def lag(q: float) -> float:
        # The bare decision plane has no chain, so nothing commits.
        return percentile(lags, q) if lags else 0.0

    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.self_us_per_decision"] = (median(
            lambda f, n=name: per_decision(f["trace"]["self_s"][n] * 1e6, f)), "us")
    metrics.update({
        "crypto.verify.calls_per_decision": (
            per_decision(calls["crypto.verify"], first), "count"),
        "crypto.verify.useful_ratio": (
            ratio(first["trace"]["verify_distinct"], calls["crypto.verify"]), "ratio"),
        "simnet.events_per_decision": (per_decision(counters["events"], first), "count"),
        "simnet.messages_per_decision": (per_decision(counters["messages"], first), "count"),
        "simnet.bytes_per_decision": (per_decision(counters["bytes"], first), "B"),
        "simnet.size_bytes.calls_per_decision": (
            per_decision(calls["simnet.size_bytes"], first), "count"),
        "blockchain.reorgs": (counters.get("reorgs", 0), "count"),
        "blockchain.useful_block_ratio": (
            ratio(counters.get("main_chain_blocks", 0), counters.get("blocks_mined", 0)),
            "ratio"),
        "blockchain.commit_lag_p50_s": (lag(0.50), "s"),
        "blockchain.commit_lag_p99_s": (lag(0.99), "s"),
        "drams.contract.calls_per_decision": (
            per_decision(calls["drams.contract"], first), "count"),
        "drams.logs_per_decision": (per_decision(counters.get("logs", 0), first), "count"),
        "drams.logs_committed_late": (counters.get("logs_committed_late", 0), "count"),
        "accesscontrol.cache.hit_ratio": (
            ratio(counters["cache_hits"], counters["cache_lookups"]), "ratio"),
        "accesscontrol.pdp.busy_frac": (counters["pdp_busy_frac"], "ratio"),
        "xacml.evaluate.calls_per_decision": (
            per_decision(calls["xacml.evaluate"], first), "count"),
        "lightclient.fetches_per_receipt": (
            ratio(counters.get("receipt_fetches", 0), counters.get("receipts_accepted", 0)),
            "count"),
        "run.drain_s": (counters["drain_s"], "s"),
        "trace.unattributed_share": (median(
            lambda f: 1.0 - sum(f["trace"]["self_s"].values()) / f["drive_s"]), "ratio"),
        "trace.overhead_ratio": (
            statistics.median(f["drive_s"] for f in traced)
            / statistics.median(f["drive_s"] for f in untraced) - 1.0, "ratio"),
    })
    return metrics


def check(reps: list[dict]) -> tuple[int, dict, bool]:
    """Failed decisions, failure counts by kind, and digest agreement."""
    digests: dict[int, str] = {}
    for f in reps:
        digests.setdefault(f["seed"], f["digest"])
    identical = all(f["digest"] == digests[f["seed"]] for f in reps)
    # In a repetition whose digest differs from its seed's first one,
    # every decision is suspect.
    failed = sum(f["issued"] if f["digest"] != digests[f["seed"]]
                 else min(f["issued"], sum(f["failures"].values())) for f in reps)
    kinds = {kind: sum(f["failures"][kind] for f in reps) for kind in reps[0]["failures"]}
    if not reps[0]["monitored"]:
        kinds["monitoring_calls_on_bare_plane"] = stray = sum(
            count for f in reps if f["traced"]
            for name, count in f["trace"]["calls"].items()
            if name.startswith(MONITORING_LAYERS))
        failed += min(stray, sum(f["issued"] for f in reps))
    return failed, kinds, identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    commit, source = source_identity()
    try:
        reps = run_plan(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: repetition failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(f["issued"] for f in reps)
    failed, kinds, identical = check(reps)
    traced = sum(f["traced"] for f in reps)
    print(f"workload={args.workload} seed={args.seed} commit={commit} source={source} "
          f"trace={args.trace} repetitions={len(reps) - traced} untraced + {traced} traced "
          f"on seeds {sorted({f['seed'] for f in reps})}")
    print("arrivals: open-loop Poisson in simulated time; generator lateness 0 s by "
          "construction (discrete-event loop, every arrival dispatched on time)")
    metrics = {}
    if args.trace:
        for name, (value, unit) in per_layer(reps).items():
            print(f"  {name:48s} {value:14.4f} {unit}")
            metrics[name] = (value, unit)
    else:
        for name, (value, unit, samples) in end_to_end(reps).items():
            print(f"  {name:24s} {value:14.4f} {unit:5s} (n = {samples})")
            metrics[name] = (value, unit)
    print(f"checks: attempted={attempted} failed={failed} "
          f"failed_frac={ratio(failed, attempted):.4f} "
          + " ".join(f"{kind}={count}" for kind, count in kinds.items()))
    print(f"checks: every repetition's digest equals its seed's first: {identical}")
    correct = failed == 0 and identical
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
