"""Wall-clock benchmark of the sharing pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mixed-history --seed 1 --seconds 20 --trace 0

The benchmark imports the program from the checkout's ``src`` directory and
replays the workload's seeded traffic traces (``workloads.py``) through the
synchronous gateway from one thread.  A run replays the workload's
traces in turn (a *cycle*) and repeats whole cycles for about ``--seconds``;
every cycle replays the same inputs, so the simulated-time results and the
state digest of each cycle must match the first one's.  Correctness is
checked after every replay, outside the timed region.

Every time the benchmark reports is in *reference seconds* (``speed.py``):
the wall clock with the shared machine's changing speed divided out, as
metered by a timer-driven probe of fixed reference work.  The last lines
before the result give the machine's median speed and the raw wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced cycles with cycles in
which every layer's public calls are wrapped (``tracing.py``) and reports the
per-layer metrics, with the spans of the last traced replay written as JSONL
under ``perfbench/out/``.  A failed check makes ``correct`` false and the exit
code 1.  ``baseline.json`` holds the holdout seed, the map from layer metrics
to the end-to-end metrics they should move, and the first recorded medians.
The benchmark's own tests: ``python3 -m pytest -q perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path; refuse to run
    without it, so an installed copy of the program is never measured."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Sample:
    """One replayed trace: its timings, outcome and layer counters."""

    seed: int
    setup: Tuple[float, float]
    replay: "object"
    requests: int
    not_ok: int
    digest: str
    problems: List[str]
    sim_latencies: List[float]
    writes_committed: int
    work: Dict[str, float]
    layers: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    queue_waits: List[float] = field(default_factory=list)
    setup_s: float = 0.0

    def rescale(self, to_reference) -> None:
        """Turn the sample's wall-clock readings into reference seconds
        (``speed.py``); self times and queue waits, measured from spans, by
        the replay's mean scale."""
        self.setup_s = to_reference(self.setup[1]) - to_reference(self.setup[0])
        raw_wall = self.replay.wall
        self.replay.rescale(to_reference)
        scale = ratio(self.replay.wall, raw_wall)
        self.layers = {name: (calls, seconds * scale)
                       for name, (calls, seconds) in self.layers.items()}
        self.queue_waits = [wait * scale for wait in self.queue_waits]

    @property
    def failed(self) -> int:
        """Requests counted as failed: all of them when a check failed."""
        return self.requests if self.problems else self.not_ok

    def sim_key(self) -> Tuple:
        return (self.digest, self.replay.sim_seconds, self.writes_committed,
                tuple(self.sim_latencies))


def run_trace(workload, seed: int, state_dir: Optional[pathlib.Path],
              traced: bool = False) -> Tuple[Sample, Optional[object]]:
    """Set up, replay and check one trace; returns the sample, its times
    still raw, and, when traced, the span recorder."""
    from tracing import SpanRecorder, self_times
    from workloads import check, close, counters, replay, state_digest

    gc.collect()
    if state_dir is not None:
        shutil.rmtree(state_dir, ignore_errors=True)
    began = perf_counter()
    rig = workload.setup(seed, state_dir)
    setup = (began, perf_counter())
    recorder = SpanRecorder() if traced else None
    try:
        arrivals = workload.trace(rig, seed)
        before = counters(rig.system)
        if recorder is not None:
            recorder.install()
        try:
            result = replay(rig, arrivals, workload.batch)
        finally:
            if recorder is not None:
                recorder.uninstall()
        after = counters(rig.system)
        problems = check(workload, rig, result)
        metrics = rig.gateway.metrics()
        digest = state_digest(rig.system)
    finally:
        close(rig)
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)
    work: Dict[str, float] = {key: after[key] - before[key] for key in after}
    batches = metrics["batches"]
    # Replica-routed reads look up each replica's own view cache.
    caches = [metrics["cache"]] + [replica["cache"] for replica
                                   in metrics["replication"].get("replicas", [])
                                   if replica["cache"] is not None]
    work.update(
        cache_hits=sum(cache["hits"] for cache in caches),
        cache_lookups=sum(cache["hits"] + cache["misses"] for cache in caches),
        batches=batches["committed"], consensus_rounds=batches["consensus_rounds"],
        replica_reads=metrics["replication"].get("reads_served", 0),
        reads=result.is_write.count(False))
    writes = [response for response, write in zip(result.responses, result.is_write)
              if write and response.ok]
    sample = Sample(seed=seed, setup=setup, replay=result,
                    requests=len(result.responses),
                    not_ok=sum(1 for response in result.responses if not response.ok),
                    digest=digest, problems=problems,
                    sim_latencies=[response.latency for response in writes],
                    writes_committed=batches["writes_committed"], work=work)
    # Responses hold whole views; keeping them would make peak memory grow
    # with the number of cycles a run fits in.
    result.responses.clear()
    if recorder is not None:
        sample.layers = self_times(recorder.spans)
        sample.queue_waits = queue_waits(recorder, result)
    return sample, recorder


def queue_waits(recorder, result) -> List[float]:
    """For each committed write: from its ``submit`` call to the start of
    the ``commit_once`` that made it terminal."""
    commits = sorted((span.start, span.end) for span in recorder.spans
                     if span.name == "gateway.commit_once")
    waits = []
    for write, began, done in zip(result.is_write, result.submitted, result.finished):
        if not write:
            continue
        for start, end in commits:
            if start <= done <= end:
                waits.append(start - began)
                break
    return waits


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0 < q < 100).

    A weighted mean of every order statistic, the weights peaking at rank
    ``q``% of the sample.  Simulated latencies come in whole commit rounds,
    and a plain order statistic jumps a whole round between seeds whenever
    the share of writes at one level crosses ``q``; this estimate moves with
    that share instead.  Weights below 1e-12 (far from the peak) are skipped.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    spread = 12.0 * math.sqrt(p * (1.0 - p) * n) + 2.0
    low = max(0, int(p * n - spread))
    high = min(n, int(p * n + spread) + 1)
    total = 0.0
    previous = _beta_cdf(a, b, low / n)
    for index in range(low, high):
        current = _beta_cdf(a, b, (index + 1) / n)
        total += (current - previous) * ordered[index]
        previous = current
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(cycles: List[List[Sample]]) -> Dict[str, Tuple[float, str]]:
    """Wall metrics pooled over every replay, ``setup_s`` as the median
    over every set-up, ``sim_*`` from the first cycle (every cycle repeats
    it exactly)."""
    samples = [sample for cycle in cycles for sample in cycle]
    writes = [latency for sample in samples for latency in sample.replay.latencies(True)]
    reads = [latency for sample in samples for latency in sample.replay.latencies(False)]
    halves = [sample.replay.halves() for sample in samples]
    before = ratio(sum(h[0] for h in halves), sum(h[1] for h in halves))
    after = ratio(sum(h[2] for h in halves), sum(h[3] for h in halves))
    attempted = sum(sample.requests for sample in samples)
    first = cycles[0]
    sim_latencies = [latency for sample in first for latency in sample.sim_latencies]
    return {
        "setup_s": (statistics.median(sample.setup_s for sample in samples), "s"),
        "requests_per_s": (ratio(attempted, sum(s.replay.wall for s in samples)), "1/s"),
        "write_p50_ms": (1e3 * percentile(writes, 50), "ms"),
        "write_p90_ms": (1e3 * percentile(writes, 90), "ms"),
        "read_p50_ms": (1e3 * percentile(reads, 50), "ms"),
        "read_p90_ms": (1e3 * percentile(reads, 90), "ms"),
        "cost_growth": (ratio(after, before), "ratio"),
        "sim_writes_per_s": (ratio(sum(s.writes_committed for s in first),
                                   sum(s.replay.sim_seconds for s in first)),
                             "1/sim-s"),
        "sim_write_p50_s": (percentile(sim_latencies, 50), "sim-s"),
        "sim_write_p90_s": (percentile(sim_latencies, 90), "sim-s"),
        "ok_frac": (1.0 - ratio(sum(s.failed for s in samples), attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }


def per_layer(traced_cycles: List[List[Sample]],
              untraced_cycles: List[List[Sample]]) -> Dict[str, Tuple[float, str]]:
    """Counts and self times as means per traced replay, ratios over all of
    them, and the tracing overhead against the untraced cycles run
    alternately with the traced ones."""
    from tracing import layer_names

    traced = [sample for cycle in traced_cycles for sample in cycle]
    untraced = [sample for cycle in untraced_cycles for sample in cycle]
    count = len(traced)
    layers: Dict[str, List[float]] = {name: [0, 0.0] for name in layer_names()}
    for sample in traced:
        for name, (calls, seconds) in sample.layers.items():
            layers[name][0] += calls
            layers[name][1] += seconds
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, (calls, seconds) in layers.items():
        metrics[f"{name}.calls"] = (calls / count, "count")
        metrics[f"{name}.self_s"] = (seconds / count, "s")

    def total(key: str) -> float:
        return sum(sample.work[key] for sample in traced)

    waits = [wait for sample in traced for wait in sample.queue_waits]
    committed = sum(sample.writes_committed for sample in traced)
    traced_wall = sum(sample.replay.wall for sample in traced)
    self_total = sum(seconds for _calls, seconds in layers.values())
    metrics.update({
        "gateway.cache.hit_ratio": (ratio(total("cache_hits"), total("cache_lookups")), "ratio"),
        "gateway.batch.mean_writes": (ratio(committed, total("batches")), "count"),
        "gateway.queue_wait_p50_ms": (1e3 * percentile(waits, 50) if waits else 0.0, "ms"),
        "core.delta_fallbacks": (total("delta_fallbacks") / count, "count"),
        "core.delta_ratio": (ratio(total("delta_puts"),
                                   total("delta_puts") + total("puts")), "ratio"),
        "core.rounds_per_batch": (ratio(total("consensus_rounds"), total("batches")), "ratio"),
        "contracts.revert_ratio": (ratio(total("contract_reverts"),
                                         total("contract_calls")), "ratio"),
        "contracts.calls_per_write": (ratio(total("contract_calls"), committed), "ratio"),
        "crypto.verify_per_tx": (ratio(layers["crypto.verify"][0], total("transactions")),
                                 "ratio"),
        "ledger.txs_per_block": (ratio(total("transactions"), total("blocks")), "ratio"),
        "network.messages_per_write": (ratio(total("messages"), committed), "ratio"),
        "relational.replica_read_ratio": (ratio(total("replica_reads"), total("reads")), "ratio"),
        "trace.coverage": (ratio(self_total, traced_wall), "ratio"),
        "trace.overhead": (ratio(traced_wall, sum(s.replay.wall for s in untraced)), "ratio"),
    })
    return metrics


def measure(workload, seed: int, seconds: float, traced: bool,
            out: pathlib.Path = OUT) -> Tuple[dict, List[str]]:
    """Run whole cycles for about ``seconds``; returns the result object
    and the lines to print before it."""
    from speed import Timeline

    state_dir = (out / f"state-{workload.name}-{seed}") if workload.durable else None
    seeds = workload.trace_seeds(seed)
    untraced: List[List[Sample]] = []
    traced_cycles: List[List[Sample]] = []
    recorder = None
    with Timeline() as timeline:
        # Warm-up: a tiny trace loads lazily imported code before timing starts.
        run_trace(replace(workload, writes=2, reads=2, traces=1), seeds[0], state_dir)
        started = perf_counter()
        while True:
            cycle_started = perf_counter()
            untraced.append([run_trace(workload, s, state_dir)[0] for s in seeds])
            if traced:
                cycle = []
                for trace_seed in seeds:
                    sample, recorder = run_trace(workload, trace_seed, state_dir,
                                                 traced=True)
                    cycle.append(sample)
                traced_cycles.append(cycle)
            # Another cycle only if it ends nearer the time asked for.
            now = perf_counter()
            if now - started + (now - cycle_started) / 2 >= seconds:
                break
    if recorder is not None:
        recorder.write_jsonl(out / f"spans-{workload.name}-{seed}.jsonl")

    cycles = untraced + traced_cycles
    samples = [sample for cycle in cycles for sample in cycle]
    raw_wall = sum(sample.replay.wall for sample in samples)
    to_reference = timeline.mapping()
    for sample in samples:
        sample.rescale(to_reference)
    problems = [f"trace {sample.seed}: {problem}" for sample in samples
                for problem in sample.problems]
    if any([s.sim_key() for s in cycle] != [s.sim_key() for s in cycles[0]]
           for cycle in cycles):
        problems.append("a cycle's simulated results or state differ from the first cycle's")
    digest = hashlib.sha256(
        "".join(sample.digest for sample in cycles[0]).encode()).hexdigest()
    if traced:
        metrics = per_layer(traced_cycles, untraced)
    else:
        metrics = end_to_end(untraced)
    attempted = sum(sample.requests for sample in samples)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(sample.failed for sample in samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    lines = [f"workload {workload.name} seed {seed} cycles {len(cycles)} "
             f"traces/cycle {len(seeds)}",
             f"state_digest {digest}",
             f"machine speed {timeline.speed():.3f} of the reference over "
             f"{len(timeline.probes)} probes; replay wall {raw_wall:.3f} s raw, "
             f"{sum(sample.replay.wall for sample in samples):.3f} reference s"]
    if workload.durable:
        from workloads import FSYNC_POLICY
        lines.append(f"durable peers: fsync policy {FSYNC_POLICY}")
    lines += [f"problem: {problem}" for problem in problems]
    return result, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Wall-clock benchmark of the sharing pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                            traced=bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
