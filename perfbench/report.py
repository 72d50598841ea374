"""Metrics from a measured pass, and the tables printed beside them."""

from __future__ import annotations

import statistics

import numpy as np

from stats import self_times, summarize
from workloads import OBSERVE

#: End-to-end metrics (printed with ``--trace 0``):
#: name -> (unit, better, how the per-round values combine).
#:
#: The reference machine is a 2-vCPU VM shared with other tenants. Its
#: speed swings by up to 1.6x between runs half a minute apart, and every
#: time and CPU figure moves with it. Light latencies therefore take the
#: best of the rounds, which estimates the server's own speed; CPU
#: figures leave out the time the host stole from the server's threads.
END_TO_END = {
    "setup_s": ("s", "lower", "median"),
    "light_p50_ms": ("ms", "lower", "best"),
    "write_p50_ms": ("ms", "lower", "best"),
    "light_cpu_us_per_req": ("us", "lower", "median"),
    "retrain_stall_share": ("ratio", "lower", "median"),
    "server_rss_mb": ("MB", "lower", "median"),
}
#: Printed beside them but not bounded: in some set of five or ten seeds
#: on the shared machine their spread (quartile distance over median)
#: reached about 0.25 or more, the largest bound a metric may have.
DIAGNOSTIC = {
    "setup_wall_s": ("s", "lower", "median"),
    "retrain_stall_ms": ("ms", "lower", "median"),
    "p50_ms": ("ms", "lower", "best"),
    "throughput_rps": ("1/s", "higher", "best"),
    "cpu_us_per_req": ("us", "lower", "median"),
    "retrain_cpu_s": ("s", "lower", "best"),
    "retrain_s": ("s", "lower", "best"),
    "light_tail_ms": ("ms", "lower", "median"),
    "tail_ms": ("ms", "lower", "median"),
    "write_tail_ms": ("ms", "lower", "median"),
}


def combine(values: list, better: str, how: str) -> float:
    if how == "median":
        return statistics.median(values)
    return max(values) if better == "higher" else min(values)


def _latencies(phase, reads: bool) -> np.ndarray:
    """Seconds from schedule to answer of a phase's reads or writes."""
    reqs = phase.requests
    if reqs is None:
        return np.empty(0)
    is_write = reqs.kind == OBSERVE
    mask = np.zeros(len(phase.log.scheduled), dtype=bool)
    mask[: len(reqs)] = ~is_write if reads else is_write
    return phase.log.latencies(mask)


def _retrain_latency(phase) -> float:
    index = phase.retrain_index
    return float(phase.log.done[index] - phase.log.scheduled[index])


#: Reads scheduled this long after a retrain is sent count as stalled
#: by it (every retrain phase has reads for at least this long after).
STALL_WINDOW_S = 0.1


def _stalled_reads(phase) -> tuple[dict, dict]:
    """Reads scheduled in the :data:`STALL_WINDOW_S` after the phase's
    retrain was sent and before its answer: summaries of their latencies
    and of their *stall shares*, each read's latency over the time the
    retrain still had to run when the read was scheduled.

    While a retrain blocks the event loop, every such read waits for its
    end, and its stall share is about 1; reads served beside the retrain
    have shares near 0. Unlike the latency, the share does not grow with
    the retrain's length.
    """
    log = phase.log
    sent = log.sent[phase.retrain_index]
    done = log.done[phase.retrain_index]
    reads = np.zeros(len(log.scheduled), dtype=bool)
    reads[: len(phase.requests)] = phase.requests.kind != OBSERVE
    reads &= (log.scheduled >= sent) & (log.scheduled < min(done, sent + STALL_WINDOW_S))
    reads &= ~np.isnan(log.done)
    latencies = log.done[reads] - log.scheduled[reads]
    return summarize(latencies), summarize(latencies / (done - log.scheduled[reads]))


def of_kind(phases: dict, kind: str) -> list:
    return [phase for phase in phases.values() if phase.kind == kind]


def end_to_end(result: dict) -> tuple[dict, dict, dict]:
    """``(metric values, per-round values, notes)`` of one untraced pass,
    for the :data:`END_TO_END` and :data:`DIAGNOSTIC` metrics.

    Latencies are summarized per round (median, and the tail the round's
    sample count supports), then combined over rounds as the metric's
    table entry says.
    """
    phases = result["phases"]
    light = [summarize(_latencies(p, reads=True)) for p in of_kind(phases, "light")]
    steady_phases = of_kind(phases, "steady")
    steady = [summarize(_latencies(p, reads=True)) for p in steady_phases]
    write_phases = of_kind(phases, "probe") or steady_phases
    writes = [summarize(_latencies(p, reads=False)) for p in write_phases]
    saturation = of_kind(phases, "saturation")
    retrains = [p for p in phases.values() if p.retrain_index is not None]
    stalls, shares = zip(*[_stalled_reads(p) for p in retrains])
    rounds = {
        "setup_s": list(result["setup_times"]),
        "setup_wall_s": list(result["setup_wall_times"]),
        "light_p50_ms": _ms(light, "p50"),
        "light_tail_ms": _ms(light, "tail"),
        "p50_ms": _ms(steady, "p50"),
        "tail_ms": _ms(steady, "tail"),
        "throughput_rps": [p.completed_in_window / p.seconds for p in saturation],
        "write_p50_ms": _ms(writes, "p50"),
        "write_tail_ms": _ms(writes, "tail"),
        "retrain_s": [_retrain_latency(p) for p in retrains],
        "retrain_cpu_s": [p.retrain_cpu_s for p in retrains],
        "retrain_stall_ms": _ms(stalls, "p50"),
        "retrain_stall_share": [s["p50"] for s in shares if s["p50"] is not None],
        "server_rss_mb": [result["rss_mb"]],
        "cpu_us_per_req": [p.cpu_s * 1e6 / max(1, len(p.answers)) for p in saturation],
        "light_cpu_us_per_req": [
            p.cpu_s * 1e6 / max(1, len(p.answers)) for p in of_kind(phases, "light")
        ],
    }
    specs = {**END_TO_END, **DIAGNOSTIC}
    values = {
        name: combine(per, specs[name][1], specs[name][2]) if per else float("nan")
        for name, per in rounds.items()
    }
    notes = {
        "setup_s": f"{len(rounds['setup_s'])} set-ups, child CPU",
        "setup_wall_s": f"{len(rounds['setup_s'])} set-ups",
        "light_p50_ms": _samples(light, "p50"),
        "light_tail_ms": _samples(light, "tail"),
        "p50_ms": _samples(steady, "p50"),
        "tail_ms": _samples(steady, "tail"),
        "throughput_rps": f"{len(saturation)} closed-loop rounds",
        "write_p50_ms": _samples(writes, "p50"),
        "write_tail_ms": _samples(writes, "tail"),
        "retrain_s": f"{len(rounds['retrain_s'])} retrains",
        "retrain_cpu_s": "server CPU from retrain sent to answered",
        "retrain_stall_ms": "reads sent just after a retrain, " + _samples(stalls, "p50"),
        "retrain_stall_share": "reads sent just after a retrain, " + _samples(shares, "p50"),
        "server_rss_mb": "VmHWM",
        "cpu_us_per_req": "server CPU per answer, closed loop",
        "light_cpu_us_per_req": "server CPU per answer, light",
    }
    return values, rounds, notes


def _ms(summaries: list, key: str) -> list:
    """Per-round values in ms, leaving out rounds too small to have one."""
    return [s[key] * 1e3 for s in summaries if s[key] is not None]


def _samples(summaries: list, key: str) -> str:
    q = "p50" if key == "p50" else f"p{summaries[0]['tail_q'] or 0:g}"
    counts = "/".join(str(s["n"]) for s in summaries)
    return f"{q} of {counts} samples"


def error_share(result: dict) -> float:
    counts = result["counts"]
    return (counts["errors"] + counts["lost"]) / max(1, result["attempted"])


# -- per-layer metrics (traced pass) -------------------------------------------


#: Per-layer metrics (printed with ``--trace 1``): name -> (unit, better).
PER_LAYER = {
    "frontend.dispatch_us": ("us", "lower"),
    "frontend.loop_max_block_ms": ("ms", "lower"),
    "frontend.wire_decode_us": ("us", "lower"),
    "frontend.wire_encode_us": ("us", "lower"),
    "frontend.bytes_in_per_req": ("B", "lower"),
    "frontend.bytes_out_per_req": ("B", "lower"),
    "serving.submit_us": ("us", "lower"),
    "serving.queue_wait_p50_ms": ("ms", "lower"),
    "serving.queue_wait_p99_ms": ("ms", "lower"),
    "serving.batch_size_mean": ("count", "higher"),
    "serving.batch_service_ms": ("ms", "lower"),
    "serving.shed": ("count", "lower"),
    "cluster.partition_calls_per_req": ("count", "lower"),
    "core.prediction.predict_batch_us_per_row": ("us", "lower"),
    "core.prediction.rows_per_call": ("count", "higher"),
    "core.prediction.feature_cache_hit_rate": ("ratio", "higher"),
    "core.prediction.prediction_cache_hit_rate": ("ratio", "higher"),
    "core.prediction.prediction_cache_hits": ("count", "higher"),
    "core.prediction.prediction_cache_lookups": ("count", "higher"),
    "store.weight_gather_us": ("us", "lower"),
    "store.oblog_append_us": ("us", "lower"),
    "store.table_put_us": ("us", "lower"),
    "analytics.maintain_us": ("us", "lower"),
    "core.manager.observe_us": ("us", "lower"),
    "core.online.update_us": ("us", "lower"),
    "replication.records_shipped": ("count", "higher"),
    "replication.lag_p99": ("count", "lower"),
    "setup.als_s": ("s", "lower"),
    "setup.seed_ingest_s": ("s", "lower"),
    "setup.install_s": ("s", "lower"),
    "batch.als_s": ("s", "lower"),
    "batch.utilization": ("ratio", "higher"),
    "core.manager.caches_repopulated": ("count", "higher"),
    "process.gc_pause_ms": ("ms", "lower"),
    "process.gc_gen2_count": ("count", "lower"),
    "loadgen.late_max_ms": ("ms", "lower"),
    "loadgen.error_share": ("ratio", "lower"),
    "tracing.light_p50_overhead_ms": ("ms", "lower"),
    "tracing.p50_overhead_ms": ("ms", "lower"),
    "tracing.throughput_overhead_rps": ("1/s", "lower"),
    "tracing.light_unaccounted_us": ("us", "lower"),
}


class Spans:
    """The traced run's spans, with self times, sliced by time windows."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.start = data["start"]
            self.end = data["end"]
            parent = data["parent"]
        self.duration = self.end - self.start
        self.self_ns = self_times(self.start, self.end, parent)

    def mask(self, name: str, windows) -> np.ndarray:
        """Spans named ``name`` that start inside any of ``windows``
        (``(start, end)`` pairs in perf_counter seconds)."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        inside = np.zeros(len(self.name), dtype=bool)
        for t0, t1 in windows:
            inside |= (self.start >= int(t0 * 1e9)) & (self.start < int(t1 * 1e9))
        return inside & (self.name == self.names.index(name))

    def durations_us(self, name: str, windows, own: bool = False) -> np.ndarray:
        source = self.self_ns if own else self.duration
        return source[self.mask(name, windows)] / 1e3

    def mean_us(self, name: str, windows) -> float:
        values = self.durations_us(name, windows)
        return float(values.mean()) if len(values) else 0.0

    def total_us(self, name: str, windows, own: bool = False) -> float:
        return float(self.durations_us(name, windows, own).sum())

    def per_name_self_us(self, windows) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self time in us)`` inside the windows."""
        out = {}
        for name in self.names:
            values = self.durations_us(name, windows, own=True)
            if len(values):
                out[name] = (len(values), float(values.sum()))
        return out


def _get(stats: dict, path) -> float:
    for key in path:
        stats = stats.get(key, {})
    return float(stats or 0)


class Deltas:
    """Counter changes across phases, from the stats taken after each."""

    def __init__(self, traced: dict):
        self.before = {}
        previous = traced["initial_stats"]
        for phase in traced["phases"].values():
            self.before[phase.name] = previous
            previous = phase.window

    def over(self, phases, *path) -> float:
        return sum(
            _get(p.window, path) - _get(self.before[p.name], path) for p in phases
        )


def _lag_p99(lag_counts: dict) -> float:
    counts = sorted((int(lag), n) for lag, n in lag_counts.items())
    total = sum(n for _lag, n in counts)
    seen = 0
    for lag, n in counts:
        seen += n
        if seen >= 0.99 * total:
            return float(lag)
    return 0.0


def _windows(phases) -> list:
    return [(p.start, p.end) for p in phases]


def _pooled(phases, key: str) -> list:
    return [value for p in phases for value in p.window["window"][key]]


def _summed(phases, key: str) -> float:
    return float(sum(p.window["window"][key] for p in phases))


def per_layer(traced: dict, base: dict) -> tuple[dict, dict]:
    """``(per-layer metric values, light-phase budget)`` of a traced pass,
    with the tracing overhead measured against the untraced ``base``.

    Per-call figures cover the light, steady and saturation rounds;
    write-path figures add the write probe; queue waits come from the
    steady rounds and batch figures from the saturation rounds.
    """
    phases = traced["phases"]
    spans = Spans(traced["spans_path"])
    deltas = Deltas(traced)
    light = of_kind(phases, "light")
    steady = of_kind(phases, "steady")
    saturation = of_kind(phases, "saturation")
    main_phases = light + steady + saturation
    main = _windows(main_phases)
    writes = _windows(main_phases + of_kind(phases, "probe"))
    last = traced["final_stats"]

    dispatch = spans.durations_us("frontend.dispatch", main)
    appends = int(spans.mask("store.oblog_append", writes).sum())
    waits = summarize(_pooled(steady, "wait_ms"))
    batches = max(1.0, _summed(saturation, "batches"))
    rows = deltas.over(main_phases, "trace", "predict_batch_rows")
    batch_calls = int(spans.mask("core.prediction.predict_batch", main).sum())
    cache = {
        key: deltas.over(main_phases, "caches", key)
        for key in ("feature_hits", "feature_misses", "prediction_hits",
                    "prediction_misses")
    }
    feature_lookups = cache["feature_hits"] + cache["feature_misses"]
    prediction_lookups = cache["prediction_hits"] + cache["prediction_misses"]
    frames_in = max(1.0, deltas.over(main_phases, "frontend", "frames_in"))
    light_answers = max(1, sum(len(p.answers) for p in light))
    retrain = last.get("retrain", {})
    info = traced["info"]
    base_e2e = end_to_end(base)[0]
    traced_e2e = end_to_end(traced)[0]
    budget = light_budget(traced, spans)

    values = {
        "frontend.dispatch_us": float(np.median(dispatch)) if len(dispatch) else 0.0,
        "frontend.loop_max_block_ms": float(dispatch.max() / 1e3) if len(dispatch) else 0.0,
        "frontend.wire_decode_us": spans.mean_us("frontend.wire_decode", main),
        "frontend.wire_encode_us": spans.mean_us("frontend.wire_encode", main),
        "frontend.bytes_in_per_req": deltas.over(main_phases, "frontend", "bytes_in") / frames_in,
        "frontend.bytes_out_per_req": deltas.over(main_phases, "frontend", "bytes_out") / frames_in,
        "serving.submit_us": spans.mean_us("serving.submit", main),
        "serving.queue_wait_p50_ms": waits["p50"] or 0.0,
        "serving.queue_wait_p99_ms": waits["tail"] or 0.0,
        "serving.batch_size_mean": _summed(saturation, "batch_rows") / batches,
        "serving.batch_service_ms": _summed(saturation, "service_ms_total") / batches,
        "serving.shed": _summed(main_phases, "shed"),
        "cluster.partition_calls_per_req": deltas.over(light, "trace", "partition_calls") / light_answers,
        "core.prediction.predict_batch_us_per_row": spans.total_us("core.prediction.predict_batch", main) / max(1.0, rows),
        "core.prediction.rows_per_call": rows / max(1, batch_calls),
        "core.prediction.feature_cache_hit_rate": cache["feature_hits"] / max(1.0, feature_lookups),
        "core.prediction.prediction_cache_hit_rate": cache["prediction_hits"] / max(1.0, prediction_lookups),
        "core.prediction.prediction_cache_hits": cache["prediction_hits"],
        "core.prediction.prediction_cache_lookups": prediction_lookups,
        "store.weight_gather_us": spans.mean_us("store.weight_gather", main),
        "store.oblog_append_us": spans.mean_us("store.oblog_append", writes),
        "store.table_put_us": spans.mean_us("store.table_put", writes),
        "analytics.maintain_us": spans.total_us("analytics.maintain", writes) / max(1, appends),
        "core.manager.observe_us": spans.mean_us("core.manager.observe", writes),
        "core.online.update_us": spans.mean_us("core.online.update", writes),
        "replication.records_shipped": deltas.over(list(phases.values()), "replication", "records_shipped"),
        "replication.lag_p99": _lag_p99(last.get("replication", {}).get("lag_counts", {})),
        "setup.als_s": info["als_s"],
        "setup.seed_ingest_s": info["seed_ingest_s"],
        "setup.install_s": info["add_model_s"] - info["seed_ingest_s"],
        "batch.als_s": retrain.get("batch_seconds") or 0.0,
        "batch.utilization": retrain.get("batch_utilization") or 0.0,
        "core.manager.caches_repopulated": float(retrain.get("caches_repopulated") or 0),
        "process.gc_pause_ms": deltas.over(steady, "trace", "gc_pause_ms"),
        "process.gc_gen2_count": deltas.over(steady, "trace", "gc_gen2_count"),
        "loadgen.late_max_ms": traced["late_max_s"] * 1e3,
        "loadgen.error_share": error_share(base),
        "tracing.light_p50_overhead_ms": traced_e2e["light_p50_ms"] - base_e2e["light_p50_ms"],
        "tracing.p50_overhead_ms": traced_e2e["p50_ms"] - base_e2e["p50_ms"],
        "tracing.throughput_overhead_rps": base_e2e["throughput_rps"] - traced_e2e["throughput_rps"],
        "tracing.light_unaccounted_us": budget["unaccounted_us"],
    }
    return values, budget


def light_budget(traced: dict, spans: Spans) -> dict:
    """Where the light phases' round trip goes, per read.

    Light-phase requests are served one at a time, so the server's share
    of a round trip is: the engine's queue wait (which starts at the
    loop's recv stamp and so covers decode and dispatch), then the batch
    call, then the response encode. What the server spans do not cover
    is the remainder: client decode, the socket both ways, and the
    hand-off from the engine worker back to the loop. (In a mixed
    workload the span table also holds the writes' spans.)
    """
    light = of_kind(traced["phases"], "light")
    windows = _windows(light)
    reads = np.concatenate([_latencies(p, reads=True) for p in light])
    requests = max(1, len(reads))
    answers = max(1, sum(len(p.answers) for p in light))
    round_trip_us = float(reads.mean() * 1e6) if len(reads) else 0.0
    waits = _pooled(light, "wait_ms")
    wait_us = float(np.mean(waits) * 1e3) if waits else 0.0
    batch_us = spans.total_us("core.prediction.predict_batch", windows) / requests
    encode_us = spans.total_us("frontend.wire_encode", windows) / answers
    rows = {
        name: (calls / requests, total / requests)
        for name, (calls, total) in spans.per_name_self_us(windows).items()
    }
    return {
        "requests": requests,
        "round_trip_us": round_trip_us,
        "queue_wait_us": wait_us,
        "batch_us": batch_us,
        "encode_us": encode_us,
        "unaccounted_us": round_trip_us - wait_us - batch_us - encode_us,
        "self_us": rows,
    }
