"""The server child: builds one Velox deployment and serves it over TCP.

Started by ``run.py`` with only a seed and the corpus shape::

    python3 perfbench/server.py --seed 7 --users 1000 --items 1000 \\
        --ratings-per-user 25 [--replicas 2] [--spans out/spans.npz] \\
        [--corpus-cache out/corpus.npz]

It generates the SynthLens corpus, then sets up: initial ALS training,
``Velox.deploy`` (without automatic retraining), ``add_model`` with the
corpus as seed observations, and the serving engine plus event-loop
server with default configs.
When the server listens it prints one ``READY {...}`` line on stdout;
from then on it answers line commands on stdin, one JSON line each:

* ``export <path>`` writes the reference model (every user's weight row
  and every item's feature row) to ``<path>``;
* ``stats`` returns the server's counters, plus the queue-wait and
  batch figures of the window since the previous ``stats``;
* ``quit`` stops the server, writes the spans (traced run), answers and
  exits. End of input does the same without answering.

With ``--spans`` the public functions of each layer are wrapped before
anything is built (see :func:`_layer_spans`), a ``gc`` callback times
collections, and every span is written to the given path at ``quit``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

T_START = time.perf_counter()
sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

MODEL = "songs"
RANK = 8


def _layer_spans():
    """``(owner, attribute, span name, options)`` for every wrapped call.

    Imported lazily so the list resolves against the code under test.
    """
    from repro.analytics.views import RollupView
    from repro.core.manager import ModelManager
    from repro.core.online import ShermanMorrisonUpdater
    from repro.core.prediction import PredictionService
    from repro.frontend import wire
    from repro.frontend.client import VeloxClient
    from repro.serving.engine import ServingEngine
    from repro.store.oblog import ObservationLog
    from repro.store.table import Table

    return [
        (wire.FrameDecoder, "next_frame", "frontend.frame_next",
         {"sets_corr": True}),
        (wire, "decode_request_payload", "frontend.wire_decode", {}),
        (wire, "encode_response_frame", "frontend.wire_encode",
         {"corr_arg": 1}),
        (VeloxClient, "dispatch_async", "frontend.dispatch", {}),
        (ServingEngine, "submit_predict", "serving.submit", {}),
        (ServingEngine, "submit_top_k", "serving.submit", {}),
        (PredictionService, "predict_batch", "core.prediction.predict_batch",
         {"count_rows": True}),
        (Table, "read_weights_batch", "store.weight_gather", {}),
        (Table, "put", "store.table_put", {}),
        (ObservationLog, "append", "store.oblog_append", {}),
        (RollupView, "apply", "analytics.maintain", {}),
        (ModelManager, "observe", "core.manager.observe", {}),
        (ModelManager, "retrain_now", "core.manager.retrain", {}),
        (ShermanMorrisonUpdater, "update", "core.online.update", {}),
    ]


class Tracing:
    """Span recorder, call counters and gc timing of the traced run."""

    def __init__(self):
        from spans import SpanRecorder
        from repro.cluster.partitioner import HashPartitioner, ModuloPartitioner

        self.recorder = SpanRecorder()
        self.rows = 0
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_started = 0
        for owner, attr, name, options in _layer_spans():
            options = dict(options)
            if options.pop("count_rows", False):
                options["on_call"] = self._count_rows
            self.recorder.wrap(owner, attr, name, **options)
        for cls in (ModuloPartitioner, HashPartitioner):
            self.recorder.count(cls, "partition", "cluster.partition")
        gc.callbacks.append(self._on_gc)

    def _count_rows(self, args) -> None:
        """``predict_batch(self, model_name, user_ids, xs)``: one row per
        user id."""
        self.rows += len(args[2])

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def snapshot(self) -> dict:
        return {
            "partition_calls": sum(self.recorder.counts.values()),
            "predict_batch_rows": self.rows,
            "gc_pause_ms": self.gc_pause_ns / 1e6,
            "gc_gen2_count": self.gc_gen2,
        }


def _corpus(args) -> dict:
    """The SynthLens ratings as columns. With ``--corpus-cache`` the
    first child of a run generates and saves them, later ones load them."""
    from repro.data import SynthLensConfig, generate_synthlens

    cache = pathlib.Path(args.corpus_cache) if args.corpus_cache else None
    if cache is not None and cache.exists():
        with np.load(cache) as data:
            return {key: data[key] for key in data.files}
    lens = generate_synthlens(SynthLensConfig(
        num_users=args.users,
        num_items=args.items,
        rank=RANK,
        ratings_per_user_mean=float(args.ratings_per_user),
        min_ratings_per_user=min(20, args.ratings_per_user),
        seed=args.seed,
    ))
    columns = {
        "uid": np.array([r.uid for r in lens.ratings], dtype=np.int64),
        "item": np.array([r.item_id for r in lens.ratings], dtype=np.int64),
        "rating": np.array([r.rating for r in lens.ratings]),
        "timestamp": np.array([r.timestamp for r in lens.ratings]),
    }
    if cache is not None:
        np.savez(cache, **columns)
    return columns


def build(args, tracing):
    """Corpus, then timed set-up; returns ``(velox, engine, server, info)``."""
    from repro import Velox, VeloxConfig
    from repro.core.models import MatrixFactorizationModel
    from repro.core.offline import als_train
    from repro.frontend import VeloxServer
    from repro.store.oblog import Observation

    t0 = time.perf_counter()
    cpu0 = time.process_time()
    columns = _corpus(args)
    triples = list(zip(columns["uid"].tolist(), columns["item"].tolist(),
                       columns["rating"].tolist()))
    seed_log = [
        Observation(uid, item, rating, item, stamp)
        for (uid, item, rating), stamp in zip(triples,
                                              columns["timestamp"].tolist())
    ]
    corpus_s = time.perf_counter() - t0
    corpus_cpu_s = time.process_time() - cpu0

    t1 = time.perf_counter()
    # Retrains happen where the workload sends them. A staleness retrain
    # set off by the generated labels would swap the model at a moment
    # no run could repeat, and the output checks could not follow it.
    velox = Velox.deploy(VeloxConfig(replication_factor=args.replicas),
                         auto_retrain=False)
    als = als_train(velox.batch_context, triples, rank=RANK,
                    num_items=args.items)
    t2 = time.perf_counter()
    model = MatrixFactorizationModel(
        MODEL, als.item_factors, als.item_bias, als.global_mean
    )
    ids, latents = als.user_factors.arrays()
    _ids, biases = als.user_bias.arrays()
    weights = {
        int(uid): model.pack_user_weights(latents[row], biases[row])
        for row, uid in enumerate(ids)
    }
    velox.add_model(model, initial_user_weights=weights,
                    seed_observations=seed_log)
    t3 = time.perf_counter()
    engine = velox.serving_engine()
    server = VeloxServer(velox, engine=engine).start()
    t4 = time.perf_counter()
    # CPU of every thread since the process started (interpreter start-up
    # and imports included), less the corpus.
    setup_cpu_s = time.process_time() - corpus_cpu_s
    info = {
        "port": server.port,
        "ratings": len(seed_log),
        "version": velox.model(MODEL).version,
        "corpus_s": corpus_s,
        "setup_cpu_s": setup_cpu_s,
        "als_s": t2 - t1,
        "add_model_s": t3 - t2,
        "server_s": t4 - t3,
        "child_s": t4 - T_START,
    }
    if tracing is not None:
        info["seed_ingest_s"] = tracing.recorder.total_seconds("store.oblog_append")
    return velox, engine, server, info


class Control:
    """Answers the generator's line commands."""

    def __init__(self, velox, engine, server, tracing, spans_path):
        self.velox = velox
        self.engine = engine
        self.server = server
        self.tracing = tracing
        self.spans_path = spans_path
        self._wait_marks: dict[str, int] = {}
        self._service_marks: dict[str, int] = {}
        self._batch_marks: dict[str, dict] = {}
        self._shed_marks: dict[str, int] = {}

    def export(self, path: str) -> dict:
        table = self.velox.manager.user_state_table(MODEL)
        uids, rows = table.export_weight_matrix().arrays()
        model = self.velox.model(MODEL)
        features = np.stack([model.features(i) for i in range(model.num_items)])
        np.savez(path, uids=np.asarray(uids), weights=np.asarray(rows),
                 features=features, version=model.version)
        return {"version": model.version, "users": int(len(uids))}

    def _window(self) -> dict:
        """Queue-wait and batch figures since the previous call."""
        waits, service = [], []
        batches = sizes = shed = 0
        for name, metrics in self.engine.queue_metrics().items():
            samples = metrics.wait.samples
            waits.extend(samples[self._wait_marks.get(name, 0):])
            self._wait_marks[name] = len(samples)
            samples = metrics.service.samples
            service.extend(samples[self._service_marks.get(name, 0):])
            self._service_marks[name] = len(samples)
            counts = metrics.batch_sizes.counts()
            before = self._batch_marks.get(name, {})
            for size, count in counts.items():
                delta = count - before.get(size, 0)
                batches += delta
                sizes += size * delta
            self._batch_marks[name] = counts
            total = metrics.shed_count
            shed += total - self._shed_marks.get(name, 0)
            self._shed_marks[name] = total
        return {
            "wait_ms": [w * 1e3 for w in waits],
            "batches": batches,
            "batch_rows": sizes,
            "service_ms_total": sum(service) * 1e3,
            "shed": shed,
        }

    def stats(self) -> dict:
        velox = self.velox
        out = {
            "frontend": self.server.counters.snapshot(),
            "caches": velox.service.cache_stats(),
            "log_length": len(velox.manager.observation_log(MODEL)),
            "version": velox.model(MODEL).version,
            "window": self._window(),
        }
        events = velox.manager.retrain_events
        if events:
            last = events[-1]
            out["retrain"] = {
                "batch_seconds": last.batch_seconds,
                "batch_utilization": last.batch_utilization,
                "caches_repopulated": last.caches_repopulated,
                "count": len(events),
            }
        if velox.replication is not None:
            snap = velox.replication.metrics.snapshot()
            out["replication"] = {
                "records_shipped": snap["records_shipped"],
                "lag_counts": snap["lag_counts"],
            }
        if self.tracing is not None:
            out["trace"] = self.tracing.snapshot()
        return out

    def close(self) -> dict:
        self.server.stop()
        self.velox.shutdown()
        out = {}
        if self.tracing is not None and self.spans_path:
            out["spans"] = self.tracing.recorder.save(self.spans_path)
            out["dropped"] = self.tracing.recorder.dropped
        return out


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--ratings-per-user", type=int, required=True)
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--spans", default="")
    parser.add_argument("--corpus-cache", default="")
    args = parser.parse_args(argv)

    tracing = Tracing() if args.spans else None
    velox, engine, server, info = build(args, tracing)
    control = Control(velox, engine, server, tracing, args.spans)
    sys.stdout.write("READY " + json.dumps(info) + "\n")
    sys.stdout.flush()
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "export":
                _reply(control.export(arg))
            elif command == "stats":
                _reply(control.stats())
            elif command == "quit":
                _reply(control.close())
                return 0
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
        velox.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
