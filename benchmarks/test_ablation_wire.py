"""Ablation: JSON-lines serial transport vs binary framed pipelining.

PR 1 put an adaptive batcher behind the frontend, but the JSON-lines
transport above it still paid text codecs and one in-flight request per
connection — a batcher cannot coalesce what the wire never delivers
concurrently. This ablation measures the two transport taxes removed by
the binary framed protocol (`repro.frontend.wire`):

* **Codec cost** — encode+decode round-trip time and wire size for
  representative requests/responses, JSON-lines vs struct-packed binary
  (ndarray payloads as raw dtype/shape/bytes).
* **Transport throughput** — closed-loop predict throughput against the
  same engine-backed server: a serial JSON-lines client
  (``PipelinedClient(prefer_binary=False)``, one blocking ``call`` at a
  time) vs the pipelined binary client at 1/4/16 in-flight requests on
  one socket.

Shape assertions: binary beats JSON on codec time for feature-vector
payloads, and the pipelined binary path at 16 in-flight beats the serial
JSON-lines baseline by >= 2x throughput on the same workload.

Set ``WIRE_SMOKE=1`` for the fast CI configuration.
"""

from __future__ import annotations

import io
import os
import time
from collections import deque

import numpy as np

from repro.frontend import (
    PipelinedClient,
    PredictApiRequest,
    TopKApiRequest,
    VeloxServer,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.frontend import wire
from repro.frontend.api import ApiResponse
from repro.serving import ServingConfig

from conftest import build_mf_serving, write_result

SMOKE = os.environ.get("WIRE_SMOKE", "") not in ("", "0")

DIMENSION = 34
NUM_ITEMS = 1000
NUM_USERS = 64

CODEC_ITERATIONS = 300 if SMOKE else 3000
NUM_REQUESTS = 400 if SMOKE else 3000
PIPELINE_WINDOWS = [1, 4, 16]


# -- codec cost -------------------------------------------------------------


def _time_per_op(fn, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def _codec_rows():
    rng = np.random.default_rng(7)
    subjects = {
        "predict_int_item": PredictApiRequest(uid=11, item=17, model="bench"),
        "predict_ndarray_d64": PredictApiRequest(
            uid=11, item=rng.normal(size=64)
        ),
        "top_k_50_items": TopKApiRequest(
            uid=11, items=tuple(range(50)), k=10, model="bench"
        ),
    }
    response = ApiResponse(
        ok=True,
        payload={
            "items": [
                {"item": int(i), "score": float(s)}
                for i, s in zip(range(10), rng.normal(size=10))
            ]
        },
    )
    rows = []
    for name, request in subjects.items():
        json_line = encode_request(request)

        def json_roundtrip(request=request):
            decode_request(encode_request(request))

        frame = wire.encode_request_frame(request, 0)

        def binary_roundtrip(request=request):
            opcode, _, payload = wire.read_frame(
                io.BytesIO(wire.encode_request_frame(request, 0))
            )
            wire.decode_request_payload(opcode, payload)

        rows.append(
            {
                "name": name,
                "json_us": _time_per_op(json_roundtrip, CODEC_ITERATIONS) * 1e6,
                "binary_us": _time_per_op(binary_roundtrip, CODEC_ITERATIONS)
                * 1e6,
                "json_bytes": len(json_line) + 1,
                "binary_bytes": len(frame),
            }
        )

    def json_response_roundtrip():
        decode_response(encode_response(response))

    def binary_response_roundtrip():
        _, _, payload = wire.read_frame(
            io.BytesIO(wire.encode_response_frame(response, 0))
        )
        wire.decode_response_payload(payload)

    rows.append(
        {
            "name": "response_top10",
            "json_us": _time_per_op(json_response_roundtrip, CODEC_ITERATIONS)
            * 1e6,
            "binary_us": _time_per_op(binary_response_roundtrip, CODEC_ITERATIONS)
            * 1e6,
            "json_bytes": len(encode_response(response)) + 1,
            "binary_bytes": len(wire.encode_response_frame(response, 0)),
        }
    )
    return rows


# -- transport throughput ---------------------------------------------------


def _make_plan():
    rng = np.random.default_rng(17)
    return list(
        zip(
            rng.integers(0, NUM_USERS, NUM_REQUESTS).tolist(),
            rng.integers(0, NUM_ITEMS, NUM_REQUESTS).tolist(),
        )
    )


def _serving_stack():
    """Fresh deployment + engine-backed server per run so caches and
    AIMD state never leak across series."""
    velox = build_mf_serving(
        DIMENSION, NUM_ITEMS, num_users=NUM_USERS, num_nodes=1
    )
    engine = velox.serving_engine(
        ServingConfig(
            num_workers=2,
            max_queue_depth=8192,
            max_queue_age=10.0,
            batching="adaptive",
            max_batch_size=64,
            slo_p99=0.1,
        )
    )
    return VeloxServer(velox, engine=engine), engine


def run_serial_json(plan) -> dict:
    server, engine = _serving_stack()
    with server:
        with PipelinedClient(
            server.host, server.port, timeout=30, prefer_binary=False
        ) as client:
            assert client.protocol == "json"
            start = time.perf_counter()
            for uid, item in plan:
                response = client.call(PredictApiRequest(uid=uid, item=item))
                assert response.ok, response.error
            elapsed = time.perf_counter() - start
        (snapshot,) = engine.metrics_snapshot().values()
    return {
        "throughput_rps": len(plan) / elapsed,
        "batch_mean": snapshot["batch_size_mean"],
    }


def run_pipelined_binary(plan, window: int) -> dict:
    server, engine = _serving_stack()
    with server:
        with PipelinedClient(server.host, server.port, timeout=30) as client:
            assert client.protocol == "binary"
            outstanding: deque = deque()
            start = time.perf_counter()
            for uid, item in plan:
                if len(outstanding) >= window:
                    response = outstanding.popleft().result(timeout=30)
                    assert response.ok, response.error
                outstanding.append(
                    client.submit(PredictApiRequest(uid=uid, item=item))
                )
            while outstanding:
                response = outstanding.popleft().result(timeout=30)
                assert response.ok, response.error
            elapsed = time.perf_counter() - start
        (snapshot,) = engine.metrics_snapshot().values()
    return {
        "throughput_rps": len(plan) / elapsed,
        "batch_mean": snapshot["batch_size_mean"],
    }


def test_wire_summary(benchmark):
    codec_rows = _codec_rows()
    plan = _make_plan()
    serial = run_serial_json(plan)
    pipelined = {
        window: run_pipelined_binary(plan, window)
        for window in PIPELINE_WINDOWS
    }

    lines = ["== codec round-trip cost =="]
    lines.append(
        "payload               json_us   binary_us  json_bytes  binary_bytes"
    )
    for row in codec_rows:
        lines.append(
            f"{row['name']:<22}{row['json_us']:<10.2f}{row['binary_us']:<11.2f}"
            f"{row['json_bytes']:<12d}{row['binary_bytes']:d}"
        )
    lines.append("")
    lines.append(f"== transport throughput ({NUM_REQUESTS} predicts) ==")
    lines.append("transport        in_flight  throughput_rps  batch_mean")
    lines.append(
        f"{'json_serial':<17}{1:<11d}{serial['throughput_rps']:<16.1f}"
        f"{serial['batch_mean']:.2f}"
    )
    for window, row in pipelined.items():
        lines.append(
            f"{'binary_pipelined':<17}{window:<11d}{row['throughput_rps']:<16.1f}"
            f"{row['batch_mean']:.2f}"
        )
    speedup = (
        pipelined[PIPELINE_WINDOWS[-1]]["throughput_rps"]
        / serial["throughput_rps"]
    )
    lines.append("")
    lines.append(
        f"speedup binary_pipelined@{PIPELINE_WINDOWS[-1]} vs json_serial: "
        f"{speedup:.2f}x"
    )
    write_result("ablation_wire", lines)

    # Binary framing beats text codecs on feature-vector payloads.
    ndarray_row = next(
        row for row in codec_rows if row["name"] == "predict_ndarray_d64"
    )
    assert ndarray_row["binary_us"] < ndarray_row["json_us"]
    assert ndarray_row["binary_bytes"] < ndarray_row["json_bytes"]
    # The tentpole claim: pipelined binary at the deepest window beats
    # the serial JSON-lines baseline by >= 2x on the same workload.
    assert speedup >= 2.0
    # Pipelining actually fed the batcher from a single connection.
    assert pipelined[PIPELINE_WINDOWS[-1]]["batch_mean"] > 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
