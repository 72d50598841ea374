"""Front-end: codec round-trips, in-process client, TCP server."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.frontend import (
    ApiResponse,
    HealthApiRequest,
    ObserveApiRequest,
    PipelinedClient,
    PredictApiRequest,
    RetrainApiRequest,
    TopKApiRequest,
    VeloxClient,
    VeloxServer,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)


class TestCodec:
    def test_predict_roundtrip(self):
        original = PredictApiRequest(uid=3, item=17, model="songs")
        decoded = decode_request(encode_request(original))
        assert decoded == original

    def test_topk_roundtrip(self):
        original = TopKApiRequest(uid=1, items=(1, 2, 3), k=2, policy="linucb")
        decoded = decode_request(encode_request(original))
        assert decoded == original

    def test_observe_roundtrip(self):
        original = ObserveApiRequest(uid=9, item=4, label=3.5)
        assert decode_request(encode_request(original)) == original

    def test_observe_validation_flag_roundtrip(self):
        original = ObserveApiRequest(uid=9, item=4, label=3.5, validation=True)
        assert decode_request(encode_request(original)).validation is True

    def test_ndarray_item_roundtrip(self):
        original = PredictApiRequest(uid=1, item=np.array([1.0, 2.5]))
        decoded = decode_request(encode_request(original))
        assert np.array_equal(decoded.item, original.item)

    def test_health_and_retrain_roundtrip(self):
        assert decode_request(encode_request(HealthApiRequest("m"))).model == "m"
        retrain = decode_request(encode_request(RetrainApiRequest("m", "why")))
        assert retrain.reason == "why"

    def test_response_roundtrip(self):
        response = ApiResponse(ok=True, payload={"score": 3.5})
        decoded = decode_response(encode_response(response))
        assert decoded == response

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            decode_request("{not json")
        with pytest.raises(ValidationError):
            decode_response("{not json")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            decode_request('{"method": "drop_tables"}')


class TestInProcessClient:
    def test_predict(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.predict(uid=1, item=5)
        assert response.ok
        assert response.payload["item"] == 5
        assert isinstance(response.payload["score"], float)

    def test_top_k_with_policy(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.top_k(uid=1, items=[1, 2, 3, 4], k=2, policy="linucb")
        assert response.ok
        assert len(response.payload["items"]) == 2

    def test_observe_then_health(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        assert client.observe(uid=1, item=5, label=4.0).ok
        health = client.health()
        assert health.ok
        assert health.payload["observations"] == 1

    def test_validation_observations_reach_the_pool(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        client.observe(uid=1, item=5, label=4.0, validation=True)
        assert client.health().payload["validation_pool_size"] == 1

    def test_errors_become_envelopes(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.predict(uid=1, item=5, model="ghost")
        assert not response.ok
        assert "ModelNotFound" in response.error

    def test_retrain_endpoint(self, deployed_velox, small_split):
        client = VeloxClient(deployed_velox)
        for r in small_split.stream[:30]:
            client.observe(uid=r.uid, item=r.item_id, label=r.rating)
        response = client.retrain()
        assert response.ok
        assert response.payload["new_version"] == 1


class TestNewEndpoints:
    def test_top_k_catalog_endpoint(self, deployed_velox):
        from repro.frontend import TopKCatalogApiRequest, VeloxClient

        client = VeloxClient(deployed_velox)
        response = client.top_k_catalog(uid=2, k=5)
        assert response.ok
        items = response.payload["items"]
        assert len(items) == 5
        scores = [entry["score"] for entry in items]
        assert scores == sorted(scores, reverse=True)
        # codec roundtrip of the new request type
        from repro.frontend import decode_request, encode_request

        original = TopKCatalogApiRequest(uid=2, k=5, model="songs")
        assert decode_request(encode_request(original)) == original

    def test_status_endpoint(self, deployed_velox):
        from repro.frontend import StatusApiRequest, VeloxClient
        from repro.frontend import decode_request, encode_request

        deployed_velox.observe(uid=1, x=2, y=4.0)
        client = VeloxClient(deployed_velox)
        response = client.status()
        assert response.ok
        assert response.payload["num_nodes"] == 2
        assert response.payload["models"][0]["name"] == "songs"
        assert "songs" in response.payload["report"]
        assert decode_request(encode_request(StatusApiRequest())) == StatusApiRequest()

    def test_status_over_socket(self, deployed_velox):
        from repro.frontend import StatusApiRequest

        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(
                server.host, server.port, prefer_binary=False
            ) as client:
                response = client.call(StatusApiRequest())
                assert response.ok
                assert response.payload["alive_nodes"] == 2


class TestTcpServer:
    def test_full_request_cycle_over_socket(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(
                server.host, server.port, prefer_binary=False
            ) as client:
                response = client.call(PredictApiRequest(uid=2, item=8))
                assert response.ok
                response = client.call(
                    TopKApiRequest(uid=2, items=(1, 2, 3), k=1)
                )
                assert response.ok and len(response.payload["items"]) == 1
                response = client.call(ObserveApiRequest(uid=2, item=8, label=4.5))
                assert response.ok

    def test_concurrent_clients(self, deployed_velox):
        import threading

        with VeloxServer(deployed_velox) as server:
            failures = []

            def worker(uid):
                try:
                    with PipelinedClient(
                        server.host, server.port, prefer_binary=False
                    ) as client:
                        for item in range(10):
                            response = client.call(PredictApiRequest(uid=uid, item=item))
                            assert response.ok
                except Exception as err:  # collected for the main thread
                    failures.append(err)

            threads = [threading.Thread(target=worker, args=(u,)) for u in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failures == []

    def test_server_survives_bad_request(self, deployed_velox):
        import socket

        with VeloxServer(deployed_velox) as server:
            sock = socket.create_connection((server.host, server.port), timeout=5)
            reader = sock.makefile("r")
            sock.sendall(b'{"method": "nonsense"}\n')
            line = reader.readline()
            response = decode_response(line)
            assert not response.ok
            # server still answers valid requests on the same connection
            sock.sendall((encode_request(PredictApiRequest(uid=1, item=2)) + "\n").encode())
            assert decode_response(reader.readline()).ok
            sock.close()

    def test_double_start_rejected(self, deployed_velox):
        server = VeloxServer(deployed_velox)
        server.start()
        try:
            with pytest.raises(ValidationError):
                server.start()
        finally:
            server.stop()
