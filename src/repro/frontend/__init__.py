"""Front-end interface: the RESTful surface of the paper's prototype.

The prototype "exposes a RESTful client interface"; this subpackage
provides the equivalent for the reproduction:

* :mod:`repro.frontend.api` — typed request/response objects and a JSON
  wire codec (one JSON object per line),
* :mod:`repro.frontend.wire` — the length-prefixed binary framed codec
  (struct-packed frames, raw-bytes ndarray payloads, correlation ids)
  negotiated on connect with JSON-lines as the universal fallback,
* :class:`VeloxClient` — an in-process client binding the API objects
  to a deployed :class:`~repro.core.velox.Velox` instance,
* :class:`VeloxServer` — the TCP server: one selector thread serving
  both negotiated protocols on every connection,
* :class:`PipelinedClient` / :class:`ConnectionPool` — the socket
  client (many in-flight requests per socket, binary by default,
  JSON-lines with ``prefer_binary=False``) and a small round-robin
  pool of them,
* :class:`ResilientClient` — the policy stack on top of pooled
  connections: retries under a token budget, hedged reads, per-endpoint
  circuit breaking, and the degradation ladder.
"""

from repro.frontend.api import (
    PredictApiRequest,
    TopKApiRequest,
    ObserveApiRequest,
    HealthApiRequest,
    RetrainApiRequest,
    TopKCatalogApiRequest,
    StatusApiRequest,
    AnalyticsApiRequest,
    ApiResponse,
    encode_request,
    decode_request,
    encode_response,
    decode_response,
)
from repro.frontend.client import VeloxClient
from repro.frontend.eventloop import VeloxServer
from repro.frontend.pipelined import ConnectionPool, PipelinedClient
from repro.frontend.resilient import (
    CircuitBreaker,
    HedgePolicy,
    ResilientClient,
    RetryBudget,
    RetryPolicy,
)

__all__ = [
    "PredictApiRequest",
    "TopKApiRequest",
    "ObserveApiRequest",
    "HealthApiRequest",
    "RetrainApiRequest",
    "TopKCatalogApiRequest",
    "StatusApiRequest",
    "AnalyticsApiRequest",
    "ApiResponse",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "VeloxClient",
    "VeloxServer",
    "PipelinedClient",
    "ConnectionPool",
    "ResilientClient",
    "CircuitBreaker",
    "HedgePolicy",
    "RetryBudget",
    "RetryPolicy",
]
