"""Output checks against the reference model the server exports.

The server writes every user's weight row and every item's feature row
after set-up (``export``); a prediction for ``(uid, item)`` must equal
their dot product. Only users with no write in the run are compared,
since an observe moves its user's weights online.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for scores (the server sums in another order).
RTOL = 1e-9


class Reference:
    """Exported user weights and item features of one model version."""

    def __init__(self, path):
        with np.load(path) as data:
            uids = data["uids"]
            weights = data["weights"]
            self.features = data["features"]
            self.version = int(data["version"])
        self.weights = np.zeros((int(uids.max()) + 1, weights.shape[1]))
        self.weights[uids] = weights

    def scores(self, users, items) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return np.einsum("ij,ij->i", self.weights[users], self.features[items])

    def candidate_scores(self, uid: int, candidates) -> np.ndarray:
        return self.features[np.asarray(candidates)] @ self.weights[uid]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=RTOL)


def predict_ok(ref: Reference, uid: int, item: int, payload: dict) -> bool:
    """The answer names the item and scores it as the reference does."""
    if payload.get("item") != item:
        return False
    return _close(float(payload["score"]), float(ref.scores([uid], [item])[0]))


def topk_ok(ref: Reference, uid: int, candidates, k: int, payload: dict) -> bool:
    """The answer is the true top ``k`` of the candidates, best first.

    Exact score ties could order either way, so the order is checked on
    scores: each returned score is the reference score of its item, the
    scores never rise, and the last one is no lower than the best
    candidate left out.
    """
    got = payload.get("items", [])
    if len(got) != k:
        return False
    scores = ref.candidate_scores(uid, candidates)
    by_item = dict(zip((int(c) for c in candidates), scores.tolist()))
    items = [entry["item"] for entry in got]
    if len(set(items)) != k or any(item not in by_item for item in items):
        return False
    returned = [float(entry["score"]) for entry in got]
    if not all(_close(s, by_item[i]) for s, i in zip(returned, items)):
        return False
    if any(later > earlier + RTOL for earlier, later in zip(returned, returned[1:])):
        return False
    left_out = [s for item, s in by_item.items() if item not in set(items)]
    return not left_out or returned[-1] >= max(left_out) - RTOL


def observe_ok(payload: dict) -> bool:
    """The write was applied and set off no retrain (the server runs
    without automatic retraining)."""
    loss = payload.get("loss")
    return (
        isinstance(loss, float) and math.isfinite(loss)
        and payload.get("retrained") is False
    )


def retrain_ok(payload: dict, old_version: int, log_length: int) -> bool:
    """One version up, trained on the whole observation log."""
    return (
        payload.get("new_version") == old_version + 1
        and payload.get("observations_used") == log_length
    )
