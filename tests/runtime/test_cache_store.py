"""``ResultCache.store`` writes exactly the canonical JSON of its wrapper.

The store encodes with ``json.dumps`` (the C encoder) and writes the text in
one call; these tests pin the bytes on disk to that encoding and check that
a raw non-finite float still fails the store without leaving any file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime import cache as cache_module
from repro.runtime.cache import ResultCache, payload_digest


def _payload() -> dict:
    return {
        "dataset_name": "rmat16",
        "cycles": 1234.5,
        "outputs": {"level": [0, 1, 2, 3]},
        "per_router_flits": np.arange(4).tolist(),
        "verified": True,
    }


def test_stored_bytes_equal_canonical_dumps(tmp_path):
    cache = ResultCache(tmp_path)
    key = "a" * 64
    payload = _payload()
    path = cache.store(key, payload)
    wrapper = {
        "key": key,
        "sha256": payload_digest(payload),
        "payload": payload,
        "dataset": "rmat16",
    }
    expected = json.dumps(wrapper, sort_keys=True, allow_nan=False)
    assert path.read_bytes() == expected.encode("utf-8")
    assert cache.load(key) == payload


def test_store_encoder_rejects_raw_nonfinite(tmp_path, monkeypatch):
    # Bypass the digest (which rejects non-finite values first) so the
    # store's own encoder sees the raw NaN.
    monkeypatch.setattr(cache_module, "payload_digest", lambda payload: "0" * 64)
    cache = ResultCache(tmp_path)
    with pytest.raises(ValueError):
        cache.store("b" * 64, {"cycles": float("nan")})
    # Neither the entry nor a temp file is left behind.
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
