"""Small shared helpers: canonical JSON, content digests, and simulated timestamps.

Everything that must be byte-stable across runs (trace files, reports,
cache keys, config digests) funnels through :func:`canonical_json` so the
serialization policy lives in exactly one place.
"""
from __future__ import annotations

import hashlib
import json
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from typing import Any

EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)


def canonical_json(obj: Any) -> str:
    """Serialize to compact JSON with sorted keys; the only JSON writer used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_digest(obj: Any) -> str:
    """Hex digest of the canonical JSON form, truncated to 16 digits for readability."""
    return text_digest(canonical_json(obj))


def text_digest(text: str) -> str:
    """``content_digest`` of an object, given its canonical JSON ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=4096)
def tick_timestamp(tick: int) -> str:
    """ISO-8601 UTC time of the ``tick``-th simulated step, in milliseconds with a Z suffix.

    Episodes run on simulated time, 250 ms per step from ``EPOCH``, so
    replays are byte-identical. Every episode counts its ticks from 0, so
    the cache (bounded) serves the same few strings to all of them.
    """
    dt = EPOCH + timedelta(milliseconds=250 * tick)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{dt.microsecond // 1000:03d}Z"
