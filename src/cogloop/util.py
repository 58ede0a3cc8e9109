"""Small shared helpers: canonical JSON, content digests, and the simulated clock.

Everything that must be byte-stable across runs (trace files, reports,
cache keys, config digests) funnels through :func:`canonical_json` so the
serialization policy lives in exactly one place.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Any

EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)


def canonical_json(obj: Any) -> str:
    """Serialize to compact JSON with sorted keys; the only JSON writer used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_digest(obj: Any) -> str:
    """Hex digest of the canonical JSON form, truncated to 16 digits for readability."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def iso_millis(dt: datetime) -> str:
    """ISO-8601 UTC timestamp with millisecond precision and a Z suffix."""
    dt = dt.astimezone(timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{dt.microsecond // 1000:03d}Z"


@dataclass
class SimulatedClock:
    """Deterministic clock that advances a fixed step on every read.

    Episodes always run on a simulated clock so replays are byte-identical.
    """

    start: datetime = EPOCH
    step_ms: int = 250
    _ticks: int = 0

    def now(self) -> datetime:
        current = self.start + timedelta(milliseconds=self.step_ms * self._ticks)
        self._ticks += 1
        return current
