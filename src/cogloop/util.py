"""Small shared helpers: canonical JSON, content digests, simulated timestamps, value tests,
and the configuration error every configuration object raises.

Everything that must be byte-stable across runs (trace files, reports,
cache keys, config digests) funnels through :func:`canonical_json` so the
serialization policy lives in exactly one place.
"""
from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from typing import Any

EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)


class ConfigError(Exception):
    """Episode or scenario configuration is invalid."""


class Sentinel:
    """A falsy marker distinct from every stored value; test for it with ``is``."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<{self.name}>"

    def __bool__(self) -> bool:
        return False


def is_int(value: Any) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any, finite: bool = False) -> bool:
    """A JSON number (booleans are not numbers); with ``finite``, one with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return not finite or math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj: Any) -> str:
    """Serialize to compact JSON with sorted keys; the only JSON writer used for hashing."""
    return _CANONICAL.encode(obj)


def content_digest(obj: Any) -> str:
    """Hex digest of the canonical JSON form, truncated to 16 digits for readability."""
    return text_digest(canonical_json(obj))


def text_digest(text: str) -> str:
    """``content_digest`` of an object, given its canonical JSON ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# Characters per `PrefixDigest` checkpoint: on long-episode inputs 4 to 8 KiB cost
# the same, 2 KiB 10% more, and 8 KiB adds least when a text shares no prefix.
DIGEST_CHUNK = 8192


class PrefixDigest:
    """``text_digest`` of each text in turn, resumed from the prefix it shares with the last.

    SHA-256 reads front to back, so its state after a prefix serves any text
    that starts with it. The whole chunks of the last text longer than a chunk
    are kept, each with the state after it; a shorter text is hashed plainly.
    """

    def __init__(self) -> None:
        self._chunks: list[str] = []
        self._states: list[Any] = []  # the state after each chunk, never updated

    def text_digest(self, text: str) -> str:
        if len(text) <= DIGEST_CHUNK:
            return text_digest(text)
        chunks, states = self._chunks, self._states
        kept = pos = 0
        while kept < len(chunks) and text.startswith(chunks[kept], pos):
            kept += 1
            pos += DIGEST_CHUNK
        del chunks[kept:], states[kept:]
        state = states[-1].copy() if states else hashlib.sha256()
        while pos + DIGEST_CHUNK <= len(text):
            chunk = text[pos : pos + DIGEST_CHUNK]
            state.update(chunk.encode("utf-8"))
            chunks.append(chunk)
            states.append(state.copy())
            pos += DIGEST_CHUNK
        state.update(text[pos:].encode("utf-8"))
        return state.hexdigest()[:16]


@lru_cache(maxsize=4096)
def tick_timestamp(tick: int) -> str:
    """ISO-8601 UTC time of the ``tick``-th simulated step, in milliseconds with a Z suffix.

    Episodes run on simulated time, 250 ms per step from ``EPOCH``, so
    replays are byte-identical. Every episode counts its ticks from 0, so
    the cache (bounded) serves the same few strings to all of them.
    """
    dt = EPOCH + timedelta(milliseconds=250 * tick)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{dt.microsecond // 1000:03d}Z"
