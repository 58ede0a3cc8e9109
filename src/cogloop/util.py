"""Small shared helpers: canonical JSON, content digests, simulated timestamps, value tests,
fields computed on first read, and the configuration error every configuration object raises,
with the checks of a configuration document's shape.

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
from typing import Any, Callable

EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)


class ConfigError(Exception):
    """Episode or scenario configuration is invalid."""


def expect_type(value: Any, types: type | tuple[type, ...], path: str, label: str) -> Any:
    """``value``, when it is a ``types``; otherwise a ``ConfigError`` names ``path``."""
    if not isinstance(value, types):
        raise ConfigError(f"{path}: expected {label}, got {type(value).__name__}")
    return value


def expect_object(value: Any, path: str, fields: set[str]) -> None:
    """Raise a ``ConfigError`` naming ``path`` unless ``value`` is an object with no field
    outside ``fields``."""
    unknown = sorted(set(expect_type(value, dict, path, "object")) - fields)
    if unknown:
        raise ConfigError(f"{path}: unknown fields {unknown}")


class Sentinel:
    """A falsy marker distinct from every stored value; test for it with ``is``."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<{self.name}>"

    def __bool__(self) -> bool:
        return False


class Deferred:
    """A dataclass field set as a str or a thunk returning one, which the first read calls
    once. It stores into ``_<name>`` through ``object.__setattr__``: writing ``__dict__``
    instead would give each instance a dict of its own on CPython 3.11."""

    def __init__(self, name: str):
        self.slot = f"_{name}"

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = getattr(obj, self.slot)
        if type(value) is not str:
            value = value()
            object.__setattr__(obj, self.slot, value)
        return value

    def __set__(self, obj: Any, value: str | Callable[[], str]) -> None:
        object.__setattr__(obj, self.slot, value)


def deferred(name: str) -> Callable[[type], type]:
    """Class decorator over ``@dataclass``: its field ``name`` becomes a `Deferred`."""
    def install(cls: type) -> type:
        setattr(cls, name, Deferred(name))
        return cls
    return install


def stored(obj: Any, name: str) -> str | Callable[[], str]:
    """``obj``'s `Deferred` field ``name`` as set: a str, or a thunk no read has called."""
    return getattr(obj, f"_{name}")


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


# Without the cycle check: every value written holds no cycle (scenarios reject them).
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
)


def canonical_json(obj: Any) -> str:
    """Serialize to compact JSON with sorted keys; the only JSON writer used for hashing."""
    return _CANONICAL.encode(obj)


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
