"""Simulated tool runtime: registry, guarded execution, and invocation logging.

Execution never raises for tool problems — schema violations, unknown tools,
scheduled transient faults, and domain errors all come back as error-valued
results. A successful execution returns the normalized payload plus the
memory writes it wants staged; a failed one stages nothing, so a failing
handler can never leave partial state behind.

The world is a deterministic fixture: weather readings, an outbox, a booking
ledger, and a fault schedule keyed by (tool, invocation ordinal). Confirmation
tokens, message ids, and pseudo-latencies all derive from the world seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Any, Callable

from .memory import EntryKind
from .util import canonical_json, is_int, is_number

PLACEHOLDER_VALUES = ("", "TBD")


class ErrorCode(str, Enum):
    SCHEMA_VIOLATION = "SchemaViolation"
    TOOL_UNAVAILABLE = "ToolUnavailable"
    TRANSIENT_FAILURE = "TransientFailure"
    DOMAIN_ERROR = "DomainError"


class ToolFailure(Exception):
    """Raised inside handlers; converted to an error-valued result by execute."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class ToolCall:
    """One proposed invocation: tool name plus named arguments.

    ``canonical_args`` is ``canon_args(arguments)``, computed once when the
    call is built; ``call_id()`` and ``describe()`` are each computed once per
    call, when first asked for. The arguments are not to be mutated afterwards;
    the dict forms hand out copies, since a goal's calls serve every episode.
    """

    name: str
    arguments: dict[str, Any]
    canonical_args: dict[str, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical_args", canon_args(self.arguments))

    def call_id(self) -> str:
        return self._call_id

    @cached_property
    def _call_id(self) -> str:
        return f"{self.name}:{canonical_json(self.canonical_args)}"

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "arguments": dict(self.arguments)}

    def canonical_dict(self) -> dict[str, Any]:
        """The call as decisions record it: name and canonical arguments."""
        return {"name": self.name, "arguments": dict(self.canonical_args)}

    def describe(self) -> str:
        return self._description

    @cached_property
    def _description(self) -> str:
        args = self.canonical_args
        return f"{self.name}({', '.join(f'{k}={v}' for k, v in args.items())})"


def canon_args(arguments: dict[str, Any]) -> dict[str, Any]:
    """Canonical argument form: keys sorted recursively, strings trimmed."""
    return {k: _canon(arguments[k]) for k in sorted(arguments)}


def same_args(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """True if two argument dicts have the same canonical form."""
    # Canonicalization is idempotent, so equal raw args need no canonical pass.
    return a == b or canon_args(a) == canon_args(b)


def _canon(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _canon(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_canon(v) for v in value]
    if isinstance(value, str):
        return value.strip()
    return value


@dataclass(frozen=True)
class ArgField:
    """One declared argument or output field with a semantic type."""

    name: str
    type: str  # "string" | "number" | "boolean"
    required: bool = True


@dataclass(frozen=True)
class StagedWrite:
    """A memory write a successful execution wants committed."""

    key: str
    kind: EntryKind
    payload: dict[str, Any]


@dataclass(frozen=True)
class ToolSpec:
    """Declared surface of one tool: schema, handler, and memory behavior."""

    name: str
    args: tuple[ArgField, ...]
    output: tuple[ArgField, ...]
    handler: Callable[[dict[str, Any], "WorldState"], dict[str, Any]]
    effect: bool = False  # True if the tool changes the world outside memory
    observes: Callable[[dict[str, Any]], str] | None = None  # obs key for sensors
    confirmation_field: str | None = None


def _check_type(value: Any, type_name: str) -> bool:
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "number":
        return is_number(value)
    if type_name == "boolean":
        return isinstance(value, bool)
    return False


def argument_problems(spec: ToolSpec, arguments: dict[str, Any]) -> list[str]:
    """Schema problems for a call: missing/placeholder/mistyped/unknown args.

    Shared with the validation layer so 'argument completeness' means the same
    thing before approval and at execution time.
    """
    problems: list[str] = []
    declared = {f.name: f for f in spec.args}
    for fld in spec.args:
        if fld.name not in arguments:
            if fld.required:
                problems.append(f"missing required argument '{fld.name}'")
            continue
        value = arguments[fld.name]
        if isinstance(value, str) and value.strip() in PLACEHOLDER_VALUES:
            problems.append(f"argument '{fld.name}' is a placeholder ({value!r})")
        elif value is None:
            problems.append(f"argument '{fld.name}' is a placeholder (None)")
        elif not _check_type(value, fld.type):
            problems.append(f"argument '{fld.name}' must be {fld.type}, got {value!r}")
    for name in arguments:
        if name not in declared:
            problems.append(f"unknown argument '{name}'")
    return problems


@dataclass
class WorldState:
    """Deterministic environment fixture shared by all tools in an episode."""

    weather: dict[tuple[str, str], dict[str, Any]] = field(default_factory=dict)
    fault_schedule: dict[tuple[str, int], ErrorCode] = field(default_factory=dict)
    seed: int = 0
    outbox: list[dict[str, Any]] = field(default_factory=list)
    bookings: list[dict[str, Any]] = field(default_factory=list)
    charts: list[dict[str, Any]] = field(default_factory=list)
    attempt_counts: dict[str, int] = field(default_factory=dict)  # per-tool ordinals
    handler_calls: dict[str, int] = field(default_factory=dict)  # real handler runs

    @classmethod
    def from_dict(cls, config: dict[str, Any]) -> "WorldState":
        weather = {}
        for row in config.get("weather", []):
            weather[(row["location"], row["date"])] = {
                "temp_f": float(row["temp_f"]),
                "precipitation": bool(row["precipitation"]),
            }
        schedule = {}
        for row in config.get("fault_schedule", []):
            schedule[(row["tool"], int(row["ordinal"]))] = ErrorCode(row["code"])
        return cls(weather=weather, fault_schedule=schedule, seed=int(config.get("seed", 0)))

    def next_ordinal(self, tool: str) -> int:
        self.attempt_counts[tool] = self.attempt_counts.get(tool, 0) + 1
        return self.attempt_counts[tool]


_TOKEN_SPACE = 26**3 * 10**3
_TOKEN_STRIDE = 1_000_003  # odd, coprime to the token space


def confirmation_token(seed: int, ordinal: int) -> str:
    """Deterministic 3-letter + 3-digit booking reference for the n-th booking."""
    value = (seed * _TOKEN_STRIDE + ordinal) % _TOKEN_SPACE
    letters_value, digits_value = divmod(value, 1000)
    letters = ""
    for _ in range(3):
        letters_value, remainder = divmod(letters_value, 26)
        letters = chr(ord("A") + remainder) + letters
    return letters + f"{digits_value:03d}"


# ------------------------------------------------------------------ handlers
def _get_weather(args: dict[str, Any], world: WorldState) -> dict[str, Any]:
    key = (args["location"], args["date"])
    if key not in world.weather:
        raise ToolFailure(
            ErrorCode.DOMAIN_ERROR, f"no forecast for {args['location']} on {args['date']}"
        )
    reading = world.weather[key]
    return {
        "location": args["location"],
        "temp_f": float(reading["temp_f"]),
        "precipitation": bool(reading["precipitation"]),
    }


def _send_email(args: dict[str, Any], world: WorldState) -> dict[str, Any]:
    world.outbox.append(
        {"to": args["to"], "subject": args["subject"], "body": args.get("body", "")}
    )
    return {"message_id": f"MSG-{len(world.outbox):04d}"}


def _book_flight(args: dict[str, Any], world: WorldState) -> dict[str, Any]:
    token = confirmation_token(world.seed, len(world.bookings) + 1)
    world.bookings.append({"location": args["location"], "confirmation": token})
    return {"confirmation": token}


def _make_chart(args: dict[str, Any], world: WorldState) -> dict[str, Any]:
    world.charts.append({"location": args["location"]})
    return {"artifact_id": f"CHART-{len(world.charts):04d}"}


GET_WEATHER = ToolSpec(
    name="get_weather",
    args=(ArgField("location", "string"), ArgField("date", "string")),
    output=(
        ArgField("location", "string"),
        ArgField("temp_f", "number"),
        ArgField("precipitation", "boolean"),
    ),
    handler=_get_weather,
    observes=lambda args: f"obs.{args['location']}",
)

SEND_EMAIL = ToolSpec(
    name="send_email",
    args=(
        ArgField("to", "string"),
        ArgField("subject", "string"),
        ArgField("body", "string", required=False),
    ),
    output=(ArgField("message_id", "string"),),
    handler=_send_email,
    effect=True,
    confirmation_field="message_id",
)

BOOK_FLIGHT = ToolSpec(
    name="book_flight",
    args=(ArgField("location", "string"),),
    output=(ArgField("confirmation", "string"),),
    handler=_book_flight,
    effect=True,
    confirmation_field="confirmation",
)

MAKE_CHART = ToolSpec(
    name="make_chart",
    args=(ArgField("location", "string"),),
    output=(ArgField("artifact_id", "string"),),
    handler=_make_chart,
    effect=True,
    confirmation_field="artifact_id",
)

BUILTIN_SPECS = (GET_WEATHER, SEND_EMAIL, BOOK_FLIGHT)
EXTRA_SPECS = {MAKE_CHART.name: MAKE_CHART}


def builtin_registry(extra_tools: list[str] | None = None) -> dict[str, ToolSpec]:
    """Tool name -> spec: the built-in tools plus the named optional ones."""
    registry = {spec.name: spec for spec in BUILTIN_SPECS}
    registry.update((name, EXTRA_SPECS[name]) for name in extra_tools or [])
    return registry


@dataclass(frozen=True)
class ToolResult:
    """Outcome of one execute call; errors are values, never exceptions."""

    tool: str
    args: dict[str, Any]
    ok: bool
    payload: dict[str, Any] | None
    error_code: ErrorCode | None
    error_message: str | None
    latency_ms: float
    idempotency_hit: bool

    def outcome_dict(self) -> dict[str, Any]:
        if self.ok:
            return {"ok": True, "payload": self.payload}
        return {"ok": False, "code": self.error_code.value, "message": self.error_message}


@lru_cache(maxsize=4096)
def simulated_latency(seed: int, ordinal: int, cached: bool) -> float:
    """Pseudo-latency in ms of the ``ordinal``-th invocation in a world seeded ``seed``.

    Every episode of a scenario shares its world seed, so the same few keys
    recur across a sweep; the cache is bounded.
    """
    rng = random.Random(f"latency:{seed}:{ordinal}")
    return round(rng.uniform(0.1, 0.9) if cached else rng.uniform(2.0, 48.0), 1)


class Runtime:
    """Executes calls against the world with logging and result caching.

    A repeated call with identical canonical arguments that previously
    succeeded returns the cached payload without re-invoking the handler (and
    stages no new writes); every execute call, cached or not, appends one
    invocation log record. ``results`` is the episode's one record of successful
    calls: control's R-DEDUP asks ``succeeded`` too.
    """

    def __init__(self, registry: dict[str, ToolSpec], world: WorldState):
        self.registry = registry
        self.world = world
        self.invocation_log: list[dict[str, Any]] = []
        self.results: dict[str, dict[str, Any]] = {}  # call id -> its first success's payload

    def _finish(
        self,
        cycle: int,
        call: ToolCall,
        payload: dict[str, Any] | None = None,
        error: tuple[ErrorCode, str] | None = None,
        hit: bool = False,
        staged: list[StagedWrite] | None = None,
    ) -> tuple[ToolResult, list[StagedWrite]]:
        """Log ``call``'s outcome (``payload`` or ``error``) and return it with ``staged``."""
        code, message = error or (None, None)
        result = ToolResult(
            tool=call.name,
            args=dict(call.canonical_args),  # a copy: every episode shares a goal's calls
            ok=code is None,
            payload=payload,
            error_code=code,
            error_message=message,
            latency_ms=simulated_latency(self.world.seed, len(self.invocation_log) + 1, hit),
            idempotency_hit=hit,
        )
        self.invocation_log.append(
            {
                "cycle": cycle,
                "tool": result.tool,
                "args": result.args,
                "outcome": result.outcome_dict(),
                "latency_ms": result.latency_ms,
                "idempotency_hit": hit,
            }
        )
        return result, staged or []

    def succeeded(self, call: ToolCall) -> dict[str, Any] | None:
        """The payload of ``call``'s first successful run here, or None if none succeeded."""
        try:  # a call id enters `results` only once its call has passed execute's checks
            return self.results.get(call.call_id())
        except TypeError:  # an argument JSON cannot hold, which those checks reject
            return None

    def execute(self, call: ToolCall, cycle: int = 0) -> tuple[ToolResult, list[StagedWrite]]:
        """Validate, invoke, normalize, and describe the memory writes to stage."""
        cached = self.succeeded(call)
        if cached is not None:
            return self._finish(cycle, call, dict(cached), hit=True)
        spec = self.registry.get(call.name)
        args = call.canonical_args
        if spec is None:
            error = (ErrorCode.TOOL_UNAVAILABLE, f"no tool named {call.name!r}")
            return self._finish(cycle, call, error=error)
        problems = argument_problems(spec, args)
        if problems:
            return self._finish(cycle, call, error=(ErrorCode.SCHEMA_VIOLATION, "; ".join(problems)))

        ordinal = self.world.next_ordinal(call.name)
        scheduled = self.world.fault_schedule.get((call.name, ordinal))
        if scheduled is not None:
            error = (scheduled, f"scheduled fault at ordinal {ordinal}")
            return self._finish(cycle, call, error=error)

        self.world.handler_calls[call.name] = self.world.handler_calls.get(call.name, 0) + 1
        try:
            payload = spec.handler(args, self.world)
        except ToolFailure as failure:
            return self._finish(cycle, call, error=(failure.code, failure.message))

        normalized = self._normalize_output(spec, payload)
        if normalized is None:
            error = (ErrorCode.SCHEMA_VIOLATION, f"tool output does not match schema: {payload!r}")
            return self._finish(cycle, call, error=error)
        self.results[call.call_id()] = dict(normalized)
        return self._finish(cycle, call, normalized, staged=staged_writes(spec, args, normalized))

    @staticmethod
    def _normalize_output(spec: ToolSpec, payload: dict[str, Any]) -> dict[str, Any] | None:
        if not isinstance(payload, dict):
            return None
        normalized = dict(payload)
        for fld in spec.output:
            if fld.name not in normalized:
                return None
            value = normalized[fld.name]
            if fld.type == "number" and is_int(value):
                value = float(value)
                normalized[fld.name] = value
            if not _check_type(value, fld.type):
                return None
        return normalized


def staged_writes(
    spec: ToolSpec, args: dict[str, Any], payload: dict[str, Any]
) -> list[StagedWrite]:
    """The memory writes of a successful ``spec`` call: its observation and action record."""
    staged: list[StagedWrite] = []
    if spec.observes is not None:
        staged.append(StagedWrite(spec.observes(args), EntryKind.OBSERVATION, dict(payload)))
    if spec.effect:
        record: dict[str, Any] = {"name": spec.name, "args": args, "status": "executed"}
        if spec.confirmation_field and spec.confirmation_field in payload:
            record["confirmation"] = payload[spec.confirmation_field]
        staged.append(StagedWrite(f"act.{spec.name}", EntryKind.ACTION, record))
    return staged
