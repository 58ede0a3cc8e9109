"""cogloop: a deterministic, fully traceable governed agent loop.

Five cooperating parts — proposer, validator, tool runtime, versioned
memory, and an explicit ruleset — run an atomic reasoning cycle until a
goal is satisfied, a completion is signaled, or the cycle budget runs out.
Every executed action is reconstructable from the trace alone, and the
package ships a bounded-context comparison system plus metrics for state
persistence, trace completeness, and error localization.
"""
from __future__ import annotations

from .baseline import ContextModel, run_baseline_episode
from .cognition import (
    FAULT_TYPES,
    CognitionInput,
    FaultConfig,
    FaultyProposer,
    GatherTemplate,
    PlannerPolicy,
    Proposal,
    ProposerFailure,
    ScriptedProposer,
    assemble_input,
)
from .control import (
    ControlDecision,
    DedupCache,
    TerminationReason,
    Verdict,
    check_termination,
    on_tool_failure,
    validate,
)
from .evidence import UNKNOWN, Comparison, Literal, MemoryRef
from .goals import Branch, Cancellation, GoalSpec
from .loop import (
    ConfigError,
    EpisodeConfig,
    EpisodeResult,
    EpisodeStatus,
    run_episode,
)
from .memory import (
    NOT_FOUND,
    EntryKind,
    MemoryEntry,
    MemoryQuery,
    MemorySnapshot,
    MemoryStore,
    StoreError,
)
from .regulation import CheckKind, Rule, RuleSet, default_ruleset, load_ruleset
from .runtime import (
    ErrorCode,
    Runtime,
    ToolCall,
    ToolResult,
    ToolSpec,
    WorldState,
    builtin_registry,
)
from .scenario import Scenario, generate_suite, load_scenario, load_suite
from .trace import (
    EpisodeTrace,
    GapReport,
    JustificationChain,
    Metric,
    MissingLabels,
    UnknownAction,
    aggregate_metrics,
    compute_metrics,
    iter_chains,
    reconstruct_chain,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Cancellation",
    "CheckKind",
    "CognitionInput",
    "Comparison",
    "ConfigError",
    "ContextModel",
    "ControlDecision",
    "DedupCache",
    "EntryKind",
    "EpisodeConfig",
    "EpisodeResult",
    "EpisodeStatus",
    "EpisodeTrace",
    "ErrorCode",
    "FAULT_TYPES",
    "FaultConfig",
    "FaultyProposer",
    "GapReport",
    "GatherTemplate",
    "GoalSpec",
    "JustificationChain",
    "Literal",
    "MemoryEntry",
    "MemoryQuery",
    "MemorySnapshot",
    "MemoryStore",
    "Metric",
    "MissingLabels",
    "MemoryRef",
    "NOT_FOUND",
    "PlannerPolicy",
    "Proposal",
    "ProposerFailure",
    "Rule",
    "RuleSet",
    "Runtime",
    "Scenario",
    "ScriptedProposer",
    "StoreError",
    "TerminationReason",
    "ToolCall",
    "ToolResult",
    "ToolSpec",
    "UNKNOWN",
    "UnknownAction",
    "Verdict",
    "WorldState",
    "aggregate_metrics",
    "assemble_input",
    "builtin_registry",
    "check_termination",
    "compute_metrics",
    "default_ruleset",
    "generate_suite",
    "iter_chains",
    "load_ruleset",
    "load_scenario",
    "load_suite",
    "on_tool_failure",
    "reconstruct_chain",
    "run_baseline_episode",
    "run_episode",
    "validate",
]
