"""cogloop: a deterministic, fully traceable governed agent loop.

Five cooperating parts — proposer, validator, tool runtime, versioned
memory, and an explicit ruleset — run an atomic reasoning cycle until a
goal is satisfied, a completion is signaled, or the cycle budget runs out.
Every executed action is reconstructable from the trace alone, and the
package ships a bounded-context comparison system plus metrics for state
persistence, trace completeness, and error localization.
"""

__version__ = "0.1.0"
