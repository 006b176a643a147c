"""``repro.lint``: static analysis for the reproduction's own contracts.

The test suite can only spot-check the invariants the reproduction's
scientific validity rests on -- seed-threaded randomness, determinism,
frozen world objects.  This package enforces them *statically*, on every
commit:

- **RNG discipline** (``RNG001``-``RNG004``): all randomness flows
  through explicitly threaded :class:`numpy.random.Generator` objects;
  no legacy ``np.random.*`` global state, no stdlib :mod:`random`, no
  unseeded ``default_rng()`` outside tests, no draws from module-global
  generators.
- **Determinism hazards** (``DET001``-``DET002``): no wall-clock or
  OS-entropy reads and no unordered ``set`` iteration inside the
  measurement core (``repro.measure``, ``repro.core``).
- **Frozen-world safety** (``FRZ001``): no attribute assignment on
  :class:`~repro.core.world.World` / ``PlannedPath`` objects outside
  their constructors and builders.

Run it as ``python -m repro.lint [paths...]``; see ``docs/LINTING.md``
for the rule catalogue, suppression syntax, and how to add a rule.
"""

from __future__ import annotations

from repro.lint.engine import (
    LintContext,
    LintResult,
    ProjectReporter,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    lint_source,
    lint_sources,
    register_rule,
    select_rules,
)
from repro.lint.reporting import (
    render_catalog,
    render_json,
    render_sarif,
    render_text,
)

# Importing the rules package registers the built-in ruleset.
import repro.lint.rules  # noqa: F401  # repro-lint: keep - registration side effect

__all__ = [
    "LintContext",
    "LintResult",
    "ProjectReporter",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register_rule",
    "render_catalog",
    "render_json",
    "render_sarif",
    "render_text",
    "select_rules",
]
