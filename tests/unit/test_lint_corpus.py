"""Golden-snippet corpus: every rule has a positive and a near-miss.

Each ``tests/unit/lint_corpus/*.corpus`` file declares the rules that
must fire (``# expect:``) and the rules that must stay silent
(``# absent:``) when its embedded source files are linted together as
one project; a source line that ends in ``# fires: RULE`` must carry a
finding of that rule.  The corpus is the executable specification of each
rule's boundary -- in particular, the flow-aware families' positives
are cross-function violations with ``# absent:`` lines proving the
old syntactic rules cannot see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.lint import all_rules, lint_sources

CORPUS_DIR = Path(__file__).parent / "lint_corpus"


@dataclass
class CorpusCase:
    name: str
    expect: List[str] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    strict: bool = False
    files: List[Tuple[str, str]] = field(default_factory=list)
    #: (file, line, rule) of each ``# fires:`` marker.
    sites: List[Tuple[str, int, str]] = field(default_factory=list)


def _split_rules(raw: str) -> List[str]:
    return [token.strip().upper() for token in raw.split(",") if token.strip()]


def load_case(path: Path) -> CorpusCase:
    case = CorpusCase(name=path.stem)
    current_name = None
    current_lines: List[str] = []

    def flush() -> None:
        if current_name is not None:
            case.files.append((current_name, "\n".join(current_lines) + "\n"))
            for number, text in enumerate(current_lines, start=1):
                if "# fires:" in text:
                    for rule_id in _split_rules(text.split("# fires:", 1)[1]):
                        case.sites.append((current_name, number, rule_id))

    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if current_name is None or stripped.startswith("# file:"):
            if stripped.startswith("# expect:"):
                case.expect = _split_rules(stripped[len("# expect:") :])
                continue
            if stripped.startswith("# absent:"):
                case.absent = _split_rules(stripped[len("# absent:") :])
                continue
            if stripped == "# strict":
                case.strict = True
                continue
            if stripped.startswith("# file:"):
                flush()
                current_name = stripped[len("# file:") :].strip()
                current_lines = []
                continue
        if current_name is not None:
            current_lines.append(line)
    flush()
    return case


def corpus_cases() -> List[Path]:
    cases = sorted(CORPUS_DIR.glob("*.corpus"))
    assert cases, "lint corpus is empty"
    return cases


class TestCorpusCompleteness:
    def test_every_rule_has_positive_and_negative(self):
        """Each registered rule appears as <id>_pos / <id>_neg pair."""
        stems = {path.stem for path in corpus_cases()}
        for rule in all_rules():
            rule_id = rule.rule_id.lower()
            assert f"{rule_id}_pos" in stems, f"no positive for {rule.rule_id}"
            assert f"{rule_id}_neg" in stems, f"no negative for {rule.rule_id}"

    def test_positives_declare_expectations(self):
        for path in corpus_cases():
            case = load_case(path)
            assert case.files, f"{case.name}: no source sections"
            if path.stem.endswith("_pos"):
                assert case.expect, f"{case.name}: positive without # expect"
            else:
                assert case.absent, f"{case.name}: negative without # absent"


@pytest.mark.parametrize("path", corpus_cases(), ids=lambda p: p.stem)
def test_corpus_case(path: Path):
    case = load_case(path)
    result = lint_sources(case.files, strict_suppressions=case.strict)
    found = {violation.rule_id for violation in result.violations}
    for rule_id in case.expect:
        assert rule_id in found, (
            f"{case.name}: expected {rule_id}, found {sorted(found)}:\n"
            + "\n".join(str(v) for v in result.violations)
        )
    for rule_id in case.absent:
        assert rule_id not in found, (
            f"{case.name}: {rule_id} must not fire, found {sorted(found)}:\n"
            + "\n".join(str(v) for v in result.violations)
        )
    if "PARSE" not in case.expect:
        assert "PARSE" not in found, f"{case.name}: corpus source failed to parse"
    flagged = {(v.path, v.line, v.rule_id) for v in result.violations}
    for path_name, line, rule_id in case.sites:
        assert (path_name, line, rule_id) in flagged, (
            f"{case.name}: expected {rule_id} at {path_name}:{line}:\n"
            + "\n".join(str(v) for v in result.violations)
        )
