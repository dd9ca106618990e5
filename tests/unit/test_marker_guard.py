"""Guard: the retired legacy surfaces stay out of ``src/``.

Extensions are Id-free: the §3.1 ``Id(n)`` identity device is a
provenance table beside the tree, reached through engine anchor sets.
No production code may spell the marker label, so any occurrence of the
*quoted* literal ``"Id("`` / ``'Id('`` in ``src/`` means marker
construction or label sniffing crept back in.  The match is on the
quoted form on purpose: the bare text ``Id(`` also appears in innocent
prose ("the document node Id(s)"), while a quoted occurrence is
necessarily a string or f-string building or comparing marker labels.

The names of the deleted compatibility shims are banned too.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

RETIRED_NAMES = re.compile(
    r"\b(ProbEvaluator|_?marker_label|parse_marker_label|anchor_via_marker"
    r"|from_markers|d_goal|a_goal|_row_weights|_scan_rows|_account_row"
    r"|_anchored_rows)\b"
)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), path.read_text(encoding="utf-8")


def test_no_marker_literal_in_src():
    offenders = [
        str(relative)
        for relative, text in _sources()
        if '"Id(' in text or "'Id(" in text
    ]
    assert not offenders, f"quoted Id( marker literal found in: {offenders}"


def test_no_retired_names_in_src():
    offenders = [
        f"{relative}: {match.group(0)}"
        for relative, text in _sources()
        for match in RETIRED_NAMES.finditer(text)
    ]
    assert not offenders, f"retired legacy names found in: {offenders}"
