"""`frwt verify all` against the benchmark's reference records.

perfbench/reference.json holds the records of one verify pass, and the
benchmark compares their name, pass, lhs, rhs and ratio at 1e-9
relative.  The same comparison runs here in process, so a change that
moves a record fails in the test suite, not first in the benchmark.
The file is only read.
"""

from __future__ import annotations

import json
from pathlib import Path

from frwt.cli import main
from frwt.verify import SUITE_ORDER, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
RECORD_RTOL = 1e-9
COMPARED = ("name", "pass", "lhs", "rhs", "ratio")
RECORD_FIELDS = ("name", "lhs", "rhs", "ratio", "tolerance", "pass")


def _close(got, want) -> bool:
    if isinstance(got, (bool, str)) or isinstance(want, (bool, str)):
        return got == want
    return got == want or abs(got - want) <= RECORD_RTOL * max(abs(got), abs(want))


def test_verify_all_matches_the_reference_records(capsys):
    per_suite = json.loads(REFERENCE.read_text())["verify"]
    want = [rec for suite in SUITE_ORDER for rec in per_suite[suite]]
    assert main(["verify", "all"]) == 0
    got = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert len(want) == 29
    assert [rec["name"] for rec in got] == [rec["name"] for rec in want]
    moved = [
        f"{w['name']}.{key}: {g[key]!r} != {w[key]!r}"
        for g, w in zip(got, want)
        for key in COMPARED
        if not _close(g[key], w[key])
    ]
    assert not moved, "\n".join(moved)


def test_no_detail_repeats_a_record_field():
    # to_json drops such a detail, so passing one only hides a value
    repeated = [
        f"{rep.name}.{key}" for rep in run_suite("all") for key in rep.details if key in RECORD_FIELDS
    ]
    assert not repeated, ", ".join(repeated)
