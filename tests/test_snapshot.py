"""The recorded behaviour snapshot: every case in
tests/fixtures/snapshot.jsonl, drawn again by tests/snapshot.py, gives
its record back, answers, reports and witnesses alike.

A change that means to change an output records the file again (see
tests/snapshot.py) and names every changed record.
"""

import json

import pytest

from snapshot import FAMILIES, SNAPSHOT, exact_checks, line, record


def test_every_recorded_case_gives_its_record_back():
    records = [json.loads(text) for text in SNAPSHOT.read_text().splitlines()]
    assert {r["family"] for r in records} == set(FAMILIES)
    misses = dict.fromkeys(FAMILIES, 0)
    for expected in records:
        family = expected["family"]
        with exact_checks() as counts:
            actual = json.loads(line(record(family, expected["seed"])))
        misses[family] += counts["misses"]
        if actual != expected:
            changed = sorted(k for k in expected.keys() | actual.keys()
                             if expected.get(k) != actual.get(k))
            pytest.fail(
                f"{family} {expected['seed']} changed in {', '.join(changed)}\n"
                f"recorded: {line(expected)}\nnow:      {line(actual)}"
            )
    # the exact check ran on states with equal fingerprints that are not
    # equivalent, the path that a fingerprint cannot settle
    assert misses["equal-shaped"] > 0


def test_the_snapshot_stays_under_a_megabyte():
    assert SNAPSHOT.stat().st_size < 1_000_000
