"""The built-in residual suites must pass, and must actually catch defects."""

import time

import pytest

from gcslib import states, verify

# rows that pass only at residual 0; every other row compares floats
EXACT_ROWS = {
    ("beamsplitter", "splitter constraint validation"),
    ("beamsplitter", "entangled output: amplitude matrix rank > 1"),
    ("drive", "pulse-off limit recovers free evolution"),
}


# the suites as shipped, captured before any test patches verify.SUITES
SHIPPED = dict(verify.SUITES)
_RUNS = {}


def _run(suite):
    """Rows and wall seconds of one suite, run once per test session."""
    if suite not in _RUNS:
        start = time.monotonic()
        checks = SHIPPED[suite]()
        _RUNS[suite] = checks, time.monotonic() - start
    return _RUNS[suite]


@pytest.mark.parametrize("suite", sorted(SHIPPED))
def test_suite_clean(suite):
    checks, _ = _run(suite)
    assert checks
    failed = [c for c in checks if not c.passed]
    assert not failed, "\n".join(
        f"{c.name}: residual {c.residual:.3e} > {c.tolerance:.1e}" for c in failed
    )


def test_gcs_suite_is_quick():
    # gcs is the slowest suite; every suite is held to the same bound
    assert _run("gcs")[1] < 60.0
    for suite in SHIPPED:
        assert _run(suite)[1] < 60.0, suite


def test_check_row_shape():
    for suite in SHIPPED:
        for c in _run(suite)[0]:
            assert isinstance(c.name, str) and c.name
            assert c.residual >= 0.0
            assert c.tolerance > 0.0 or ((suite, c.name) in EXACT_ROWS and c.tolerance == 0.0)


def test_run_suites_aggregates_rows_in_order(monkeypatch):
    rows = {
        "one": [verify.Check("a", 0.0, 1e-9), verify.Check("b", 1e-10, 1e-9)],
        "two": [verify.Check("c", 0.5, 1e-9)],
        "three": [verify.Check("d", 0.0, 0.0)],
    }
    monkeypatch.setattr(verify, "SUITES", {name: lambda c=c: list(c) for name, c in rows.items()})
    ok, got = verify.run_suites(["three", "one"])
    assert ok
    assert [(suite, c.name) for suite, c in got] == [("three", "d"), ("one", "a"), ("one", "b")]
    ok, got = verify.run_suites(["one", "two", "three"])
    assert not ok
    assert [suite for suite, _ in got] == ["one", "one", "two", "three"]
    assert [c.passed for _, c in got] == [True, True, False, True]


def test_suite_catches_planted_defect(monkeypatch):
    # flip the sign inside the coherence dip; exactly the minimum-location
    # row must notice
    monkeypatch.setattr(
        states, "g2", lambda n, alpha: 1.0 + n / (n + abs(complex(alpha)) ** 2) ** 2
    )
    failed = [c.name for c in verify.suite_gcs() if not c.passed]
    assert "g2 fixed-alpha minimum location and value" in failed
