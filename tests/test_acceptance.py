"""One test per acceptance check.

Run with `-s` to see the pass/fail line for every criterion.  The SEED
environment variable reseeds the randomized checks; the default is 0.
"""

import pytest

from bigmcg import acceptance


@pytest.mark.parametrize("name", [spec.name for spec in acceptance.CHECKS])
def test_acceptance_check(name):
    res = acceptance.run_check(name, seed=acceptance.default_seed())
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name}: {res.detail} ({res.seconds:.2f}s)")
    assert res.passed, f"{res.name}: {res.detail}"
    assert res.within_budget, (
        f"{res.name} took {res.seconds:.2f}s, budget {res.budget:.0f}s"
    )


def test_crashing_check_is_recorded_as_fail(monkeypatch):
    crash = acceptance.CheckSpec("crash", 1.0, lambda seed: str(1 // seed))
    goldens = next(c for c in acceptance.CHECKS if c.name == "classifier_goldens")
    monkeypatch.setattr(acceptance, "CHECKS", (crash, goldens))
    crashed, after = acceptance.run_all(seed=0)
    assert not crashed.passed
    assert crashed.detail == "ZeroDivisionError: integer division or modulo by zero"
    assert after.passed
