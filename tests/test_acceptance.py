"""Full-scale acceptance gate: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test executes the criterion at the one scale the
suite has, within its budget, and carries the measured detail in its
assertion message.
"""

from queuedecay.validate import run_criterion


def _check(number):
    result = run_criterion(number)
    assert result.passed, result.line()


def test_criterion_01_closed_form_rates():
    _check(1)


def test_criterion_02_priority_regimes():
    _check(2)


def test_criterion_03_rate_ordering():
    _check(3)


def test_criterion_04_truncation_sweep():
    _check(4)


def test_criterion_05_fifo_tail_and_importance_sampling():
    _check(5)


def test_criterion_06_srpt_tail():
    _check(6)


def test_criterion_07_sample_path_identities():
    _check(7)


def test_criterion_08_critical_truncation_curve():
    _check(8)


def test_criterion_09_heavy_traffic():
    _check(9)


def test_criterion_10_empirical_cumulant():
    _check(10)
