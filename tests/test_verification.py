import math
from dataclasses import replace

import numpy as np
import pytest

import weakamp.oracle as oracle
import weakamp.verification as verification
from weakamp import VanishingPostselectionError, run_verify
from weakamp.verification import (
    gaussian_oracle_battery,
    optimizer_battery,
    qubit_oracle_battery,
)

#: More closed-form calls than a battery of ``SAMPLES`` may make.
SAMPLES = 5
RUNAWAY = 1000 * SAMPLES


def _always_vanishing(monkeypatch, name):
    """Make the closed form ``name`` always raise; stop a runaway loop."""
    calls = 0

    def closed_form(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > RUNAWAY:
            raise RuntimeError("rejection loop did not stop")
        raise VanishingPostselectionError(0.0)

    monkeypatch.setattr(verification, name, closed_form)


@pytest.mark.parametrize("battery,section", [
    (qubit_oracle_battery, "qubit-oracle"),
    (gaussian_oracle_battery, "gaussian-oracle"),
])
class TestOracleBatteries:
    def test_records_carry_samples_produced(self, battery, section):
        records = battery(np.random.default_rng(3), SAMPLES)
        assert records
        assert all(r.section == section and r.samples == SAMPLES for r in records)
        assert all(r.ok for r in records)

    def test_nonpositive_samples_rejected(self, battery, section):
        for samples in (0, -3):
            with pytest.raises(ValueError):
                battery(np.random.default_rng(3), samples)

    def test_exhausted_attempts_fail_the_battery(self, battery, section, monkeypatch):
        name = "postselected_reading" if section == "qubit-oracle" else "gaussian_shifts"
        _always_vanishing(monkeypatch, name)
        records = battery(np.random.default_rng(3), SAMPLES)
        failed = [r for r in records if not r.ok]
        assert [r.case for r in failed] == ["samples"]
        assert failed[0].samples == 0
        assert all(r.samples == 0 for r in records)


def test_unconverged_search_is_its_own_failure(monkeypatch):
    real = verification.maximize

    def unconverged(objective, **kwargs):
        return replace(real(objective, grid_n=16, **kwargs), converged=False)

    monkeypatch.setattr(verification, "maximize", unconverged)
    failures = [r for r in optimizer_battery() if not r.ok]
    assert failures
    assert all(r.case.startswith("converged ") for r in failures)
    assert len(failures) == 36
    assert all(math.isinf(r.severity) for r in failures)


def test_unconverged_adjudication_search_fails_verify(monkeypatch):
    real = oracle.maximize

    def unconverged(objective, **kwargs):
        return replace(real(objective, **kwargs), converged=False)

    monkeypatch.setattr(oracle, "maximize", unconverged)
    report = run_verify(seed=7, samples=5)
    assert not report.ok
    failures = [r for r in report.records if not r.ok]
    assert [r.case for r in failures] == [
        f"converged {dispute}/max-{i:03d}"
        for dispute in ("position-shift-attenuation", "dephased-momentum-max")
        for i in range(3)]
    assert all(r.section == "adjudication" for r in failures)


def test_run_verify_rejects_empty_batteries():
    with pytest.raises(ValueError):
        run_verify(seed=7, samples=0)
