import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import matrix
import weakamp.oracle as oracle
import weakamp.verification as verification
from weakamp import (QubitDensity, VanishingPostselectionError, bloch_from_density,
                     pure_state, run_verify)
from weakamp.verification import (
    _ATTEMPTS_PER_SAMPLE,
    COUPLING_BATTERY,
    FAULT_NAMES,
    KAPPA_BATTERY,
    _oracle_battery,
    _sample,
    adjudicate_variants,
    gaussian_oracle_battery,
    optimizer_battery,
    qubit_oracle_battery,
)
from weakamp.verification import _random_density as random_density

#: SHA-256 over the repr of every oracle result of ``run_verify(7, 1000)``,
#: then its report text and adjudication CSV rows.
ORACLE_DIGEST = "6f06f1b49020e4b6755fd68e6db61971557dc522cea5ff3f8533cb0b66f85402"
#: Oracle calls that ``run_verify(7, 1000)`` makes and completes.
ORACLE_CALLS = 2080

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
        records = battery(random.Random(3), SAMPLES)
        assert records
        assert all(r.section == section and r.samples == SAMPLES for r in records)
        assert all(r.ok for r in records)

    def test_nonpositive_samples_rejected(self, battery, section):
        for samples in (0, -3):
            with pytest.raises(ValueError):
                battery(random.Random(3), samples)

    def test_low_probability_input_is_redrawn_not_compared(self, battery, section,
                                                           monkeypatch):
        # The first input's closed form reads just under the battery's
        # probability filter and 1 off its true value: compared with the
        # oracle, it would fail the battery; filtered, another is drawn.
        closed_name, oracle_name, floor, field = {
            "qubit-oracle": ("postselected_reading", "_qubit_reading", 1e-4, "reading"),
            "gaussian-oracle": ("gaussian_shifts", "_grid_shifts", 1e-3, "dq_shift"),
        }[section]
        real_closed, real_oracle = (getattr(verification, closed_name),
                                    getattr(verification, oracle_name))
        closed_inputs, oracle_inputs = [], []

        def closed_form(rho, *args):
            result = real_closed(rho, *args)
            closed_inputs.append(rho)
            if len(closed_inputs) > 1:
                return result
            return replace(result, prob=floor / 2, **{field: getattr(result, field) + 1.0})

        def oracle_call(rho, *args):
            oracle_inputs.append(rho)
            return real_oracle(rho, *args)

        monkeypatch.setattr(verification, closed_name, closed_form)
        monkeypatch.setattr(verification, oracle_name, oracle_call)
        records = battery(random.Random(3), SAMPLES)
        assert all(r.ok and r.samples == SAMPLES for r in records)
        assert len(oracle_inputs) == SAMPLES
        assert all(rho is not closed_inputs[0] for rho in oracle_inputs)

    def test_exhausted_attempts_fail_the_battery(self, battery, section, monkeypatch):
        name = "postselected_reading" if section == "qubit-oracle" else "gaussian_shifts"
        _always_vanishing(monkeypatch, name)
        records = battery(random.Random(3), SAMPLES)
        failed = [r for r in records if not r.ok]
        assert [r.case for r in failed] == ["samples"]
        assert failed[0].samples == 0
        assert all(r.samples == 0 for r in records)


def test_gaussian_battery_reads_each_accepted_input_once_in_draw_order(monkeypatch):
    # The grids are evaluated in passes outside the moment cache, and every
    # accepted input (prob >= 1e-3 by the closed form) reaches the per-input
    # contraction once, in the order the stream drew it.
    real_closed, real_shifts = verification.gaussian_shifts, verification._grid_shifts
    closed, contracted = [], []

    def closed_form(rho, *args):
        result = real_closed(rho, *args)
        closed.append((rho, result.prob))
        return result

    def contraction(rho, *args):
        contracted.append(rho)
        return real_shifts(rho, *args)

    monkeypatch.setattr(verification, "gaussian_shifts", closed_form)
    monkeypatch.setattr(verification, "_grid_shifts", contraction)
    before = oracle._branch_moments.cache_info()
    records = gaussian_oracle_battery(random.Random(3), 3 * verification._ORACLE_PASS + 1)
    assert oracle._branch_moments.cache_info() == before
    assert all(r.ok for r in records)
    accepted = [rho for rho, prob in closed if prob >= 1e-3]
    assert len(accepted) == 3 * verification._ORACLE_PASS + 1
    assert len(contracted) == len(accepted)
    assert all(got is want for got, want in zip(contracted, accepted))


def test_qubit_battery_reads_each_accepted_input_once_in_draw_order(monkeypatch):
    # The read-outs are evaluated in passes, and every accepted input
    # (prob >= 1e-4 by the closed form) reaches the per-row reader once, in
    # the order the stream drew it, through one pass call per full or final
    # pass.
    real_closed, real_reading = verification.postselected_reading, verification._qubit_reading
    real_pass = verification._readout_pass
    closed, read, passes = [], [], []

    def closed_form(rho, *args):
        result = real_closed(rho, *args)
        closed.append((rho, result.prob))
        return result

    def reader(rho, *args):
        read.append(rho)
        return real_reading(rho, *args)

    def readout_pass(inputs):
        passes.append(len(inputs))
        return real_pass(inputs)

    monkeypatch.setattr(verification, "postselected_reading", closed_form)
    monkeypatch.setattr(verification, "_qubit_reading", reader)
    monkeypatch.setattr(verification, "_readout_pass", readout_pass)
    size = verification._ORACLE_PASS
    records = qubit_oracle_battery(random.Random(3), 3 * size + 1)
    assert all(r.ok and r.samples == 3 * size + 1 for r in records)
    assert passes == [size, size, size, 1]
    accepted = [rho for rho, prob in closed if prob >= 1e-4]
    assert len(accepted) == 3 * size + 1
    assert len(read) == len(accepted)
    assert all(got is want for got, want in zip(read, accepted))


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
    # Only the adjudication's oracle-maximum searches, which scan a
    # ``_OPTIMIZER_GRID_N``-point grid, report no convergence; the optimizer
    # battery's searches take the default grid and converge.
    real = verification.maximize

    def unconverged(objective, **kwargs):
        result = real(objective, **kwargs)
        if kwargs.get("grid_n") != verification._OPTIMIZER_GRID_N:
            return result
        return replace(result, converged=False)

    monkeypatch.setattr(verification, "maximize", unconverged)
    report = run_verify(seed=7, samples=5)
    assert not report.ok
    failures = [r for r in report.records if not r.ok]
    assert [r.case for r in failures] == [
        f"converged {dispute}/max-{i:03d}"
        for dispute in ("position-shift-attenuation", "dephased-momentum-max")
        for i in range(3)]
    assert all(r.section == "adjudication" for r in failures)


@pytest.mark.parametrize("every", [1, 2])
def test_adjudication_sample_shortfall_fails_verify(monkeypatch, every):
    # Every ``every``-th pointwise oracle call vanishes: with 1, dispute 1 hits
    # its attempt cap and dispute 3 rejects all 40 cases; with 2, dispute 3
    # rejects every other case and dispute 1 makes up its losses.
    calls = 0

    def vanishing(real):
        def oracle_call(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % every == 0:
                raise VanishingPostselectionError(0.0)
            return real(*args, **kwargs)
        return oracle_call

    for name in ("gaussian_grid_evolve", "qubit_joint_evolve"):
        monkeypatch.setattr(verification, name, vanishing(getattr(verification, name)))
    records, report = verification.adjudication_battery(7)
    missing = {1: (("position-shift-attenuation", 40), ("dephased-reading-numerator", 40)),
               2: (("dephased-reading-numerator", 20),)}[every]
    assert report.shortfalls == missing
    failed = {r.case: r.deviation for r in records if not r.ok}
    for dispute, count in missing:
        assert failed[f"samples {dispute}"] == count
    # A variant with no deviation at all is not vindicated.
    assert failed.get("dephased-reading-numerator/normative") == {1: math.inf, 2: None}[every]


def test_nan_deviation_fails_its_oracle_record():
    # max(1e-15, nan) keeps 1e-15: the NaN must stick through later samples.
    records = _oracle_battery("section", 3, 1e-12, ("key",), [(1e-15,), (math.nan,), (2e-15,)])
    assert len(records) == 1
    assert records[0].samples == 3 and math.isnan(records[0].deviation)
    assert not records[0].ok and records[0].severity == math.inf


def test_nan_optimizer_value_fails_both_of_its_records(monkeypatch):
    real, calls = verification.maximize, []

    def nan_fifth_value(objective, **kwargs):
        result = real(objective, grid_n=16, **kwargs)
        calls.append(result)
        return replace(result, value=math.nan) if len(calls) == 5 else result

    monkeypatch.setattr(verification, "maximize", nan_fifth_value)
    failures = [r for r in optimizer_battery() if not r.ok]
    # The fifth search is dq-max at kappa = 0.2, g = 0.05.
    assert [r.case for r in failures] == ["dq-max kappa=0.2 g=0.05",
                                          "dominance dq-max kappa=0.2 g=0.05"]
    assert all(math.isnan(r.deviation) and r.severity == math.inf for r in failures)


def test_nan_adjudication_deviation_fails_its_verdict(monkeypatch):
    # The second pointwise case of dispute 3 reads NaN: a NaN behind the
    # first deviation of both variants, which max() would drop.
    real, calls = verification.qubit_joint_evolve, []

    def nan_second_reading(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return replace(result, reading=math.nan) if len(calls) == 2 else result

    monkeypatch.setattr(verification, "qubit_joint_evolve", nan_second_reading)
    records, report = verification.adjudication_battery(7)
    verdict = next(v for v in report.verdicts if v.dispute == "dephased-reading-numerator")
    assert math.isnan(verdict.normative_worst) and math.isnan(verdict.rejected_worst)
    assert not verdict.confirmed
    assert "  [FAILED] dephased-reading-numerator: keep 'ground-weighted' (worst nan)" \
        in report.to_text()
    failed = [r.case for r in records if not r.ok]
    assert failed == ["dephased-reading-numerator/normative",
                      "dephased-reading-numerator/separation"]


def test_verdict_and_its_records_agree_at_the_tolerance(monkeypatch):
    # Worst deviations exactly at the tolerance and at the separation bar
    # pass both the verdict and the check records that verify counts; a NaN
    # worst fails its own check, an inf one fails the normative check and
    # clears the separation bar.
    tolerance = verification.ADJUDICATION_TOLERANCE
    bar = verification.REJECTION_FACTOR * tolerance
    worsts_and_oks = [((tolerance, bar), [True, True]),
                      ((math.nan, bar), [False, True]),
                      ((tolerance, math.nan), [True, False]),
                      ((math.inf, bar), [False, True]),
                      ((tolerance, math.inf), [True, True])]
    for worsts, oks in worsts_and_oks:
        verdict = verification.DisputeVerdict("edge", "kept", "rejected", *worsts)
        report = verification.AdjudicationReport(7, (), (verdict,))
        monkeypatch.setattr(verification, "adjudicate_variants", lambda seed: report)
        records, _ = verification.adjudication_battery(7)
        assert [r.ok for r in records if r.case.startswith("edge/")] == oks
        assert verdict.confirmed == report.all_confirmed == all(oks)
        status = "confirmed" if all(oks) else "FAILED"
        assert f"  [{status}] edge: keep 'kept'" in report.to_text()


def test_nan_closed_form_fails_verify_as_its_worst_offender(monkeypatch):
    real = verification.qubit_max_reading

    def nan_at_one_case(kappa, g):
        result = real(kappa, g)
        return replace(result, value=math.nan) if (kappa, g) == (0.5, 0.05) else result

    monkeypatch.setattr(verification, "qubit_max_reading", nan_at_one_case)
    report = run_verify(seed=7, samples=5)
    text = report.to_text()
    assert text.endswith("overall: FAIL")
    assert ("  worst offender: optimizer/reading-max kappa=0.5 g=0.05 deviation nan "
            "(tolerance 1e-06)") in text.splitlines()
    assert [r.case for r in report.failures] == ["reading-max kappa=0.5 g=0.05",
                                                 "dominance reading-max kappa=0.5 g=0.05"]


@pytest.mark.parametrize("name", FAULT_NAMES)
def test_injected_fault_fails_exactly_its_recovery_records(name):
    # A closed form 0.1% too large fails each of its 12 recovery records, by
    # the bump, as the searches still find the true maximum; its dominance
    # records and every other target pass.
    failures = [r for r in optimizer_battery(inject_fault=name) if not r.ok]
    assert [r.case for r in failures] == [f"{name} kappa={kappa:g} g={c:g}"
                                          for kappa in KAPPA_BATTERY
                                          for c in COUPLING_BATTERY]
    for r in failures:
        assert r.deviation == pytest.approx(1.0 - 1.0 / 1.001, rel=1e-3)


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match=r"^unknown fault 'dp_max', expected one of "
                                         r"\('dp-max', 'dq-max', 'reading-max'\)$"):
        optimizer_battery(inject_fault="dp_max")


def test_run_verify_rejects_empty_batteries():
    with pytest.raises(ValueError):
        run_verify(seed=7, samples=0)


def test_sample_stops_at_its_samples_or_its_attempt_cap():
    draws = []

    def every_third():
        draws.append(len(draws))
        return draws[-1] if draws[-1] % 3 == 0 else None

    assert list(_sample(every_third, 4)) == [0, 3, 6, 9]
    assert len(draws) == 10
    rejected = []
    assert list(_sample(lambda: rejected.append(0), 2)) == []
    assert len(rejected) == 2 * _ATTEMPTS_PER_SAMPLE


def test_random_density_draws_theta_phi_then_radius():
    # The batteries' inputs, and so their oracle calls, are pinned: each
    # density takes exactly three random() values from the stream, theta and
    # phi of its direction, then the cube of its Bloch radius.
    rng, twin = random.Random(21), random.Random(21)
    for _ in range(100):
        rho = random_density(rng)
        theta, phi = math.acos(1.0 - 2.0 * twin.random()), 2.0 * math.pi * twin.random()
        radius = twin.random() ** (1.0 / 3.0)
        assert rng.getstate() == twin.getstate()
        assert isinstance(rho, QubitDensity)
        bloch, direction = bloch_from_density(rho), pure_state(theta, phi).bloch()
        expected = [radius * direction.rx, radius * direction.ry, radius * direction.rz]
        assert math.dist((bloch.rx, bloch.ry, bloch.rz), expected) < 1e-15
        assert abs(rho.rho00 + rho.rho11 - 1.0) < 1e-15
        assert rho.rho01 == rho.rho10.conjugate()
        assert np.linalg.eigvalsh(matrix(rho)).min() >= -1e-15


def test_seed_must_be_a_non_negative_integer():
    # random.Random(-s) repeats Random(s), and Random(2.5) hashes its seed;
    # both are errors instead.
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        run_verify(seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        adjudicate_variants(-1)
    for seed in (2.5, "7"):
        with pytest.raises(TypeError):
            adjudicate_variants(seed)
    assert adjudicate_variants(np.int64(11)).csv_rows() == adjudicate_variants(11).csv_rows()


@pytest.fixture(scope="module")
def report():
    return adjudicate_variants(seed=7)


@pytest.mark.parametrize("name,dispute,floor,field,missing", [
    ("gaussian_grid_evolve", "position-shift-attenuation", 1e-2, "dq_shift", 0),
    ("qubit_joint_evolve", "dephased-reading-numerator", 1e-3, "reading", 1),
], ids=["dispute-1", "dispute-3"])
def test_low_probability_dispute_input_is_not_compared(monkeypatch, report, name, dispute,
                                                       floor, field, missing):
    # The first pointwise oracle result reads just under the dispute's
    # probability filter and 1 off its true value: compared, it would add
    # a deviation of about 1 to both variants.  Dispute 1 draws another
    # input in its place; dispute 3 decides on a fixed list of cases and
    # counts the lost one as a shortfall.
    real, calls = getattr(verification, name), []

    def low_first(*args):
        result = real(*args)
        calls.append(result)
        if len(calls) > 1:
            return result
        return replace(result, prob=floor / 2, **{field: getattr(result, field) + 1.0})

    monkeypatch.setattr(verification, name, low_first)
    patched = adjudicate_variants(seed=7)

    def pointwise(rep):
        """Deviations of the dispute's pointwise inputs, two per input."""
        return [e.deviation for e in rep.entries
                if e.dispute == dispute and e.input_id.startswith("point-")]

    before, after = pointwise(report), pointwise(patched)
    assert len(before) == 80 and not report.shortfalls
    assert len(after) == 80 - 2 * missing
    assert after[:78] == before[2:]
    assert patched.shortfalls == (((dispute, missing),) if missing else ())


class TestAdjudication:

    def test_all_disputes_confirmed(self, report):
        assert report.all_confirmed
        assert len(report.verdicts) == 3
        for verdict in report.verdicts:
            assert verdict.confirmed
            assert verdict.normative_worst < 1e-6
            assert verdict.rejected_worst >= 1e-5

    def test_pinned_strong_coupling_inputs_present(self, report):
        by_key = {(e.dispute, e.variant, e.input_id): e.deviation
                  for e in report.entries}
        # the pinned max-battery inputs run at g = 0.3, delta = 1
        assert by_key[("position-shift-attenuation", "attenuated", "max-000")] < 1e-6
        assert by_key[("position-shift-attenuation", "unattenuated", "max-000")] >= 1e-5
        assert by_key[("dephased-momentum-max", "squared-coherence", "max-000")] < 1e-6
        assert by_key[("dephased-momentum-max", "unsquared-coherence", "max-000")] >= 1e-5

    def test_entries_are_one_table_per_dispute(self):
        # Each input carries one normative then one rejected entry, and the
        # verdict's worsts are the largest deviation of each variant.
        report = adjudicate_variants(seed=11)
        for verdict in report.verdicts:
            entries = [e for e in report.entries if e.dispute == verdict.dispute]
            variants = (verdict.normative_variant, verdict.rejected_variant)
            assert [e.variant for e in entries] == list(variants) * (len(entries) // 2)
            ids = [e.input_id for e in entries[::2]]
            assert ids == [e.input_id for e in entries[1::2]]
            assert len(set(ids)) == len(ids)
            worsts = tuple(max(e.deviation for e in entries if e.variant == v)
                           for v in variants)
            assert (verdict.normative_worst, verdict.rejected_worst) == worsts

    def test_deterministic(self, report):
        again = adjudicate_variants(seed=7)
        assert again.to_text() == report.to_text()
        assert again.csv_rows() == report.csv_rows()

    def test_csv_shape(self, report, tmp_path):
        rows = report.csv_rows()
        assert rows[0] == "variant,input_id,deviation"
        assert all(row.count(",") == 2 for row in rows)
        path = tmp_path / "adjudication.csv"
        report.write_csv(path)
        text = path.read_bytes()
        assert b"\r" not in text
        assert text.decode().splitlines() == rows


def test_oracle_results_are_pinned(monkeypatch):
    results = []

    def recorded(real):
        def oracle_call(*args, **kwargs):
            result = real(*args, **kwargs)
            results.append(repr(result))
            return result
        return oracle_call

    # Every oracle result, a battery's and a one-input call's, is read
    # through the per-input contraction of its oracle.
    for module, name in ((verification, "_grid_shifts"), (oracle, "_grid_shifts"),
                         (verification, "_qubit_reading"), (oracle, "_qubit_reading")):
        monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    report = run_verify(seed=7, samples=1000)
    assert len(results) == ORACLE_CALLS
    text = "\n".join(results + [report.to_text()] + report.adjudication.csv_rows())
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGEST
