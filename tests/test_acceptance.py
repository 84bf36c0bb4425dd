"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s``)."""

import math
import time
import warnings

import numpy as np

from weakamp import (
    GaussianMeter,
    adjudicate_variants,
    amplitude_damping_max,
    bloch_from_density,
    damped_reading_objective,
    damped_shift_objective,
    depolarizing,
    gaussian_max_shifts,
    maximize,
    ordinary_reading,
    phase_damping,
    postselected_reading,
    pure_state,
    qubit_max_reading,
)
from weakamp.verification import (
    gaussian_oracle_battery,
    optimizer_battery,
    qubit_oracle_battery,
)

METER = GaussianMeter(1.0)


def _report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_small_coupling_amplification():
    g = 0.01 * METER.dp
    dp_max, dq_max = gaussian_max_shifts(1.0, g, METER)
    dp_units = dp_max.value / METER.dp
    dq_units = dq_max.value / METER.dq
    ok = 0.9999 <= dp_units <= 1.0001 and 0.9999 <= dq_units <= 1.0001
    _report("1 small-coupling amplification", ok,
            f"|dp'|max = {dp_units:.6f} dp, |dq'|max = {dq_units:.6f} dq")


def test_criterion_2_depolarizing_doubling_threshold():
    g = 0.03 * METER.dp

    def momentum_max(gamma):
        return gaussian_max_shifts(1.0 - gamma, g, METER)[0].value

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if momentum_max(mid) > 2.0 * g:
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    ok = abs(threshold - 0.134) <= 0.005
    _report("2 depolarizing doubling threshold", ok, f"gamma* = {threshold:.4f}")


def test_criterion_3_qubit_meter_maxima():
    worst_reading = 0.0
    worst_ordinary = 0.0
    for g in (0.03, 0.05, 0.1):
        psi_i = pure_state(1.0, 0.4)
        psi_f = pure_state(math.pi - 1.0, 0.4 + math.pi)
        res = postselected_reading(psi_i.density(), psi_f, g)
        worst_reading = max(worst_reading, abs(res.reading - 1.0))
        worst_ordinary = max(worst_ordinary,
                             abs(ordinary_reading(g) - math.sin(g) ** 2))
    ok = worst_reading <= 1e-12 and worst_ordinary <= 1e-15
    _report("3 qubit-meter maxima", ok,
            f"orthogonal reading off by {worst_reading:.2e}, "
            f"ordinary off by {worst_ordinary:.2e}")


def test_criterion_4_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(7)
    qubit_records = qubit_oracle_battery(rng, 1000)
    gaussian_records = gaussian_oracle_battery(rng, 1000)
    elapsed = time.time() - start
    worst_qubit = max(r.deviation for r in qubit_records)
    worst_gaussian = max(r.deviation for r in gaussian_records)
    ok = worst_qubit <= 1e-12 and worst_gaussian <= 1e-6 and elapsed < 30.0
    _report("4 oracle equivalence", ok,
            f"qubit worst {worst_qubit:.2e} (tol 1e-12), gaussian worst "
            f"{worst_gaussian:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_5_optimizer_recovers_closed_forms():
    start = time.time()
    records = optimizer_battery()
    elapsed = time.time() - start
    recovery = [r for r in records if not r.case.startswith("dominance")]
    worst = max(recovery, key=lambda r: r.deviation)
    ok = all(r.ok for r in records) and elapsed < 60.0
    _report("5 optimizer/closed-form agreement", ok,
            f"worst {worst.case} rel dev {worst.deviation:.2e} "
            f"(tol 1e-6), {elapsed:.1f}s")


def test_criterion_6_amplitude_damping_immunity():
    # The closed-form suprema against independent optimizer searches over
    # the damped families.  Every search must converge; each supremum is
    # approached as theta1 runs into the pole 0, so the searches stop at the
    # edge of the optimizer's u1 box, a small relative gap below it, with
    # theta2 taken exactly from the postselection eigenvector.
    g = 0.1 * METER.dp
    worst, worst_case = 0.0, None
    unconverged = []
    for gamma in (0.1, 0.5, 0.9):
        for which, meter, coupling, objective in (
                ("dp", METER, g, damped_shift_objective(gamma, g, METER, "dp")),
                ("dq", METER, g, damped_shift_objective(gamma, g, METER, "dq")),
                ("reading", "qubit", 0.1, damped_reading_objective(gamma, 0.1))):
            found = maximize(objective)
            sup = amplitude_damping_max(meter, gamma, coupling, which).value
            gap = abs(abs(found.value) - sup) / sup
            if gap >= worst:
                worst, worst_case = gap, f"{which} gamma={gamma:g}"
            if not found.converged:
                unconverged.append(f"{which} gamma={gamma:g}")
    collapsed = abs(maximize(damped_shift_objective(1.0, g, METER, "dq")).value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        collapsed_sup = amplitude_damping_max(METER, 1.0, g, "dq").value
    ok = (worst <= 1e-4 and not unconverged
          and collapsed <= 1e-8 and collapsed_sup == 0.0)
    _report("6 amplitude-damping immunity", ok,
            f"worst optimizer/closed-form rel gap {worst:.2e} at {worst_case} "
            f"(tol 1e-4), unconverged searches {unconverged or 'none'}, "
            f"full-damping position max {collapsed:.1e} (tol 1e-8)")


def test_criterion_7_depolarizing_dephasing_coincidence():
    g = 0.1 * METER.dp
    psi = pure_state(1.234, 0.777)
    equatorial = pure_state(math.pi / 2, 0.777)
    worst = 0.0
    for gamma in np.linspace(0.0, 1.0, 51):
        k_dep = bloch_from_density(depolarizing(gamma).apply(psi.density())).modulus
        k_deph = bloch_from_density(phase_damping(gamma).apply(equatorial.density())).modulus
        dep_dp, dep_dq = gaussian_max_shifts(k_dep, g, METER)
        deph_dp, deph_dq = gaussian_max_shifts(k_deph, g, METER)
        worst = max(worst,
                    abs(dep_dp.value - deph_dp.value),
                    abs(dep_dq.value - deph_dq.value),
                    abs(qubit_max_reading(k_dep, 0.1).value
                        - qubit_max_reading(k_deph, 0.1).value))
    ok = worst <= 1e-12
    _report("7 depolarizing/dephasing coincidence", ok,
            f"worst pointwise gap {worst:.2e} (tol 1e-12)")


def test_criterion_8_typo_adjudication():
    report = adjudicate_variants(seed=7)
    deviations = {(e.dispute, e.variant, e.input_id): e.deviation
                  for e in report.entries}
    # the pinned inputs of each dispute run at the strong coupling g = 0.3
    pinned_rejected = (
        deviations[("position-shift-attenuation", "unattenuated", "max-000")],
        deviations[("dephased-momentum-max", "unsquared-coherence", "max-000")],
        deviations[("dephased-reading-numerator", "printed", "point-000")],
    )
    pinned_normative = (
        deviations[("position-shift-attenuation", "attenuated", "max-000")],
        deviations[("dephased-momentum-max", "squared-coherence", "max-000")],
        deviations[("dephased-reading-numerator", "ground-weighted", "point-000")],
    )
    ok = (report.all_confirmed
          and all(d >= 1e-5 for d in pinned_rejected)
          and all(d < 1e-6 for d in pinned_normative))
    _report("8 typo adjudication", ok,
            f"normative worst {max(v.normative_worst for v in report.verdicts):.2e}"
            f", pinned rejected deviations {min(pinned_rejected):.2e}.."
            f"{max(pinned_rejected):.2e} (each must exceed 1e-5)")
