"""Independent routes to quantities the package computes another way.

None of these is on a CLI path.  Each one reaches a result of `rqss` by a
different method (adaptive quadrature, first-order mode sums, a physical
dilation, a plain loop in place of a batched expression or of shared
quadrature tables, the protocol's stages written out one by one, the
closed-form first-order coefficients, one segment at a time in place of the
stacked u-grid), so the tests can compare the two routes.  The cavity mode
functions, frequencies and segment durations the routes need live here too:
the package itself works only with their overlaps.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from rqss.channel import (
    apply_channel,
    channel_invariants,
    complex_pair_block,
    cp_residual,
    segment_channel,
    t2_from_sums,
)
from rqss.gaussian import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    beam_splitter,
    fidelity_pure_mixed,
    homodyne_feedforward,
    partial_trace,
    phase_rotation,
    squeeze,
    squeezed_vacuum,
    tensor,
)
from rqss.modes import (
    DEFAULT_LADDER,
    DEFAULT_VALIDATION_H,
    BogoliubovSet,
    CavityGeometry,
    ModeSums,
    TransitionFit,
    _exact_matrices,
    mode_sums,
    segment_bogoliubov,
)
from rqss.protocol import (
    DEFAULT_DECODER_GAIN,
    DEFAULT_DECODER_SQUEEZE,
    FIGURES,
    _direct_f2_scenario12,
    encode,
    fidelity_closed_forms,
    round_trip_channel,
    transit_channel,
)


def minkowski_frequency(geometry: CavityGeometry, n: int) -> float:
    if n < 1:
        raise ValueError("mode numbers start at 1")
    return n * np.pi / geometry.length


def rindler_frequency(geometry: CavityGeometry, n: int) -> float:
    """Wedge-mode frequency per unit wedge time eta."""
    if n < 1:
        raise ValueError("mode numbers start at 1")
    return n * np.pi / geometry.rindler_span


def rindler_frequency_proper(geometry: CavityGeometry, n: int) -> float:
    """Wedge-mode frequency per unit proper time at the cavity centre.

    Tends to the inertial ``n pi / L`` as h -> 0.
    """
    return rindler_frequency(geometry, n) * geometry.h / geometry.length


def minkowski_mode(geometry: CavityGeometry, n: int, t, x):
    """Inertial cavity mode, unit Klein-Gordon norm."""
    if n < 1:
        raise ValueError("mode numbers start at 1")
    om = minkowski_frequency(geometry, n)
    x = np.asarray(x, dtype=float)
    x_l = geometry.x_left if geometry.h > 0 else 0.0
    return np.sin(n * np.pi * (x - x_l) / geometry.length) / np.sqrt(n * np.pi) * np.exp(-1j * om * t)


def rindler_mode(geometry: CavityGeometry, n: int, eta, chi):
    """Wedge cavity mode, unit Klein-Gordon norm."""
    if n < 1:
        raise ValueError("mode numbers start at 1")
    om = rindler_frequency(geometry, n)
    chi = np.asarray(chi, dtype=float)
    arg = n * np.pi * np.log(chi / geometry.x_left) / geometry.rindler_span
    return np.sin(arg) / np.sqrt(n * np.pi) * np.exp(-1j * om * eta)


def phase_u(h: float, tau: float, length: float = 1.0) -> float:
    """Dimensionless phase parameter of a segment of proper duration tau.

    Mode j acquires phase 2 pi j u across the segment.  Smooth h -> 0 limit
    tau / (2 L).
    """
    if h == 0.0:
        return tau / (2.0 * length)
    return h * tau / (4.0 * length * np.arctanh(0.5 * h))


def duration_from_u(u: float, h: float, length: float = 1.0) -> float:
    if h == 0.0:
        return 2.0 * length * u
    return u * 4.0 * length * np.arctanh(0.5 * h) / h


@dataclass(frozen=True)
class ExactBogoliubov:
    """Instantaneous wedge<->inertial transition matrices at one acceleration."""

    alpha: np.ndarray
    beta: np.ndarray
    quadrature_error: float

    def identity_residuals(self) -> np.ndarray:
        """Per-row residual of sum_j alpha_ij^2 - beta_ij^2 = 1."""
        return np.abs(np.sum(self.alpha**2 - self.beta**2, axis=1) - 1.0)


def bogoliubov_exact(geometry: CavityGeometry, panels: int | None = None, order: int = 16) -> ExactBogoliubov:
    """Real transition matrices of one acceleration, by fixed-panel Gauss-Legendre quadrature.

    Rows index wedge modes, columns inertial modes.  The rule is refined once
    (doubled panels) and the difference reported as `quadrature_error`.
    """
    [(alpha, beta, err)] = _exact_matrices([geometry], panels, order)
    return ExactBogoliubov(alpha=alpha, beta=beta, quadrature_error=err)


def first_order_closed_form(n_max: int):
    """(a1, b1): the h-coefficients of the transition matrices in closed form.

    For mode numbers m + n odd, a1 = -2 sqrt(mn) / (pi^2 (m - n)^3) and
    b1 = 2 sqrt(mn) / (pi^2 (m + n)^3); both vanish when m + n is even
    (Bruschi, Fuentes & Louko, PRD 85, 061701(R) (2012)).  Independent of
    the cavity length, since h = a L is already dimensionless.
    """
    m = np.arange(1, n_max + 1, dtype=float)[:, None]
    n = np.arange(1, n_max + 1, dtype=float)[None, :]
    odd = (m + n) % 2 == 1
    root = np.sqrt(m * n)
    diff = np.where(odd, m - n, 1.0)  # m = n only where m + n is even
    a1 = np.where(odd, -2.0 * root / (np.pi**2 * diff**3), 0.0)
    b1 = np.where(odd, 2.0 * root / (np.pi**2 * (m + n) ** 3), 0.0)
    return a1, b1


def minkowski_slice(geometry: CavityGeometry, n: int):
    """(value, d/dt) of the inertial mode on the matching slice t = 0."""
    om = minkowski_frequency(geometry, n)
    f = lambda x: minkowski_mode(geometry, n, 0.0, x)
    return f, lambda x: -1j * om * f(x)


def rindler_slice(geometry: CavityGeometry, n: int):
    """(value, d/dt) of the wedge mode on the slice t = eta = 0.

    On that slice inertial time flows as dt = x d(eta), so the inertial time
    derivative of a wedge mode is -i Omega_n / x times its value.
    """
    om = rindler_frequency(geometry, n)
    f = lambda x: rindler_mode(geometry, n, 0.0, x)
    return f, lambda x: -1j * om * f(x) / np.asarray(x, dtype=float)


def kg_inner_product(f, df_dt, g, dg_dt, x_lo: float, x_hi: float, tol: float = 1e-10) -> complex:
    """Klein-Gordon inner product -i Int (f dg*/dt - g* df/dt) dx on a slice.

    `f`, `g` and their slice time derivatives are callables of x; adaptive
    quadrature to absolute tolerance `tol`.
    """

    def integrand(x):
        return -1j * (f(x) * np.conj(dg_dt(x)) - np.conj(g(x)) * df_dt(x))

    re, _ = quad(lambda x: integrand(x).real, x_lo, x_hi, epsabs=tol, epsrel=1e-12, limit=400)
    im, _ = quad(lambda x: integrand(x).imag, x_lo, x_hi, epsabs=tol, epsrel=1e-12, limit=400)
    return complex(re, im)


def nbar_from_sums(sums: ModeSums) -> float:
    """Closed-form nbar; the radicand is nonnegative by Cauchy-Schwarz."""
    s = sums.f_alpha + sums.f_beta
    d = sums.f_alpha - sums.f_beta
    radicand = s * s - abs(sums.g_cross) ** 2
    return float(np.sqrt(max(radicand, 0.0)) / (2.0 * d) - 0.5)


def noise_block_loop(bogo: BogoliubovSet, k: int) -> np.ndarray:
    """n2 of `segment_channel` summed one coupled mode at a time, in mode order."""
    row = k - 1
    n2 = np.zeros((2, 2))
    for l in range(bogo.n_max):
        if l != row:
            blk = complex_pair_block(bogo.alpha1[row, l], bogo.beta1[row, l])
            n2 += blk @ blk.T
    return n2


def noise_block_from_sums(sums: ModeSums) -> np.ndarray:
    """n2 reconstructed from (f_alpha, f_beta, g); equals the matrix route."""
    g = sums.g_cross
    iso = 2.0 * (sums.f_alpha + sums.f_beta) * np.eye(2)
    skew = 2.0 * np.array([[-g.real, g.imag], [g.imag, g.real]])
    return iso + skew


def thermal_lossy_forms(transmissivity: float, nbar: float):
    """Canonical (M_c, N_c) of a thermal attenuation channel."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    if nbar < 0.0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    m = np.sqrt(transmissivity) * np.eye(2)
    n = (1.0 - transmissivity) * (2.0 * nbar + 1.0) * np.eye(2)
    return m, n


def thermal_lossy_via_dilation(transmissivity: float, nbar: float):
    """Thermal-loss channel realized physically: beam splitter onto a thermal mode.

    The (M, N) pair is read back off the reduced output moments, so this
    route exercises the state machinery rather than the closed form.
    """
    env = GaussianState(np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))
    bs = beam_splitter(transmissivity, (0, 1), 2)

    def reduced(inp: GaussianState) -> GaussianState:
        joint = apply_symplectic(bs, tensor(inp, env))
        return partial_trace(joint, [0])

    m = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        m[:, i] = reduced(GaussianState(e, np.eye(2))).d
    out = reduced(GaussianState(np.zeros(2), np.eye(2)))
    n = out.sigma - m @ m.T
    return m, n


def fit_by_exact_loop(length: float = 1.0, n_max: int = 20, rel_floor: float = 1e-9):
    """(a, b, validation, quadrature_error) of `fit_transition`, one `bogoliubov_exact` per h.

    Each acceleration builds its own quadrature tables; the Vandermonde solve
    on `DEFAULT_LADDER` and the held-out validation at `DEFAULT_VALIDATION_H`
    are those of `fit_transition`.
    """
    scale = DEFAULT_LADDER[0]
    vand = np.vander(np.array(DEFAULT_LADDER) / scale, 5, increasing=True)[:, 1:]
    quad_err = 0.0
    rows_a, rows_b = [], []
    for h in DEFAULT_LADDER:
        exact = bogoliubov_exact(CavityGeometry(length, h, n_max))
        quad_err = max(quad_err, exact.quadrature_error)
        rows_a.append(exact.alpha - np.eye(n_max))
        rows_b.append(exact.beta)
    powers = scale ** np.arange(1, 5)
    a = (np.linalg.solve(vand, np.stack([m.ravel() for m in rows_a])) / powers[:, None]).reshape(4, n_max, n_max)
    b = (np.linalg.solve(vand, np.stack([m.ravel() for m in rows_b])) / powers[:, None]).reshape(4, n_max, n_max)

    series = TransitionFit(length, n_max, a, b, {}, quad_err)
    h = DEFAULT_VALIDATION_H
    held_out = bogoliubov_exact(CavityGeometry(length, h, n_max))
    ref_a, ref_b = held_out.alpha, held_out.beta
    abs_a = np.abs(series.alpha_at(h) - ref_a)
    abs_b = np.abs(series.beta_at(h) - ref_b)
    dev_a = np.abs(ref_a - np.eye(n_max))
    dev_b = np.abs(ref_b)
    rel_a = np.where(dev_a > rel_floor, abs_a / np.maximum(dev_a, rel_floor), 0.0)
    rel_b = np.where(dev_b > rel_floor, abs_b / np.maximum(dev_b, rel_floor), 0.0)
    validation = {
        "h": h,
        "max_abs_err": float(max(abs_a.max(), abs_b.max())),
        "max_rel_err": float(max(rel_a.max(), rel_b.max())),
        "rel_floor": rel_floor,
    }
    return a, b, validation, float(quad_err)


def fidelity_by_stages(scenario: str, config, fit: TransitionFit, h: float) -> float:
    """`simulate_fidelity` as its stage sequence, each stage a public primitive.

    Shares 0 and 1 take the journey.  Scenario 12 then undoes the balanced
    splitter and keeps mode 0; scenarios 23 and 13 send share 2 out too,
    recombine it with its partner on a 2:1 splitter, homodyne share 2's port
    and feed its q outcome forward, rescale, half-turn (13 only) and trace.
    """
    secret = config.make_secret()
    state = encode(secret, config.s)
    journey = round_trip_channel if scenario == "12" else transit_channel
    M, N = journey(fit, config.k, config.u).evaluate(h)
    for mode in (0, 1):
        state = apply_channel(M, N, state, mode=mode)
    if scenario == "12":
        state = apply_symplectic(SymplecticMap(beam_splitter(0.5, (0, 1), 3).matrix.T), state)
        return fidelity_pure_mixed(secret, partial_trace(state, [0]))
    partner = {"23": 1, "13": 0}[scenario]  # keeps its index once mode 2 is measured
    state = apply_channel(M, N, state, mode=2)
    state = apply_symplectic(beam_splitter(2.0 / 3.0, (partner, 2), 3), state)
    state = homodyne_feedforward(state, measured_mode=2, target_mode=partner, quadrature="q", gain=DEFAULT_DECODER_GAIN)
    state = apply_symplectic(squeeze(DEFAULT_DECODER_SQUEEZE, partner, 2), state)
    if scenario == "13":
        state = apply_symplectic(phase_rotation(math.pi, partner, 2), state)
    return fidelity_pure_mixed(secret, partial_trace(state, [partner]))


# Per-mode value of each u-grid figure: (column prefix, value(bogo, k, u, config)).
_MODE_FIGURES = {
    "T2": ("T2", lambda bogo, k, u, config: t2_from_sums(mode_sums(bogo, k))),
    "nbar": ("nbar", lambda bogo, k, u, config: channel_invariants(segment_channel(bogo, k), k=k, u=u).nbar),
    "F2_23": ("F2", lambda bogo, k, u, config: fidelity_closed_forms("23", mode_sums(bogo, k), s=config.s)["f2"]),
}


def figure_data_per_u(name: str, fit: TransitionFit, grid, config):
    """`figure_data` built one segment map, channel and round trip per u."""
    grid = [float(u) for u in grid]
    if name in _MODE_FIGURES:
        prefix, value = _MODE_FIGURES[name]
        header = ["u"] + [f"{prefix}_k{k}" for k in (1, 2, 3)]
        rows = []
        for u in grid:
            bogo = segment_bogoliubov(fit, u)
            rows.append([u] + [value(bogo, k, u, config) for k in (1, 2, 3)])
        return header, rows
    if name == "F2_12_squeezed":
        header = ["u", "F2_r0.0625", "F2_r0.125", "F2_r0.25"]
        rows = []
        for u in grid:
            chan = round_trip_channel(fit, config.k, u)
            rows.append([u] + [_direct_f2_scenario12(chan, squeezed_vacuum(r)) for r in (0.0625, 0.125, 0.25)])
        return header, rows
    raise ValueError(f"unknown figure {name!r}; choices: {FIGURES}")


def invariant_rows_per_u(fit: TransitionFit, grid, h: float):
    """The rows and least CP residual of `rqss invariants`, one segment per u."""
    rows = []
    worst_cp = np.inf
    for u in grid:
        bogo = segment_bogoliubov(fit, u)
        for k in (1, 2, 3):
            chan = segment_channel(bogo, k)
            inv = channel_invariants(chan, k=k, u=u)
            worst_cp = min(worst_cp, cp_residual(*chan.evaluate(h)))
            rows.append([u, k, inv.t2, inv.nbar, inv.rank])
    return rows, worst_cp
