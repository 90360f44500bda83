"""Independent routes to quantities the package computes another way.

None of these is on a CLI path.  Each one reaches a result of `rqss` by a
different method (adaptive quadrature, first-order mode sums, a physical
dilation, a plain loop in place of a batched expression or of shared
quadrature tables, the protocol's stages written out one by one, the
closed-form first- and second-order coefficients, one segment or one report
at a time in place of the stacked u-grid, one rounding per grid point in
place of one array call, per-state maxima and per-call constants in the
state check, a pseudo-inverse in the homodyne update, an identity composed
in ahead of a journey), so the tests can compare the two routes.
The cavity geometry, mode functions, frequencies and segment durations the
routes need live here too: the package itself works only with their
overlaps, as functions of h = a L alone.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from rqss.channel import (
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    complex_pair_block,
    compose,
    cp_residual,
    segment_channel,
    t2_from_sums,
)
from rqss.gaussian import (
    _PINV_RCOND,
    PHYSICALITY_TOL,
    GaussianState,
    SymplecticMap,
    UnphysicalStateError,
    _block,
    _frozen,
    _mat_vec,
    _quadratures,
    _transpose,
    apply_symplectic,
    beam_splitter,
    fidelity_pure_mixed,
    homodyne_feedforward,
    partial_trace,
    phase_rotation,
    squeeze,
    squeezed_vacuum,
    symplectic_form,
    tensor,
)
from rqss.modes import (
    DEFAULT_LADDER,
    DEFAULT_NMAX,
    DEFAULT_VALIDATION_H,
    BogoliubovSet,
    ModeSums,
    TransitionFit,
    _exact_matrices,
    mode_sums,
    segment_bogoliubov,
)
from rqss.protocol import (
    DEFAULT_DECODER_GAIN,
    DEFAULT_DECODER_SQUEEZE,
    DEFAULT_F2_LADDER,
    FIGURES,
    FidelityReport,
    _direct_f2_scenario12,
    collaborate,
    decoder_maps,
    distribute,
    encode,
    extrapolate_f2,
    fidelity_closed_forms,
    round_trip_channel,
    transit_channel,
)


@dataclass(frozen=True)
class CavityGeometry:
    """Rigid cavity of length `length` whose centre accelerates with h = a*L.

    The package computes everything at L = 1, since its results depend on h
    alone; the adaptive-quadrature route keeps `length`, so a test can show
    that independence.
    """

    length: float = 1.0
    h: float = 0.0
    n_max: int = DEFAULT_NMAX

    def __post_init__(self):
        if not 0.0 < self.length < np.inf:
            raise ValueError(f"cavity length must be positive and finite, got {self.length}")
        if not 0.0 <= self.h < 2.0:
            raise ValueError(f"h must lie in [0, 2), got {self.h}")
        if self.n_max < 1:
            raise ValueError("need at least one mode")

    def _require_accelerated(self):
        if self.h == 0.0:
            raise ValueError("wedge quantities are undefined for an inertial cavity (h = 0)")

    @property
    def x_left(self) -> float:
        self._require_accelerated()
        return self.length * (1.0 / self.h - 0.5)

    @property
    def x_right(self) -> float:
        self._require_accelerated()
        return self.length * (1.0 / self.h + 0.5)

    @property
    def rindler_span(self) -> float:
        """Wall separation D in the wedge's logarithmic coordinate."""
        self._require_accelerated()
        return 2.0 * np.arctanh(0.5 * self.h)


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
    """Real transition matrices of one acceleration, by the package's fixed-panel Gauss-Legendre quadrature.

    Rows index wedge modes, columns inertial modes.  The rule is refined once
    (doubled panels) and the difference reported as `quadrature_error`.  The
    package's quadrature works at L = 1 only.
    """
    geometry._require_accelerated()
    if geometry.length != 1.0:
        raise ValueError(f"the package's quadrature takes h alone (L = 1), got length {geometry.length}")
    [(alpha, beta, err)] = _exact_matrices([geometry.h], geometry.n_max, panels, order)
    return ExactBogoliubov(alpha=alpha, beta=beta, quadrature_error=err)


def grid_point_by_point(start: float, stop: float, step: float) -> list:
    """The u-grid `start:stop:step` of the CLI's `--grid`, rounded to 12 decimals one point at a time."""
    steps = (stop - start) / step
    grid = [float(np.round(start + i * step, 12)) for i in range(int(round(steps)) + 1)]
    return [u for u in grid if u <= stop + 1e-12]


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


def second_order_closed_form(n_max: int):
    """(a2, b2): the h^2-coefficients of the transition matrices in closed form.

    Row i is a wedge mode, column j an inertial mode.  Both vanish when i + j
    is odd; for i + j even

        a2[i, j] = sqrt(ij) (i + 2j) / (pi^2 (i - j)^4)    for i != j,
        a2[n, n] = -pi^2 n^2 / 240,
        b2[i, j] = sqrt(ij) (2j - i) / (pi^2 (i + j)^4),

    so that b2[n, n] = 1 / (16 pi^2 n^2).  These are the next order of the
    small-h expansion of Bruschi, Fuentes & Louko, PRD 85, 061701(R) (2012).
    They were derived by integrating the exact h-series of the overlap
    integrand symbolically, and checked three ways, each independent of the
    fit: the symbolic integrals give these values for 11 pairs with i, j <= 6;
    against the package's quadrature at h = 2e-3, 1e-3 and 5e-4 the residual
    |exact - I - a1 h - a2 h^2| (and its beta counterpart) shrinks 8x per
    halving of h at n_max 20, 40 and 160, as an O(h^3) remainder does; and
    60-digit quadrature matches both diagonals to at least 19 digits at
    n = 1, 2, 3, 5, 8, 21 and 40.  The tests repeat the second check; the
    other two needed symbolic and arbitrary-precision packages that are not
    dependencies.  Independent of the cavity length, like the first order.
    """
    i = np.arange(1, n_max + 1, dtype=float)[:, None]
    j = np.arange(1, n_max + 1, dtype=float)[None, :]
    even = (i + j) % 2 == 0
    root = np.sqrt(i * j)
    off = even & (i != j)
    diff = np.where(off, i - j, 1.0)
    a2 = np.where(off, root * (i + 2.0 * j) / (np.pi**2 * diff**4), 0.0)
    a2[np.diag_indices(n_max)] = -(np.pi**2) * np.arange(1, n_max + 1) ** 2 / 240.0
    b2 = np.where(even, root * (2.0 * j - i) / (np.pi**2 * (i + j) ** 4), 0.0)
    return a2, b2


def closed_form_transition(n_max: int) -> TransitionFit:
    """The coefficients of both closed forms as a `TransitionFit`; orders three and four are zero."""
    a1, b1 = first_order_closed_form(n_max)
    a2, b2 = second_order_closed_form(n_max)
    zero = np.zeros((n_max, n_max))
    return TransitionFit(n_max, np.stack([a1, a2, zero, zero]), np.stack([b1, b2, zero, zero]), {}, 0.0)


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


def transition_entry_by_quad(geometry: CavityGeometry, i: int, j: int, tol: float = 1e-12) -> tuple:
    """(alpha_ij, beta_ij) of wedge mode i and inertial mode j by adaptive quadrature, at the geometry's length.

    alpha_ij = Int (omega_j + Omega_i / x) S_i s_j dx over the cavity on the
    slice t = eta = 0; beta flips the sign of the Omega term.
    """
    om = minkowski_frequency(geometry, j)
    big = rindler_frequency(geometry, i)
    s_w, _ = rindler_slice(geometry, i)
    s_m, _ = minkowski_slice(geometry, j)

    def entry(sign):
        integrand = lambda x: (om + sign * big / x) * s_w(x).real * s_m(x).real
        return quad(integrand, geometry.x_left, geometry.x_right, epsabs=tol, limit=200)[0]

    return entry(1.0), entry(-1.0)


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


def fit_by_exact_loop(n_max: int = 20, rel_floor: float = 1e-9):
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
        exact = bogoliubov_exact(CavityGeometry(h=h, n_max=n_max))
        quad_err = max(quad_err, exact.quadrature_error)
        rows_a.append(exact.alpha - np.eye(n_max))
        rows_b.append(exact.beta)
    powers = scale ** np.arange(1, 5)
    a = (np.linalg.solve(vand, np.stack([m.ravel() for m in rows_a])) / powers[:, None]).reshape(4, n_max, n_max)
    b = (np.linalg.solve(vand, np.stack([m.ravel() for m in rows_b])) / powers[:, None]).reshape(4, n_max, n_max)

    series = TransitionFit(n_max, a, b, {}, quad_err)
    h = DEFAULT_VALIDATION_H
    held_out = bogoliubov_exact(CavityGeometry(h=h, n_max=n_max))
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
    "nbar": ("nbar", lambda bogo, k, u, config: channel_invariants(segment_channel(bogo, k)).nbar),
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
            inv = channel_invariants(chan)
            worst_cp = min(worst_cp, cp_residual(*chan.evaluate(h)))
            rows.append([u, k, inv.t2, inv.nbar, inv.rank])
    return rows, worst_cp


def fidelity_report_per_u(scenario: str, config, fit: TransitionFit) -> FidelityReport:
    """`fidelity_report` at config.u with its own journey, encoding and mode sums: one u, no grid.

    The journey is the one-u `transit_channel` or `round_trip_channel`, the
    mode sums come from one-segment maps at u (and 2u on a round trip), and
    the three ladder accelerations and h run through the stages as one stack.
    """
    decoder = decoder_maps(scenario)
    u, k = config.u, config.k
    journey = (round_trip_channel if scenario == "12" else transit_channel)(fit, k, u)
    phases = (u, 2.0 * u) if scenario == "12" else (u,)
    sums = [mode_sums(segment_bogoliubov(fit, v, (k,)), k) for v in phases]
    secret = config.make_secret()
    M, N = journey.evaluate(np.array([*DEFAULT_F2_LADDER, config.h]))
    *sims, f_sim = fidelity_pure_mixed(secret, collaborate(distribute(encode(secret, config.s), M, N), M, N, decoder)).tolist()

    f2_extrap, _, curvature = extrapolate_f2(sims)
    h_top = max(DEFAULT_F2_LADDER)
    extrap_source = "three-point h-ladder fit of the simulated pipeline"
    if abs(curvature) * h_top**4 > 0.25 * abs(f2_extrap) * h_top**2 + 1e-12:
        f2_extrap = float("nan")
        extrap_source = "unavailable: quartic term dominates the ladder, outside the perturbative window"

    coherent_secret = config.secret == "coherent"
    if scenario == "12":
        f0 = 1.0
        f0_source = "round trip is the identity at h = 0"
        f2 = _direct_f2_scenario12(journey, secret)
        f2_source = "trace of the round-trip second-order moments"
        f2_closed = fidelity_closed_forms("12", *sums)["f2"] if coherent_secret else float("nan")
    else:
        ideal = GaussianState(secret.d, secret.sigma + 2.0 * math.exp(-config.s) * np.eye(2))
        f0 = fidelity_pure_mixed(secret, ideal)
        f0_source = "decoded zeroth-order moments: sigma + 2 e^{-s} I"
        if coherent_secret:
            f2 = f2_closed = fidelity_closed_forms(scenario, sums[0], s=config.s)["f2"]
            f2_source = "closed form from first-order mode sums"
        else:
            f2, f2_closed, f2_source = f2_extrap, float("nan"), extrap_source

    return FidelityReport(
        scenario=scenario,
        k=k,
        u=u,
        h=config.h,
        s=config.s,
        secret=f"{config.secret}{tuple(config.secret_params)}",
        f0=f0,
        f2=f2,
        f_sim=f_sim,
        f2_extrapolated=f2_extrap,
        f2_closed=f2_closed,
        f0_source=f0_source,
        f2_source=f2_source,
        f_sim_source=f"full pipeline at h = {config.h}",
    )


def check_state_by_reductions(d, sigma) -> None:
    """`GaussianState`'s check with a maximum per state for symmetry, `isfinite` on both moments, and i Gamma and I built per call.

    Raises what the state check raises, with the same message; returns
    nothing for a state or stack it accepts.
    """
    d = _frozen(d)
    sigma = _frozen(sigma)
    if d.ndim < 1 or d.shape[-1] % 2:
        raise ValueError(f"first moments must have even length, got {d.shape}")
    if sigma.shape != d.shape + d.shape[-1:]:
        raise ValueError(f"covariance shape {sigma.shape} does not match d {d.shape}")
    tol = PHYSICALITY_TOL * np.abs(sigma).max(axis=(-2, -1), initial=1.0)
    if not (np.isfinite(tol).all() and np.isfinite(d).all()):
        raise UnphysicalStateError("state holds a NaN or infinite first moment or covariance entry")
    if (np.abs(sigma - sigma.swapaxes(-1, -2)).max(axis=(-2, -1)) > tol).any():
        raise ValueError("covariance matrix is not symmetric")
    gamma = symplectic_form(d.shape[-1] // 2)
    herm = sigma + 1j * gamma
    try:
        np.linalg.cholesky(herm + tol[..., None, None] * np.eye(d.shape[-1]))
    except np.linalg.LinAlgError:
        eigmin = np.linalg.eigvalsh(herm).min(axis=-1)
        low = eigmin < -tol
        if low.any():
            raise UnphysicalStateError(f"state violates the uncertainty bound: min eig {eigmin[low].min():.3e}")


def homodyne_by_pseudo_inverse(
    state: GaussianState, measured_mode: int, target_mode: int, quadrature: str = "q", gain: float = 0.0
) -> GaussianState:
    """`homodyne_feedforward` with the pseudo-inverse of the projected measured block from `np.linalg.pinv`."""
    n = state.n_modes
    if measured_mode == target_mode or not (0 <= measured_mode < n and 0 <= target_mode < n):
        raise ValueError("measured and target modes must be distinct valid modes")
    if quadrature not in ("q", "p"):
        raise ValueError(f"quadrature must be 'q' or 'p', got {quadrature!r}")

    rest = [m for m in range(n) if m != measured_mode]
    ridx = _quadratures(rest)
    midx = _quadratures([measured_mode])

    a = _block(state.sigma, ridx, ridx)
    b = _block(state.sigma, midx, midx)
    c = _block(state.sigma, ridx, midx)

    iq = 0 if quadrature == "q" else 1
    b_qq = b[..., iq, iq]
    if (b_qq <= _PINV_RCOND * np.maximum(1.0, np.abs(b).max(axis=(-2, -1)))).any():
        raise ValueError("measured quadrature has no variance; homodyne statistics degenerate")

    pi = np.zeros((2, 2))
    pi[iq, iq] = 1.0
    pinv = np.linalg.pinv(pi @ b @ pi, rcond=_PINV_RCOND)

    e_q = np.zeros(2)
    e_q[iq] = 1.0
    e_t = np.zeros(len(ridx))
    e_t[2 * rest.index(target_mode) + iq] = 1.0

    sigma_cond = a - c @ pinv @ _transpose(c)
    v = _mat_vec(c @ pinv, e_q)
    shift = v + gain * e_t
    sigma_avg = sigma_cond + b_qq[..., None, None] * (shift[..., :, None] * shift[..., None, :])

    d_avg = state.d[..., ridx] + (gain * state.d[..., midx[iq]])[..., None] * e_t
    return GaussianState(d_avg, 0.5 * (sigma_avg + _transpose(sigma_avg)))


def compose_from_identity(channels) -> PerturbativeChannel:
    """`compose_sequence` that composes every channel, the first one too, onto the identity."""
    out = PerturbativeChannel.identity()
    for ch in channels:
        out = compose(ch, out)
    return out
