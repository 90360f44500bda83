"""Independent routes to quantities the package computes another way.

None of these is on a CLI path.  Each one reaches a result of `rqss` by a
different method (adaptive quadrature, first-order mode sums, a physical
dilation, a plain loop in place of a batched expression or of shared
quadrature tables, whole-array temporaries in place of operands refilled in
place, the protocol's stages written out one by one, the
closed-form first- and second-order coefficients, T2 at n_max -> infinity
as a Bernoulli polynomial, nbar from one row of the closed-form first order,
the noise block as a sum over coupled modes, one segment or one report
at a time in place of the stacked u-grid, one rounding per grid point in
place of one array call, each CSV value converted by its type before it
is printed, per-state maxima and per-call constants in the state check, a
pseudo-inverse in the homodyne update, an identity composed in ahead of a
journey, a marginal picked by index in place of one share's contiguous
block, LAPACK's singular values in place of their 2x2 closed form), so the
tests can compare the two routes.
The vacuum state, which only tests build, lives here too, as do the cavity
geometry, mode functions, frequencies and segment durations the routes
need: the package itself works only with their overlaps, as functions of
h = a L alone.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from rqss.channel import (
    _DEGENERATE_NOISE_FLOOR,
    _RANK_CUTOFF,
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    complex_pair_block,
    compose,
    cp_residual,
    embed_channel,
    free_channel,
    segment_channel,
    t2_from_sums,
)
from rqss.gaussian import (
    PHYSICALITY_TOL,
    GaussianState,
    UnphysicalStateError,
    _frozen,
    _mat_vec,
    _quadratures,
    _transpose,
    apply_symplectic,
    beam_splitter,
    fidelity_pure_mixed,
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
    _gauss_panels,
    _panels,
    mode_sums,
    segment_maps,
)
from rqss.protocol import (
    DEFAULT_F2_LADDER,
    FIGURES,
    FidelityReport,
    _direct_f2_scenario12,
    _extrapolated_f2,
    decoder_maps,
    encode,
    fidelity_closed_forms,
    inertial_phase,
)


def vacuum(n_modes: int = 1) -> GaussianState:
    """The n-mode vacuum: zero means, identity covariance; zero modes are rejected by the state check."""
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


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


def _inertial_rule(n_max: int, panels: int):
    """Nodes, weights and normalized inertial sine table of one rule; h-independent."""
    xi, ws = _gauss_panels(0.0, 1.0, panels)
    n = np.arange(1, n_max + 1)
    s_inertial = np.sin(np.outer(n * np.pi, xi))
    s_inertial /= np.sqrt(n * np.pi)[:, None]
    return xi, ws, s_inertial


def _transition_matrices(h: float, n_max: int, xi, ws, s_inertial):
    """(alpha, beta) at one acceleration, each (n_max x Q) operand a fresh whole array."""
    x_l = 1.0 / h - 0.5
    span = 2.0 * np.arctanh(0.5 * h)
    n = np.arange(1, n_max + 1)
    om = n * np.pi
    big_om = n * np.pi / span

    s_wedge = np.sin(np.outer(n * np.pi / span, np.log1p(xi / x_l)))
    s_wedge /= np.sqrt(n * np.pi)[:, None]

    overlap = (s_wedge * ws) @ s_inertial.T
    overlap_inv_x = (s_wedge * (ws / (x_l + xi))) @ s_inertial.T
    freq_term = overlap * om[None, :]
    wedge_term = big_om[:, None] * overlap_inv_x
    return freq_term + wedge_term, freq_term - wedge_term


def exact_matrices_whole_array(hs, n_max: int, panels: int) -> list:
    """`rqss.modes._exact_matrices` with whole-array temporaries: one table, then fresh operands per h.

    The package fills its two operands in place, a few rows at a time; every
    step is elementwise, so the bits must be these.
    """
    rule = _inertial_rule(n_max, panels)
    return [_transition_matrices(h, n_max, *rule) for h in hs]


def bogoliubov_exact(geometry: CavityGeometry) -> ExactBogoliubov:
    """Real transition matrices of one acceleration, by the package's fixed-panel Gauss-Legendre quadrature.

    Rows index wedge modes, columns inertial modes.  The matrices are the
    fit's rule, built with whole-array temporaries; its largest change from
    a rule of half the panels, at this acceleration alone, is reported as
    `quadrature_error`.  The package's quadrature works at L = 1 only.
    """
    geometry._require_accelerated()
    if geometry.length != 1.0:
        raise ValueError(f"the package's quadrature takes h alone (L = 1), got length {geometry.length}")
    h, n_max = geometry.h, geometry.n_max
    [refined] = exact_matrices_whole_array([h], n_max, _panels(n_max))
    [coarse] = exact_matrices_whole_array([h], n_max, _panels(n_max) // 2)
    err = float(max(np.max(np.abs(c - r)) for c, r in zip(coarse, refined)))
    return ExactBogoliubov(alpha=refined[0], beta=refined[1], quadrature_error=err)


def grid_point_by_point(start: float, stop: float, step: float) -> list:
    """The u-grid `start:stop:step` of the CLI's `--grid`, rounded to 12 decimals one point at a time."""
    steps = (stop - start) / step
    grid = [float(np.round(start + i * step, 12)) for i in range(int(round(steps)) + 1)]
    return [u for u in grid if u <= stop + 1e-12]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def csv_text_by_type(header, rows) -> str:
    """The CLI's CSV text with each value converted by its type first: an integer by `int`, anything else by `float`."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def first_order_closed_form(n_max: int):
    """(a1, b1): the h-coefficients of the transition matrices in closed form.

    For mode numbers m + n odd, a1 = -2 sqrt(mn) / (pi^2 (m - n)^3) and
    b1 = 2 sqrt(mn) / (pi^2 (m + n)^3); both vanish when m + n is even
    (Bruschi, Fuentes & Louko, PRD 85, 061701(R) (2012)).  Independent of
    the cavity length, since h = a L is already dimensionless.
    """
    modes = np.arange(1, n_max + 1, dtype=float)
    return _first_order_entries(modes[:, None], modes[None, :])


def _first_order_entries(m, n):
    """(a1, b1) of `first_order_closed_form` at mode numbers m and n, float arrays that broadcast."""
    odd = (m + n) % 2 == 1
    root = np.sqrt(m * n)
    diff = np.where(odd, m - n, 1.0)  # m = n only where m + n is even
    a1 = np.where(odd, -2.0 * root / (np.pi**2 * diff**3), 0.0)
    b1 = np.where(odd, 2.0 * root / (np.pi**2 * (m + n) ** 3), 0.0)
    return a1, b1


def nbar_row_only(k: int, us, n_max: int) -> np.ndarray:
    """nbar of mode k at the phases `us` from row k of the closed-form first order alone.

    f_alpha, f_beta and g are the sums of `mode_sums` over l != k, with
    alpha1[k, l] = a1[k, l] (ebar_k - ebar_l) and beta1[k, l] = b1[k, l]
    (ebar_k - e_l): O(n_max) per phase, no n_max x n_max matrix.  With
    S = f_alpha + f_beta and D = f_alpha - f_beta, nbar = sqrt(S^2 - |g|^2)
    / (2D) - 1/2 is evaluated as (4 f_alpha f_beta - |g|^2) / (2D (sqrt(S^2
    - |g|^2) + D)), which subtracts no 1/2 from a value near 1/2.
    """
    us = np.asarray(us, dtype=float)[:, None]
    n = np.arange(1, n_max + 1, dtype=float)
    n = n[n != k]
    a1, b1 = _first_order_entries(float(k), n)
    ebar_k = np.exp(2j * np.pi * k * us)
    alpha1 = a1 * (ebar_k - np.exp(2j * np.pi * n * us))
    beta1 = b1 * (ebar_k - np.exp(-2j * np.pi * n * us))
    f_alpha = 0.5 * np.sum(np.abs(alpha1) ** 2, axis=-1)
    f_beta = 0.5 * np.sum(np.abs(beta1) ** 2, axis=-1)
    g2 = np.abs(np.sum(alpha1 * beta1, axis=-1)) ** 2
    s, d = f_alpha + f_beta, f_alpha - f_beta
    return (4.0 * f_alpha * f_beta - g2) / (2.0 * d * (np.sqrt(s * s - g2) + d))


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
    """The coefficients of both closed forms as a `TransitionFit`."""
    a1, b1 = first_order_closed_form(n_max)
    a2, b2 = second_order_closed_form(n_max)
    return TransitionFit(n_max, a1, a2, b1, b2, {})


def t2_limit(k, u):
    """T2 of mode k at phase u in the limit n_max -> infinity, exactly.

    T2 = 2 (f_alpha - f_beta), with f_alpha = (1/2) sum_{l != k}
    |alpha1[k, l]|^2 and f_beta = (1/2) sum_l |beta1[k, l]|^2 over the
    first-order rows of the segment map, alpha1[k, l] = a1[k, l] (ebar_k -
    ebar_l) and beta1[k, l] = b1[k, l] (ebar_k - e_l), ebar_n = exp(2 pi i n
    u) and e_n its conjugate.  With the closed forms of
    `first_order_closed_form`, put d = l - k in f_alpha and d = -(k + l) in
    f_beta: both terms read 4k(k + d)(1 - cos 2 pi d u) / (pi^4 d^6) over odd
    d, f_alpha's for d >= 1 - k and f_beta's, with the opposite sign, for
    d <= -k - 1.  So the l <= 0 terms of the difference sum are exactly
    f_beta's terms, and T2 is that term summed over every odd d.  The part
    odd in d cancels between d and -d, which leaves

        T2 = (16 k^2 / pi^4) sum_{d odd >= 1} (1 - cos 2 pi d u) / d^6
           = (16 k^2 / pi^4) [(63/64) zeta(6) - C6(u) + C6(2u) / 64],

    since the odd d are all d less the even ones, d = 2m.  The even-power
    cosine sum is a Bernoulli polynomial, C6(u) = sum_{d >= 1} cos(2 pi d u)
    / d^6 = (2 pi)^6 B6({u}) / (2 * 6!), with B6(x) = x^6 - 3x^5 + 5x^4/2
    - x^2/2 + 1/42 and zeta(6) = pi^6 / 945.  At u = 1/4 this is
    k^2 pi^2 / 60.  Arrays of k and u broadcast.
    """
    u = np.asarray(u, dtype=float)

    def c6(x):
        x = np.mod(x, 1.0)
        b6 = x**6 - 3.0 * x**5 + 2.5 * x**4 - 0.5 * x**2 + 1.0 / 42.0
        return (2.0 * np.pi) ** 6 * b6 / (2.0 * math.factorial(6))

    zeta6 = np.pi**6 / 945.0
    return 16.0 * np.square(k) / np.pi**4 * (63.0 / 64.0 * zeta6 - c6(u) + c6(2.0 * u) / 64.0)


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
    """n2 of mode k as the sum of each coupled mode's block blk blk^T, in mode order; the package reads it off the mode sums."""
    row = k - 1
    n2 = np.zeros((2, 2))
    for l in range(bogo.n_max):
        if l != row:
            blk = complex_pair_block(bogo.alpha1[row, l], bogo.beta1[row, l])
            n2 += blk @ blk.T
    return n2


def noise_block_from_sums(sums: ModeSums) -> np.ndarray:
    """n2 from (f_alpha, f_beta, g): the isotropic part plus the skew part, as two 2 x 2 matrices."""
    g = sums.g_cross
    iso = 2.0 * (sums.f_alpha + sums.f_beta) * np.eye(2)
    skew = 2.0 * np.array([[-g.real, g.imag], [g.imag, g.real]])
    return iso + skew


def invariant_decisions_by_svd(channel: PerturbativeChannel):
    """(degeneracy mask, rank) of `channel_invariants` from LAPACK's singular values (`np.linalg.svd`), not the closed form.

    The same threshold tests: the spectral norm of n2 below the noise floor,
    and the singular values of M = m0 + m2 and N = n2 above the rank cutoff.
    """
    svals_n = np.linalg.svd(channel.n2, compute_uv=False)
    degenerate = svals_n[..., 0] < _DEGENERATE_NOISE_FLOOR
    rank_m = np.sum(np.linalg.svd(channel.m0 + channel.m2, compute_uv=False) > _RANK_CUTOFF, axis=-1)
    rank_n = np.sum(svals_n > _RANK_CUTOFF * np.maximum(1.0, svals_n[..., :1]), axis=-1)
    return degenerate, np.where(degenerate, 0, np.minimum(rank_m, rank_n))


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


@dataclass(frozen=True)
class LadderFit:
    """All four orders the ladder fit solves for: `a` and `b` stack orders h..h^4, shape (4, N, N).

    The package keeps orders one and two; the cache formats before 4 stored
    all four.  `quadrature_error` is the largest over the ladder of
    `bogoliubov_exact`'s, which `rqss.modes.quadrature_error` measures on
    demand, and which cache formats before 5 stored.
    """

    n_max: int
    a: np.ndarray
    b: np.ndarray
    validation: dict
    quadrature_error: float


def fit_by_exact_loop(n_max: int = 20, rel_floor: float = 1e-9) -> LadderFit:
    """The four-order fit of `fit_transition`, one `bogoliubov_exact` per h.

    Each acceleration builds its own quadrature tables; the Vandermonde solve
    on `DEFAULT_LADDER` and the held-out validation of all four orders at
    `DEFAULT_VALIDATION_H` are those of `fit_transition`.
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

    h = DEFAULT_VALIDATION_H
    held_out = bogoliubov_exact(CavityGeometry(h=h, n_max=n_max))
    ref_a, ref_b = held_out.alpha, held_out.beta
    series_a, series_b = np.eye(n_max), np.zeros((n_max, n_max))
    for k in range(4):
        series_a = series_a + a[k] * h ** (k + 1)
        series_b = series_b + b[k] * h ** (k + 1)
    abs_a = np.abs(series_a - ref_a)
    abs_b = np.abs(series_b - ref_b)
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
    return LadderFit(n_max, a, b, validation, float(quad_err))


def full_maps(fit: TransitionFit, u: float) -> BogoliubovSet:
    """The full segment maps, every mode's row, at one phase u."""
    return segment_maps(fit, u, range(1, fit.n_max + 1))


def journey_per_u(scenario: str, fit: TransitionFit, k: int, u: float) -> PerturbativeChannel:
    """The journey of a scenario at one u, from the full one-segment maps at u (and 2u).

    Scenarios 23 and 13 take a transit: segment, tuned free leg, segment.
    Scenario 12 takes a round trip: segment, leg, the merged middle segment of
    phase 2u, leg, segment.  Each channel is composed onto the ones before it.
    """
    seg = segment_channel(full_maps(fit, u), k)
    leg = free_channel(inertial_phase(k, u))
    if scenario != "12":
        return compose(seg, compose(leg, seg))
    seg_mid = segment_channel(full_maps(fit, 2.0 * u), k)
    return compose(seg, compose(leg, compose(seg_mid, compose(leg, seg))))


def _block(sigma: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (rows, cols) block of each covariance in a stack."""
    return sigma[..., rows[:, None], cols]


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Marginal state on the listed modes, in the order given, picked by fancy indexing.

    The package reads a decoded share as the contiguous 2x2 block of its
    mode (`protocol.collaborate`); this route picks any modes, reordered.
    """
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep) or not all(0 <= m < state.n_modes for m in keep):
        raise ValueError(f"bad mode selection {keep} for {state.n_modes} modes")
    idx = _quadratures(keep)
    return GaussianState(state.d[..., idx], _block(state.sigma, idx, idx))


def _decoded_by_stages(scenario: str, state: GaussianState, M: np.ndarray, N: np.ndarray) -> GaussianState:
    """The decoded share of encoded shares `state`, each travelling share sent through (M, N) on its own.

    Shares 0 and 1 travel in every scenario, share 2 in scenarios 23 and 13 only.
    """
    smap, kept = decoder_maps(scenario)
    for mode in (0, 1) if scenario == "12" else (0, 1, 2):
        state = apply_channel(*embed_channel(M, N, 3, (mode,)), state)
    return partial_trace(apply_symplectic(smap, state), [kept])


def fidelity_by_stages(scenario: str, config, fit: TransitionFit, h: float) -> float:
    """`simulate_fidelity` as its stage sequence, each stage a public primitive.

    The travelling shares take the journey one at a time: shares 0 and 1,
    and in scenarios 23 and 13 share 2 too.  The scenario's decoder map then
    acts on the three shares, and the fidelity is read off the share it keeps.
    """
    secret = config.make_secret()
    M, N = journey_per_u(scenario, fit, config.k, config.u).evaluate(h)
    return fidelity_pure_mixed(secret, _decoded_by_stages(scenario, encode(secret, config.s), M, N))


# Per-mode value of each u-grid figure: (column prefix, value(bogo, k, u, config)).
_MODE_FIGURES = {
    "T2": ("T2", lambda bogo, k, u, config: t2_from_sums(mode_sums(bogo, k))),
    "nbar": ("nbar", lambda bogo, k, u, config: channel_invariants(segment_channel(bogo, k)).nbar),
    "F2_23": ("F2", lambda bogo, k, u, config: fidelity_closed_forms("23", mode_sums(bogo, k), s=config.s)),
}


def figure_data_per_u(name: str, fit: TransitionFit, grid, config):
    """One figure of `figure_tables`, built one segment map, channel and round trip per u."""
    grid = [float(u) for u in grid]
    if name in _MODE_FIGURES:
        prefix, value = _MODE_FIGURES[name]
        header = ["u"] + [f"{prefix}_k{k}" for k in (1, 2, 3)]
        rows = []
        for u in grid:
            bogo = full_maps(fit, u)
            rows.append([u] + [value(bogo, k, u, config) for k in (1, 2, 3)])
        return header, rows
    if name == "F2_12_squeezed":
        header = ["u", "F2_r0.0625", "F2_r0.125", "F2_r0.25"]
        rows = []
        for u in grid:
            chan = journey_per_u("12", fit, config.k, u)
            rows.append([u] + [_direct_f2_scenario12(chan, squeezed_vacuum(r)) for r in (0.0625, 0.125, 0.25)])
        return header, rows
    raise ValueError(f"unknown figure {name!r}; choices: {FIGURES}")


def invariant_rows_per_u(fit: TransitionFit, grid, h: float):
    """The rows and least CP residual of `rqss invariants`, one segment per u."""
    rows = []
    worst_cp = np.inf
    for u in grid:
        bogo = full_maps(fit, u)
        for k in (1, 2, 3):
            chan = segment_channel(bogo, k)
            inv = channel_invariants(chan)
            worst_cp = min(worst_cp, cp_residual(*chan.evaluate(h)))
            rows.append([u, k, inv.t2, inv.nbar, inv.rank])
    return rows, worst_cp


def fidelity_report_per_u(scenario: str, config, fit: TransitionFit) -> FidelityReport:
    """`fidelity_report` at config.u with its own journey, encoding and mode sums: one u, no grid.

    The journey is the one-u `journey_per_u`, the mode sums come from the
    full one-segment maps at u (and 2u on a round trip), and the three
    ladder accelerations and h run through the stages as one stack, each
    travelling share on its own.  The h-ladder fit is `_extrapolated_f2` on
    the one row of ladder fidelities.
    """
    u, k = config.u, config.k
    journey = journey_per_u(scenario, fit, k, u)
    phases = (u, 2.0 * u) if scenario == "12" else (u,)
    sums = [mode_sums(full_maps(fit, v), k) for v in phases]
    secret = config.make_secret()
    M, N = journey.evaluate(np.array([*DEFAULT_F2_LADDER, config.h]))
    *sims, f_sim = fidelity_pure_mixed(secret, _decoded_by_stages(scenario, encode(secret, config.s), M, N)).tolist()

    [(f2_extrap, extrap_source)] = _extrapolated_f2([sims])

    coherent_secret = config.secret == "coherent"
    if scenario == "12":
        f0 = 1.0
        f0_source = "round trip is the identity at h = 0"
        f2 = _direct_f2_scenario12(journey, secret)
        f2_source = "trace of the round-trip second-order moments"
        f2_closed = fidelity_closed_forms("12", *sums) if coherent_secret else float("nan")
    else:
        ideal = GaussianState(secret.d, secret.sigma + 2.0 * math.exp(-config.s) * np.eye(2))
        f0 = fidelity_pure_mixed(secret, ideal)
        f0_source = "decoded zeroth-order moments: sigma + 2 e^{-s} I"
        if coherent_secret:
            f2 = f2_closed = fidelity_closed_forms(scenario, sums[0], s=config.s)
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


# Singular values of the q-projected measured block below this share of the largest count as zero.
_PINV_RCOND = 1e-12


def homodyne_by_pseudo_inverse(state: GaussianState, measured_mode: int, target_mode: int, gain: float = 0.0) -> GaussianState:
    """Homodyne one mode's q and displace the target's q by gain * outcome, averaged over outcomes.

    The conditional covariance takes the pseudo-inverse of the q-projected
    measured block from `np.linalg.pinv`; the average over outcomes adds the
    spread of the fed-forward means.  Returns the state of the unmeasured
    modes in their original order, or the stack of them.
    """
    n = state.n_modes
    if measured_mode == target_mode or not (0 <= measured_mode < n and 0 <= target_mode < n):
        raise ValueError("measured and target modes must be distinct valid modes")

    rest = [m for m in range(n) if m != measured_mode]
    ridx = _quadratures(rest)
    midx = _quadratures([measured_mode])

    a = _block(state.sigma, ridx, ridx)
    b = _block(state.sigma, midx, midx)
    c = _block(state.sigma, ridx, midx)

    b_qq = b[..., 0, 0]
    if (b_qq <= _PINV_RCOND * np.maximum(1.0, np.abs(b).max(axis=(-2, -1)))).any():
        raise ValueError("measured quadrature has no variance; homodyne statistics degenerate")

    pi = np.diag([1.0, 0.0])
    pinv = np.linalg.pinv(pi @ b @ pi, rcond=_PINV_RCOND)

    e_q = np.array([1.0, 0.0])
    e_t = np.zeros(len(ridx))
    e_t[2 * rest.index(target_mode)] = 1.0

    sigma_cond = a - c @ pinv @ _transpose(c)
    v = _mat_vec(c @ pinv, e_q)
    shift = v + gain * e_t
    sigma_avg = sigma_cond + b_qq[..., None, None] * (shift[..., :, None] * shift[..., None, :])

    d_avg = state.d[..., ridx] + (gain * state.d[..., midx[0]])[..., None] * e_t
    return GaussianState(d_avg, 0.5 * (sigma_avg + _transpose(sigma_avg)))


def compose_from_identity(channels) -> PerturbativeChannel:
    """Channels given in time order composed one by one, the first one too, onto the identity channel."""
    out = PerturbativeChannel(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    for ch in channels:
        out = compose(ch, out)
    return out
