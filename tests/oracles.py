"""Independent routes to quantities the package computes another way.

None of these is on a CLI path.  Each one reaches a result of `rqss` by a
different method (adaptive quadrature, first-order mode sums, a physical
dilation, a plain loop in place of a batched expression or of shared
quadrature tables, the protocol's stages written out one by one), so the
tests can compare the two routes.
"""

import math

import numpy as np
from scipy.integrate import quad

from rqss.channel import apply_channel, complex_pair_block
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
    tensor,
)
from rqss.modes import (
    DEFAULT_LADDER,
    DEFAULT_VALIDATION_H,
    BogoliubovSet,
    CavityGeometry,
    ModeSums,
    TransitionFit,
    bogoliubov_exact,
    minkowski_frequency,
    minkowski_mode,
    rindler_frequency,
    rindler_mode,
)
from rqss.protocol import (
    DEFAULT_DECODER_GAIN,
    DEFAULT_DECODER_SQUEEZE,
    encode,
    round_trip_channel,
    transit_channel,
)


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


def fit_by_exact_loop(
    length: float = 1.0,
    n_max: int = 20,
    ladder: tuple = DEFAULT_LADDER,
    validation_h: float = DEFAULT_VALIDATION_H,
    rel_floor: float = 1e-9,
):
    """(a, b, validation, quadrature_error) of `fit_transition`, one `bogoliubov_exact` per h.

    Each acceleration builds its own quadrature tables; the Vandermonde solve
    and the held-out validation are those of `fit_transition`.
    """
    ladder = tuple(sorted(set(float(h) for h in ladder), reverse=True))
    scale = ladder[0]
    vand = np.vander(np.array(ladder) / scale, 5, increasing=True)[:, 1:]
    quad_err = 0.0
    rows_a, rows_b = [], []
    for h in ladder:
        exact = bogoliubov_exact(CavityGeometry(length, h, n_max))
        quad_err = max(quad_err, exact.quadrature_error)
        rows_a.append(exact.alpha.real - np.eye(n_max))
        rows_b.append(exact.beta.real)
    powers = scale ** np.arange(1, 5)
    a = (np.linalg.solve(vand, np.stack([m.ravel() for m in rows_a])) / powers[:, None]).reshape(4, n_max, n_max)
    b = (np.linalg.solve(vand, np.stack([m.ravel() for m in rows_b])) / powers[:, None]).reshape(4, n_max, n_max)

    series = TransitionFit(length, n_max, ladder, validation_h, a, b, {}, quad_err)
    held_out = bogoliubov_exact(CavityGeometry(length, validation_h, n_max))
    ref_a, ref_b = held_out.alpha.real, held_out.beta.real
    abs_a = np.abs(series.alpha_at(validation_h) - ref_a)
    abs_b = np.abs(series.beta_at(validation_h) - ref_b)
    dev_a = np.abs(ref_a - np.eye(n_max))
    dev_b = np.abs(ref_b)
    rel_a = np.where(dev_a > rel_floor, abs_a / np.maximum(dev_a, rel_floor), 0.0)
    rel_b = np.where(dev_b > rel_floor, abs_b / np.maximum(dev_b, rel_floor), 0.0)
    validation = {
        "h": validation_h,
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
