"""Independent routes to quantities the package computes another way.

None of these is on a CLI path.  Each one reaches a result of `rqss` by a
different method (adaptive quadrature, first-order mode sums, a physical
dilation, a plain loop in place of a batched expression), so the tests can
compare the two routes.
"""

import numpy as np
from scipy.integrate import quad

from rqss.channel import complex_pair_block
from rqss.gaussian import GaussianState, apply_symplectic, beam_splitter, partial_trace, tensor
from rqss.modes import (
    BogoliubovSet,
    CavityGeometry,
    ModeSums,
    minkowski_frequency,
    minkowski_mode,
    rindler_frequency,
    rindler_mode,
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
