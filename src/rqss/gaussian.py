"""Gaussian states and symplectic operations on quadrature phase space.

Conventions used throughout the package:

* quadratures are ordered ``(q1, p1, q2, p2, ...)``;
* first moments ``d_i = <X_i>``;
* the covariance matrix is scaled so the vacuum is the identity,
  ``sigma_ij = <X_i X_j + X_j X_i> - 2 <X_i><X_j>``;
* the symplectic form is the block-diagonal ``[[0, 1], [-1, 0]]``.

With this scaling a state is physical iff ``sigma + i*Gamma >= 0`` and a
single-mode state is pure iff ``det sigma = 1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Construction-time checks are deliberately loose compared to the 1e-12
# symplectic residuals the package actually achieves; they only guard
# against genuinely broken inputs.
PHYSICALITY_TOL = 1e-9
SYMPLECTIC_TOL = 1e-10
_PINV_RCOND = 1e-12


class UnphysicalStateError(ValueError):
    """A state holds a NaN or infinite moment, or violates the uncertainty bound sigma + i Gamma >= 0."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Antisymmetric form Gamma for `n_modes` modes, (q,p) interleaved; shared, so read-only."""
    gamma = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        gamma[2 * k, 2 * k + 1] = 1.0
        gamma[2 * k + 1, 2 * k] = -1.0
    return _frozen(gamma)


@functools.cache
def _identity(n_modes: int) -> np.ndarray:
    """Phase-space identity for `n_modes` modes; shared, so read-only."""
    return _frozen(np.eye(2 * n_modes))


@functools.cache
def _i_gamma(n_modes: int) -> np.ndarray:
    """i Gamma for `n_modes` modes, as the state check adds it to sigma; shared, so read-only."""
    out = 1j * symplectic_form(n_modes)
    out.flags.writeable = False
    return out


def check_symplectic(matrix: np.ndarray) -> float:
    """Max-abs residual of S Gamma S^T - Gamma."""
    matrix = np.asarray(matrix, dtype=float)
    n2 = matrix.shape[0]
    if matrix.shape != (n2, n2) or n2 % 2:
        raise ValueError(f"not a phase-space matrix: shape {matrix.shape}")
    gamma = symplectic_form(n2 // 2)
    return float(np.max(np.abs(matrix @ gamma @ matrix.T - gamma)))


def _item(value):
    """A 0-d result as a Python scalar; a stacked one unchanged."""
    return value.item() if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class GaussianState:
    """First moments and covariance matrix of an n-mode Gaussian state.

    `d` has shape (..., 2n) and `sigma` (..., 2n, 2n): leading axes hold a
    stack of states, each checked on its own.  A state must be finite,
    symmetric and satisfy the uncertainty bound sigma + i Gamma >= -tol, with
    tol = PHYSICALITY_TOL * max|sigma| of that state.  A stack is accepted when one
    Cholesky factorization of sigma + i Gamma + tol I succeeds; otherwise the
    eigenvalues of sigma + i Gamma decide, and a rejection reports the
    smallest eigenvalue below the bound.
    """

    d: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        d = _frozen(self.d)
        sigma = _frozen(self.sigma)
        if d.ndim < 1 or d.shape[-1] % 2:
            raise ValueError(f"first moments must have even length, got {d.shape}")
        if d.shape[-1] == 0:
            raise ValueError("need at least one mode")
        if sigma.shape != d.shape + d.shape[-1:]:
            raise ValueError(f"covariance shape {sigma.shape} does not match d {d.shape}")
        # Tolerances scale with each covariance so that strongly squeezed
        # states (entries ~ cosh s) are not rejected on eigensolver roundoff.
        tol = PHYSICALITY_TOL * np.abs(sigma).max(axis=(-2, -1), initial=1.0)
        # A maximum is NaN or inf exactly where its array holds one, so a
        # state's tol is finite exactly when its sigma is.  The check comes
        # before any arithmetic on sigma, which would warn on inf.
        if not (math.isfinite(tol.max(initial=0.0)) and math.isfinite(np.abs(d).max(initial=0.0))):
            raise UnphysicalStateError("state holds a NaN or infinite first moment or covariance entry")
        # sigma - sigma^T is antisymmetric to the bit, so one of each pair of
        # its entries exceeds tol exactly when their common magnitude does.
        tol = tol[..., None, None]
        if (sigma - sigma.swapaxes(-1, -2) > tol).any():
            raise ValueError("covariance matrix is not symmetric")
        n_modes = d.shape[-1] // 2
        # Physicality: sigma + i Gamma is Hermitian and must be PSD.  A
        # Cholesky factorization of it shifted by each state's tol succeeds
        # when every eigenvalue clears -tol; the shift also keeps pure states,
        # whose sigma + i Gamma is singular, factorable.  A stack it cannot
        # factor goes to the eigenvalues, which decide and report.
        try:
            np.linalg.cholesky(sigma + tol * _identity(n_modes) + _i_gamma(n_modes))
        except np.linalg.LinAlgError:
            eigmin = np.linalg.eigvalsh(sigma + _i_gamma(n_modes)).min(axis=-1)
            low = eigmin < -tol[..., 0, 0]
            if low.any():
                raise UnphysicalStateError(f"state violates the uncertainty bound: min eig {eigmin[low].min():.3e}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_modes(self) -> int:
        return self.d.shape[-1] // 2


@dataclass(frozen=True)
class SymplecticMap:
    """Linear phase-space map; the matrix is verified symplectic on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _frozen(np.atleast_2d(self.matrix))
        residual = check_symplectic(matrix)
        if residual > SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic: residual {residual:.3e}")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


# ---------------------------------------------------------------------------
# state constructors


def vacuum(n_modes: int = 1) -> GaussianState:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def coherent(q0, p0) -> GaussianState:
    """Single-mode coherent state centred at (q0, p0), |alpha|^2 = (q0^2+p0^2)/2; arrays give a stack."""
    d = np.stack(np.broadcast_arrays(q0, p0), axis=-1)
    return GaussianState(d, np.broadcast_to(np.eye(2), d.shape + (2,)))


def squeezed_vacuum(r: float) -> GaussianState:
    """Single-mode squeezed vacuum, q-variance reduced by e^{-2r}.

    A variance that overflows is left infinite, for the state check to reject.
    """
    with np.errstate(over="ignore"):
        variances = np.exp([-2.0 * r, 2.0 * r])
    return GaussianState(np.zeros(2), np.diag(variances))


def two_mode_squeezed_vacuum(s: float) -> GaussianState:
    """Two-mode squeezed vacuum with Var((q1 - q2)/sqrt 2) = e^{-s} * vacuum.

    An entry that overflows is left infinite, for the state check to reject.
    """
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(s), np.sinh(s)
    sigma = np.array([[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh], [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]])
    return GaussianState(np.zeros(4), sigma)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state with `a`'s modes first; stacks broadcast against each other."""
    na, n = a.d.shape[-1], a.d.shape[-1] + b.d.shape[-1]
    d = np.zeros(np.broadcast_shapes(a.d.shape[:-1], b.d.shape[:-1]) + (n,))
    sigma = np.zeros(d.shape + (n,))
    d[..., :na], d[..., na:] = a.d, b.d
    sigma[..., :na, :na], sigma[..., na:, na:] = a.sigma, b.sigma
    return GaussianState(d, sigma)


# ---------------------------------------------------------------------------
# symplectic constructors


def _embed(block: np.ndarray, modes: tuple[int, ...], n_modes: int) -> np.ndarray:
    """Place a block acting on `modes` into the 2n x 2n identity."""
    full = np.eye(2 * n_modes)
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
    full[np.ix_(idx, idx)] = block
    return full


def rotation_block(phi: float) -> np.ndarray:
    """2x2 phase-rotation block; e^{-i phi} on the mode operator."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def phase_rotation(phi: float, mode: int = 0, n_modes: int = 1) -> SymplecticMap:
    return SymplecticMap(_embed(rotation_block(phi), (mode,), n_modes))


def squeeze(r: float, mode: int = 0, n_modes: int = 1) -> SymplecticMap:
    """Single-mode squeezer: q -> e^{-r} q, p -> e^{r} p."""
    return SymplecticMap(_embed(np.diag([np.exp(-r), np.exp(r)]), (mode,), n_modes))


def beam_splitter(t: float, modes: tuple[int, int] = (0, 1), n_modes: int = 2) -> SymplecticMap:
    """Beam splitter of transmissivity t in [0, 1] on the given mode pair.

    Output 1 = sqrt(t) in1 + sqrt(1-t) in2, output 2 = -sqrt(1-t) in1 + sqrt(t) in2,
    applied identically to q and p.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t}")
    ct, st = np.sqrt(t), np.sqrt(1.0 - t)
    block = np.block([[ct * np.eye(2), st * np.eye(2)], [-st * np.eye(2), ct * np.eye(2)]])
    return SymplecticMap(_embed(block, tuple(modes), n_modes))


def _transpose(matrix: np.ndarray) -> np.ndarray:
    return matrix.swapaxes(-1, -2)


def _mat_vec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector over stacks of either; the vector gets an explicit trailing axis."""
    return (matrix @ vector[..., None])[..., 0]


def apply_symplectic(smap: SymplecticMap, state: GaussianState) -> GaussianState:
    """The map applied to a state or to each state of a stack."""
    if smap.n_modes != state.n_modes:
        raise ValueError("mode count mismatch between map and state")
    s = smap.matrix
    return GaussianState(_mat_vec(s, state.d), s @ state.sigma @ s.T)


# ---------------------------------------------------------------------------
# reduction, measurement, fidelity


def _quadratures(modes) -> np.ndarray:
    return np.concatenate([[2 * m, 2 * m + 1] for m in modes])


def _block(sigma: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (rows, cols) block of each covariance in a stack."""
    return sigma[..., rows[:, None], cols]


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Marginal state on the listed modes, in the order given."""
    keep = list(keep)
    if not keep or len(set(keep)) != len(keep) or not all(0 <= m < state.n_modes for m in keep):
        raise ValueError(f"bad mode selection {keep} for {state.n_modes} modes")
    idx = _quadratures(keep)
    return GaussianState(state.d[..., idx], _block(state.sigma, idx, idx))


def homodyne_feedforward(
    state: GaussianState,
    measured_mode: int,
    target_mode: int,
    quadrature: str = "q",
    gain: float = 0.0,
) -> GaussianState:
    """Homodyne one mode and displace a target quadrature by gain * outcome.

    Returns the ensemble-averaged state of the unmeasured modes (measured mode
    removed, remaining modes in their original order).  The average over
    outcomes of the conditional states restores the outcome-independent
    Gaussian below; `gain` = 0 reproduces the plain marginal.  A stack of
    states gives the stack of their averaged states.
    """
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
    if (b_qq <= _PINV_RCOND * np.abs(b).max(axis=(-2, -1), initial=1.0)).any():
        raise ValueError("measured quadrature has no variance; homodyne statistics degenerate")

    e_t = np.zeros(len(ridx))
    e_t[2 * rest.index(target_mode) + iq] = 1.0

    # Conditional covariance plus the outcome-averaged spread of the
    # feed-forward displaced means.  The measured block projected on the
    # quadrature, pi b pi, has the one nonzero entry b_qq, so its
    # pseudo-inverse is 1/b_qq there: c pinv is c's quadrature column over
    # b_qq, and c pinv c^T the outer product of that column with c's.
    c_q = c[..., iq]
    v = c_q * (1.0 / b_qq)[..., None]
    sigma_cond = a - v[..., :, None] * c_q[..., None, :]
    shift = v + gain * e_t
    sigma_avg = sigma_cond + b_qq[..., None, None] * (shift[..., :, None] * shift[..., None, :])

    d_avg = state.d[..., ridx] + (gain * state.d[..., midx[iq]])[..., None] * e_t
    return GaussianState(d_avg, 0.5 * (sigma_avg + _transpose(sigma_avg)))


def fidelity_pure_mixed(pure: GaussianState, other: GaussianState):
    """Uhlmann fidelity between a pure single-mode state and any single-mode state.

    F = 2 exp(-delta^T (s1+s2)^{-1} delta) / sqrt(det(s1+s2)) in the
    vacuum = identity scaling.  A float, or an array over a stack of states.
    """
    if pure.n_modes != 1 or other.n_modes != 1:
        raise ValueError("fidelity formula is for single-mode states")
    det_pure = np.linalg.det(pure.sigma)
    if (det_pure > 1.0 + PHYSICALITY_TOL).any():
        raise ValueError(f"first argument is not pure: det sigma = {det_pure.max():.6f}")
    total = pure.sigma + other.sigma
    delta = pure.d - other.d
    exponent = (delta[..., None, :] @ np.linalg.solve(total, delta[..., None]))[..., 0, 0]
    return _item(2.0 * np.exp(-exponent) / np.sqrt(np.linalg.det(total)))
