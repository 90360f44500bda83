"""Bogoliubov coefficients of cavity modes across accelerated segments.

A Dirichlet cavity of length ``L`` holds a massless 1+1 scalar field.  While
inertial the field decomposes into sine modes of frequency ``omega_n = n pi/L``.
During a segment of uniform proper acceleration the cavity is static in a
wedge ``x^2 - t^2 > 0`` with walls at

    x_left = L (1/h - 1/2),    x_right = L (1/h + 1/2),

where ``h = a L`` is the dimensionless acceleration of the cavity centre
(``0 < h < 2`` keeps both walls inside the wedge).  The wedge modes are sines
in ``ln(x / x_left)`` with frequency ``Omega_n = n pi / D`` per unit wedge
time, ``D = 2 atanh(h/2)``.

The instantaneous basis change between the two mode sets is evaluated by a
vectorized fixed-panel Gauss-Legendre rule for whole matrices.  On top of
the exact matrices a small-``h`` power series is extracted by evaluating at a
ladder of accelerations and solving the scaled Vandermonde system exactly,
making the extraction reproducible bit for bit.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import _frozen

DEFAULT_L = 1.0
DEFAULT_NMAX = 20
# Geometric ladder for coefficient extraction.  A degree-4 model with a
# fixed (identity) intercept keeps the quadratic coefficients clean to ~1e-9;
# a shorter ladder at 1e-2 would contaminate them at the 1e-5 level.
DEFAULT_LADDER = (3.2e-3, 1.6e-3, 8.0e-4, 4.0e-4)
DEFAULT_VALIDATION_H = 1.0e-3
_FIT_REL_GATE = 1e-2
_REL_FLOOR = 1e-9


class CorruptCacheError(RuntimeError):
    """A cached coefficient file failed integrity checks."""


@dataclass(frozen=True)
class CavityGeometry:
    """Rigid cavity of length `length` whose centre accelerates with h = a*L."""

    length: float = DEFAULT_L
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


# ---------------------------------------------------------------------------
# exact transition matrices (vectorized quadrature)


def _gauss_panels(x_lo: float, x_hi: float, panels: int, order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(x_lo, x_hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def _inertial_rule(length: float, n_max: int, panels: int, order: int):
    """Nodes, weights and normalized inertial sine table of one rule; h-independent."""
    xi, ws = _gauss_panels(0.0, length, panels, order)
    n = np.arange(1, n_max + 1)
    s_inertial = np.sin(np.outer(n * np.pi / length, xi))
    s_inertial /= np.sqrt(n * np.pi)[:, None]
    return xi, ws, s_inertial


def _transition_matrices(geometry: CavityGeometry, xi, ws, s_inertial):
    # Integrate in the wall offset xi = x - x_left: log1p(xi/x_left) keeps the
    # wedge-mode argument at full precision at small h, where ln(x/x_left)
    # would lose ~5 digits to the rounding of the ratio itself.
    x_l = geometry.x_left
    n = np.arange(1, geometry.n_max + 1)
    om = n * np.pi / geometry.length
    big_om = n * np.pi / geometry.rindler_span

    s_wedge = np.sin(np.outer(n * np.pi / geometry.rindler_span, np.log1p(xi / x_l)))
    s_wedge /= np.sqrt(n * np.pi)[:, None]

    # alpha_ij = Int (omega_j + Omega_i/x) S_i s_j dx ; beta flips the sign of
    # the Omega term.  Both are real with the slice phase convention.
    overlap = (s_wedge * ws) @ s_inertial.T
    overlap_inv_x = (s_wedge * (ws / (x_l + xi))) @ s_inertial.T
    freq_term = overlap * om[None, :]
    wedge_term = big_om[:, None] * overlap_inv_x
    return freq_term + wedge_term, freq_term - wedge_term


def _exact_matrices(geometries: list, panels: int | None = None, order: int = 16) -> list:
    """Real (alpha, beta, quadrature error) of cavities sharing length and cutoff.

    Evaluates rule by rule: the coarse rule's inertial table serves every
    acceleration and is dropped before the refined rule's is built, so one
    table is alive at a time.
    """
    length, n_max = geometries[0].length, geometries[0].n_max
    for geometry in geometries:
        geometry._require_accelerated()
    if panels is None:
        panels = max(16, 2 * n_max)
    rule = _inertial_rule(length, n_max, panels, order)
    coarse = [_transition_matrices(geometry, *rule) for geometry in geometries]
    del rule
    rule = _inertial_rule(length, n_max, 2 * panels, order)
    out = []
    for geometry, (a1, b1) in zip(geometries, coarse):
        a2, b2 = _transition_matrices(geometry, *rule)
        err = max(np.max(np.abs(a1 - a2)), np.max(np.abs(b1 - b2)))
        out.append((a2, b2, float(err)))
    return out


# ---------------------------------------------------------------------------
# small-h power series of the transition


@dataclass(frozen=True)
class TransitionFit:
    """Coefficients of alpha = I + a1 h + ... , beta = b1 h + ... + b4 h^4.

    Orders three and four mostly absorb model truncation; downstream physics
    uses orders one and two.  `validation` holds held-out errors at
    `DEFAULT_VALIDATION_H`.
    """

    length: float
    n_max: int
    a: np.ndarray  # (4, N, N), orders h..h^4
    b: np.ndarray
    validation: dict
    quadrature_error: float

    def alpha_at(self, h: float) -> np.ndarray:
        out = np.eye(self.n_max, dtype=float)
        for k in range(4):
            out = out + self.a[k] * h ** (k + 1)
        return out

    def beta_at(self, h: float) -> np.ndarray:
        out = np.zeros((self.n_max, self.n_max))
        for k in range(4):
            out = out + self.b[k] * h ** (k + 1)
        return out

    @property
    def a1(self) -> np.ndarray:
        return self.a[0]

    @property
    def a2(self) -> np.ndarray:
        return self.a[1]

    @property
    def b1(self) -> np.ndarray:
        return self.b[0]

    @property
    def b2(self) -> np.ndarray:
        return self.b[1]


def fit_transition(length: float = DEFAULT_L, n_max: int = DEFAULT_NMAX) -> TransitionFit:
    """Extract the power series of the transition matrices in h.

    Evaluates the exact matrices at each `DEFAULT_LADDER` acceleration,
    subtracts the h = 0 limit (identity / zero) and solves the scaled
    Vandermonde system for orders h..h^4 exactly.  Held-out validation at
    `DEFAULT_VALIDATION_H` must beat a relative 1e-2 gate or the fit is
    rejected.
    """
    scale = DEFAULT_LADDER[0]
    t = np.array(DEFAULT_LADDER) / scale
    vand = np.vander(t, 5, increasing=True)[:, 1:]  # columns t, t^2, t^3, t^4

    geometries = [CavityGeometry(length, h, n_max) for h in (*DEFAULT_LADDER, DEFAULT_VALIDATION_H)]
    *rungs, (ref_a, ref_b, _) = _exact_matrices(geometries)
    quad_err = max(err for _, _, err in rungs)
    ya = np.stack([(alpha - np.eye(n_max)).ravel() for alpha, _, _ in rungs])
    yb = np.stack([beta.ravel() for _, beta, _ in rungs])

    coeff_a = np.linalg.solve(vand, ya)
    coeff_b = np.linalg.solve(vand, yb)
    powers = scale ** np.arange(1, 5)
    a = (coeff_a / powers[:, None]).reshape(4, n_max, n_max)
    b = (coeff_b / powers[:, None]).reshape(4, n_max, n_max)

    fit = TransitionFit(
        length=length,
        n_max=n_max,
        a=_frozen(a),
        b=_frozen(b),
        validation={},
        quadrature_error=quad_err,
    )
    validation = _validate_fit(fit, ref_a, ref_b)
    object.__setattr__(fit, "validation", validation)
    if not validation["max_rel_err"] <= _FIT_REL_GATE:  # a NaN error fails too
        raise RuntimeError(
            f"transition fit failed validation: rel err {validation['max_rel_err']:.3e}"
        )
    return fit


def _validate_fit(fit: TransitionFit, ref_a: np.ndarray, ref_b: np.ndarray) -> dict:
    """Held-out errors of the fit against the exact matrices at `DEFAULT_VALIDATION_H`."""
    h = DEFAULT_VALIDATION_H
    pred_a = fit.alpha_at(h)
    pred_b = fit.beta_at(h)
    abs_a = np.abs(pred_a - ref_a)
    abs_b = np.abs(pred_b - ref_b)
    # Relative errors only where the coefficient itself is resolvable.
    dev_a = np.abs(ref_a - np.eye(fit.n_max))
    dev_b = np.abs(ref_b)
    rel_a = np.where(dev_a > _REL_FLOOR, abs_a / np.maximum(dev_a, _REL_FLOOR), 0.0)
    rel_b = np.where(dev_b > _REL_FLOOR, abs_b / np.maximum(dev_b, _REL_FLOOR), 0.0)
    return {
        "h": h,
        "max_abs_err": float(max(abs_a.max(), abs_b.max())),
        "max_rel_err": float(max(rel_a.max(), rel_b.max())),
        "rel_floor": _REL_FLOOR,
    }


# ---------------------------------------------------------------------------
# coefficient cache


def _cache_key(length: float, n_max: int) -> dict:
    # The ladder and held-out acceleration are constants, but the key records
    # them, so a file fitted on another ladder has another name and is refused.
    return {
        "format": 2,
        "length": length,
        "n_max": n_max,
        "ladder": list(DEFAULT_LADDER),
        "validation_h": DEFAULT_VALIDATION_H,
    }


# Coefficients are stored as base64 of their little-endian float64 C-order
# bytes: exact, and cheap to checksum, write and read.
_PAYLOAD_DTYPE = "<f8"


def _encode_coefficients(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype=_PAYLOAD_DTYPE).tobytes()).decode("ascii")


def _decode_coefficients(text: str, n_max: int) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(text, validate=True), dtype=_PAYLOAD_DTYPE)
    if flat.size != 4 * n_max * n_max:
        raise ValueError(f"{flat.size} coefficients stored, (4, {n_max}, {n_max}) expected")
    return flat.reshape(4, n_max, n_max)


def _document_digest(doc: dict) -> str:
    """SHA-256 of every stored field except the digest itself."""
    body = {name: value for name, value in doc.items() if name != "sha256"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _cache_name(key: dict) -> str:
    stem = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return f"transition_{stem}.json"


def cache_path(cache_dir: Path, length: float, n_max: int) -> Path:
    return Path(cache_dir) / _cache_name(_cache_key(length, n_max))


def resolve_cache_dir(cache_dir=None) -> Path | None:
    """Explicit argument wins, then RQSS_CACHE_DIR, then ~/.cache/rqss."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("RQSS_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rqss"


def save_transition(fit: TransitionFit, cache_dir) -> Path:
    key = _cache_key(fit.length, fit.n_max)
    path = Path(cache_dir) / _cache_name(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "key": key,
        "length": fit.length,
        "n_max": fit.n_max,
        "ladder": key["ladder"],
        "validation_h": key["validation_h"],
        "a": _encode_coefficients(fit.a),
        "b": _encode_coefficients(fit.b),
        "validation": fit.validation,
        "quadrature_error": fit.quadrature_error,
    }
    doc["sha256"] = _document_digest(doc)
    # Write aside and rename, so a concurrent reader sees the old file or the
    # whole new one, never a partial write.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_transition(path) -> TransitionFit:
    """Read a cached fit; the file's name is the key of the request.

    The stored key and ladder must describe a fit made here and hash to the
    file name, so a file saved under another key is rejected, not silently
    used; the checksum covers every stored field.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        n_max = int(doc["n_max"])
        key = _cache_key(doc["length"], n_max)
        stored = (doc["key"], doc["ladder"], doc["validation_h"])
        if stored != (key, key["ladder"], key["validation_h"]) or path.name != _cache_name(key):
            raise ValueError("stored key does not match the requested key")
        if doc["sha256"] != _document_digest(doc):
            raise ValueError("checksum mismatch")
        return TransitionFit(
            length=float(doc["length"]),
            n_max=n_max,
            a=_frozen(_decode_coefficients(doc["a"], n_max)),
            b=_frozen(_decode_coefficients(doc["b"], n_max)),
            validation=dict(doc["validation"]),
            quadrature_error=float(doc["quadrature_error"]),
        )
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise CorruptCacheError(f"corrupted coefficient cache {path}: {exc}") from exc


def get_transition(
    length: float = DEFAULT_L,
    n_max: int = DEFAULT_NMAX,
    cache_dir=None,
    use_cache: bool = True,
) -> TransitionFit:
    """Fitted transition coefficients, cached on disk keyed by all inputs."""
    directory = resolve_cache_dir(cache_dir) if use_cache else None
    if directory is not None:
        path = cache_path(directory, length, n_max)
        if path.exists():
            return load_transition(path)
    fit = fit_transition(length, n_max)
    if directory is not None:
        save_transition(fit, directory)
    return fit


# ---------------------------------------------------------------------------
# one accelerated segment: accelerate, coast in the wedge, decelerate


@dataclass(frozen=True)
class BogoliubovSet:
    """Mode-operator map across one full segment, order by order in h.

    ``alpha0`` is the diagonal of the zeroth order (pure phases); first and
    second orders are dense.  Rows index output inertial modes.  A stack of
    segments carries a leading u axis on every array, and ``u`` is then the
    array of phases; `alpha_at`, `beta_at` and the residuals take one segment.
    Maps built to first order only (for mode sums) have no ``alpha2`` and
    ``beta2``: both are None.
    """

    u: float
    n_max: int
    alpha0: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2: np.ndarray
    beta2: np.ndarray

    def alpha_at(self, h: float) -> np.ndarray:
        return np.diag(self.alpha0) + self.alpha1 * h + self.alpha2 * h * h

    def beta_at(self, h: float) -> np.ndarray:
        return self.beta1 * h + self.beta2 * h * h

    def identity_residuals_order2(self) -> np.ndarray:
        """Per-mode h^2 coefficient of sum_l |alpha_jl|^2 - |beta_jl|^2 - 1."""
        cross = 2.0 * np.real(np.conj(self.alpha0) * np.diag(self.alpha2))
        first = np.sum(np.abs(self.alpha1) ** 2 - np.abs(self.beta1) ** 2, axis=1)
        return np.abs(cross + first)

    def identity_residuals_at(self, h: float) -> np.ndarray:
        alpha = self.alpha_at(h)
        beta = self.beta_at(h)
        return np.abs(np.sum(np.abs(alpha) ** 2 - np.abs(beta) ** 2, axis=1) - 1.0)


# Largest number of complex entries of one stacked (U, n, n) map array: a
# u-grid is walked in stacks of at most this many entries per array (64 KiB),
# so memory stays bounded at large n_max.  Larger stacks were no faster at
# n_max 20 and cost memory: at 2**16 entries the allocator mapped every
# temporary afresh (about 3000 minor page faults per round of the four
# figures), and at 2**13 the four `reproduce_figures` jobs peaked 1.4 MB
# higher (glibc, x86-64 Linux).
STACK_ENTRIES = 1 << 12


def _segment_maps(fit: TransitionFit, u, second_order: bool = True) -> BogoliubovSet:
    """Segment maps at phase u, a float or a 1-d array of phases (a stack).

    Without `second_order` the maps stop at first order: alpha2 and beta2 are None.
    """
    u = np.asarray(u, dtype=float)
    n = np.arange(1, fit.n_max + 1)
    theta = 2.0 * np.pi * n * u[..., None]
    ebar = np.exp(1j * theta)  # phase conjugated back to inertial convention
    e = np.conj(ebar)
    col, row, e_col = ebar[..., :, None], ebar[..., None, :], e[..., :, None]
    a1, a2, b1, b2 = fit.a1, fit.a2, fit.b1, fit.b2

    alpha1 = a1 * (col - row)
    beta1 = b1 * (col - e[..., None, :])
    alpha2 = beta2 = None
    if second_order:
        alpha2 = a2.T * row + col * a2 + a1.T @ (col * a1) - b1.T @ (e_col * b1)
        beta2 = a1.T @ (col * b1) + col * b2 - b2.T * e[..., None, :] - b1.T @ (e_col * a1)
    return BogoliubovSet(
        u=float(u) if u.ndim == 0 else u,
        n_max=fit.n_max,
        alpha0=ebar,
        alpha1=alpha1,
        beta1=beta1,
        alpha2=alpha2,
        beta2=beta2,
    )


def segment_bogoliubov(fit: TransitionFit, u: float) -> BogoliubovSet:
    """Compose transition -> wedge phases -> inverse transition at phase u.

    All entries are exactly periodic in u with period 1.  One segment;
    `segment_stacks` builds many through the same arithmetic.
    """
    # Stacks never pass through here: the benchmark's tracer
    # (perfbench/tracing.py) reads this call's `u` as one float.
    return _segment_maps(fit, float(u))


def segment_stacks(fit: TransitionFit, us, second_order: bool = True):
    """Stacked segment maps of every phase in `us`, in order, as consecutive stacks.

    Each stack holds at most `STACK_ENTRIES` entries per (U, n, n) array (at
    least one phase), so a large cutoff walks the grid a few phases at a time.
    Without `second_order` the maps stop at first order, all mode sums need.
    """
    us = np.asarray(us, dtype=float)
    size = max(1, STACK_ENTRIES // fit.n_max**2)
    for start in range(0, max(us.size, 1), size):
        yield _segment_maps(fit, us[start : start + size], second_order)


# ---------------------------------------------------------------------------
# first-order mode sums driving the effective channel


@dataclass(frozen=True)
class ModeSums:
    """Row sums of first-order segment couplings for one monitored mode.

    Arrays over u for a stack of segments.
    """

    k: int
    u: float
    n_max: int
    f_alpha: float
    f_beta: float
    g_cross: complex


def _item(value):
    """A 0-d result as a Python scalar; a stacked one unchanged."""
    return value.item() if np.ndim(value) == 0 else value


def mode_sums(bogo: BogoliubovSet, k: int) -> ModeSums:
    """f_alpha, f_beta and the cross sum g for mode k (numbered from 1).

    Broadcasts over a stack of segments.  Each row is summed as one
    contiguous run, so a stacked row adds up exactly like a single one.
    """
    if not 1 <= k <= bogo.n_max:
        raise ValueError(f"mode {k} outside 1..{bogo.n_max}")
    row = k - 1
    mask = np.ones(bogo.n_max, dtype=bool)
    mask[row] = False
    arow = np.ascontiguousarray(bogo.alpha1[..., row, mask])
    brow = np.ascontiguousarray(bogo.beta1[..., row, mask])
    f_alpha = 0.5 * np.add.reduce(np.abs(arow) ** 2, axis=-1)
    f_beta = 0.5 * np.add.reduce(np.abs(brow) ** 2, axis=-1)
    g_cross = np.add.reduce(arow * brow, axis=-1)
    return ModeSums(
        k=k, u=bogo.u, n_max=bogo.n_max, f_alpha=_item(f_alpha), f_beta=_item(f_beta), g_cross=_item(g_cross)
    )
