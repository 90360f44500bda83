"""Bogoliubov coefficients of cavity modes across accelerated segments.

A Dirichlet cavity of length ``L`` holds a massless 1+1 scalar field.  While
inertial the field decomposes into sine modes of frequency ``omega_n = n pi/L``.
During a segment of uniform proper acceleration the cavity is static in a
wedge ``x^2 - t^2 > 0`` with walls at

    x_left = L (1/h - 1/2),    x_right = L (1/h + 1/2),

where ``h = a L`` is the dimensionless acceleration of the cavity centre
(``0 < h < 2`` keeps both walls inside the wedge).  The wedge modes are sines
in ``ln(x / x_left)`` with frequency ``Omega_n = n pi / D`` per unit wedge
time, ``D = 2 atanh(h/2)``.  The transition matrices depend on the cavity
only through h, so they are computed at ``L = 1``: every quantity here is a
function of h, not of L.

The instantaneous basis change between the two mode sets is evaluated by a
fixed-panel Gauss-Legendre rule: two (n_max x Q) @ (Q x n_max) products
per acceleration over the Q nodes, whose operands one rule allocates once
and refills in place for every acceleration, a few rows at a time.  On top
of the exact matrices a small-``h`` power series is extracted by evaluating
at a ladder of accelerations and solving the scaled Vandermonde system
exactly, making the extraction reproducible bit for bit; its first two
orders are kept.  The fit evaluates one rule; `quadrature_error` measures
that rule against one with half its panels, on demand.
"""

from __future__ import annotations

import functools
import hashlib
import json
import mmap
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .gaussian import _frozen, _item

DEFAULT_NMAX = 20
# Geometric ladder for coefficient extraction.  A degree-4 model with a
# fixed (identity) intercept keeps the quadratic coefficients clean to ~1e-9;
# a shorter ladder at 1e-2 would contaminate them at the 1e-5 level.
DEFAULT_LADDER = (3.2e-3, 1.6e-3, 8.0e-4, 4.0e-4)
DEFAULT_VALIDATION_H = 1.0e-3
_FIT_REL_GATE = 1e-2
_REL_FLOOR = 1e-9
# Gauss-Legendre nodes per quadrature panel.
_GAUSS_ORDER = 16


class CorruptCacheError(RuntimeError):
    """A cached coefficient file failed integrity checks."""


class FitValidationError(RuntimeError):
    """A transition fit missed its held-out validation gate."""


# ---------------------------------------------------------------------------
# exact transition matrices (vectorized quadrature), at L = 1


@functools.cache
def _gauss_legendre():
    """The `_GAUSS_ORDER` Gauss-Legendre nodes and weights on [-1, 1]: built on first use, then shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    return _frozen(nodes), _frozen(weights)


def _gauss_panels(x_lo: float, x_hi: float, panels: int):
    nodes, weights = _gauss_legendre()
    edges = np.linspace(x_lo, x_hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def _panels(n_max: int) -> int:
    """Panels of the fit's rule; the coarse rule of `quadrature_error` has half as many."""
    return 2 * max(16, 2 * n_max)


# Rows of the wedge table per pass of its elementwise work.  Every step
# (outer product, sine, norm, the two weightings) is elementwise, so a pass
# over a few rows at a time gives each entry the bits of the whole-array
# expressions while the rows stay in cache between steps.  The two matrix
# products are never split: cutting their rows into blocks of 1 to 32 changed
# the products' bits at n_max 40 (and at every cutoff for 1-row blocks), and
# the ladder fit amplifies any change of summation order, as one stacked
# (2 n_max x Q) product showed at n_max 20 (CHANGES.md, the FOUND line on it).
# Timed alone at n_max 160 (five accelerations, best of 20, x86-64 Xeon
# with 2 MiB of L2 per core, one thread), passes of 4 to 16 rows took
# 0.094-0.096 s against 0.101 s for whole-array passes into the same two
# operands and 0.124 s for the whole-array temporaries they replace; 8 rows
# of both operands (1.25 MiB at n_max 160) stay within that L2.
_ROW_BLOCK = 8


def _mapped(rows: int, cols: int) -> np.ndarray:
    """An uninitialised (rows x cols) float array in an anonymous memory map of its own, unmapped when it goes.

    From malloc, the first freed operand of a rule (12.5 MB at n_max 160)
    raises glibc's mmap threshold to its size; later rules then take their
    operands from the heap, where a block allocated above them while they
    are live keeps their pages resident after they are freed.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * rows * cols), dtype=float).reshape(rows, cols)


def _exact_matrices(hs, n_max: int, panels: int) -> list:
    """Real (alpha, beta) at each acceleration h of `hs`, each in (0, 2), on one rule of `panels` panels.

    The rule's panels hold `_GAUSS_ORDER` nodes each, Q in all.  Its memory
    is fixed: three (n_max x Q) arrays, the h-independent inertial sine
    table and the two weighted wedge operands, allocated once, each in a
    map of its own (`_mapped`); every acceleration refills the operands in
    place, `_ROW_BLOCK` rows at a time.
    """
    xi, ws = _gauss_panels(0.0, 1.0, panels)
    om = np.arange(1, n_max + 1) * np.pi
    norm = np.sqrt(om)[:, None]
    s_inertial = np.multiply.outer(om, xi, out=_mapped(n_max, xi.size))
    np.sin(s_inertial, out=s_inertial)
    s_inertial /= norm
    weighted, weighted_inv_x = _mapped(n_max, xi.size), _mapped(n_max, xi.size)
    pairs = []
    for h in hs:
        # Integrate in the wall offset xi = x - x_left: log1p(xi/x_left) keeps
        # the wedge-mode argument at full precision at small h, where
        # ln(x/x_left) would lose ~5 digits to the rounding of the ratio itself.
        x_l = 1.0 / h - 0.5
        span = 2.0 * np.arctanh(0.5 * h)  # the wall separation D in ln(x)
        big_om = om / span
        log_x = np.log1p(xi / x_l)
        ws_inv_x = ws / (x_l + xi)
        for start in range(0, n_max, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            # The normalized wedge sines of these rows, built in place in the
            # second operand, weighted into the first and then in place.
            s_wedge = weighted_inv_x[rows]
            np.multiply.outer(big_om[rows], log_x, out=s_wedge)
            np.sin(s_wedge, out=s_wedge)
            s_wedge /= norm[rows]
            np.multiply(s_wedge, ws, out=weighted[rows])
            np.multiply(s_wedge, ws_inv_x, out=s_wedge)

        # alpha_ij = Int (omega_j + Omega_i/x) S_i s_j dx ; beta flips the sign
        # of the Omega term.  Both are real with the slice phase convention.
        freq_term = (weighted @ s_inertial.T) * om[None, :]
        wedge_term = big_om[:, None] * (weighted_inv_x @ s_inertial.T)
        pairs.append((freq_term + wedge_term, freq_term - wedge_term))
    return pairs


def quadrature_error(n_max: int) -> float:
    """Largest change of an alpha or beta entry at the `DEFAULT_LADDER` rungs from a rule of half the panels to the fit's.

    No fit reads it, so it is measured on demand (by `rqss bogo-check`), one
    rule at a time: the coarse rule's arrays are dropped before the fit's
    rule is built.
    """
    coarse = _exact_matrices(DEFAULT_LADDER, n_max, _panels(n_max) // 2)
    refined = _exact_matrices(DEFAULT_LADDER, n_max, _panels(n_max))
    return float(max(np.max(np.abs(c - r)) for pair in zip(coarse, refined) for c, r in zip(*pair)))


# ---------------------------------------------------------------------------
# small-h power series of the transition


@dataclass(frozen=True, eq=False)
class TransitionFit:
    """Coefficients of alpha = I + a1 h + a2 h^2 + O(h^3), beta = b1 h + b2 h^2 + O(h^3).

    The fit solves for orders three and four too; they mostly absorb model
    truncation and serve only its held-out validation, so they are not kept.
    `validation` holds the held-out errors of the four-order series at
    `DEFAULT_VALIDATION_H`.  A fit compares and hashes by identity (its
    arrays have no truth value), so `rqss.protocol` can key the journeys it
    builds on a fit by the fit itself.
    """

    n_max: int
    a1: np.ndarray  # (N, N)
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    validation: dict


def fit_transition(n_max: int = DEFAULT_NMAX) -> TransitionFit:
    """Extract the power series of the transition matrices in h.

    Evaluates the exact matrices at each `DEFAULT_LADDER` acceleration,
    subtracts the h = 0 limit (identity / zero) and solves the scaled
    Vandermonde system for orders h..h^4 exactly.  Held-out validation of
    all four orders at `DEFAULT_VALIDATION_H` must beat a relative 1e-2 gate
    or the fit is rejected; orders one and two are kept.
    """
    scale = DEFAULT_LADDER[0]
    t = np.array(DEFAULT_LADDER) / scale
    vand = np.vander(t, 5, increasing=True)[:, 1:]  # columns t, t^2, t^3, t^4

    *rungs, (ref_a, ref_b) = _exact_matrices((*DEFAULT_LADDER, DEFAULT_VALIDATION_H), n_max, _panels(n_max))
    ya = np.stack([(alpha - np.eye(n_max)).ravel() for alpha, _ in rungs])
    yb = np.stack([beta.ravel() for _, beta in rungs])

    coeff_a = np.linalg.solve(vand, ya)
    coeff_b = np.linalg.solve(vand, yb)
    powers = scale ** np.arange(1, 5)
    a = (coeff_a / powers[:, None]).reshape(4, n_max, n_max)
    b = (coeff_b / powers[:, None]).reshape(4, n_max, n_max)

    validation = _validate_fit(a, b, ref_a, ref_b)
    if not validation["max_rel_err"] <= _FIT_REL_GATE:  # a NaN error fails too
        raise FitValidationError(
            f"transition fit failed validation: rel err {validation['max_rel_err']:.3e}"
        )
    return TransitionFit(n_max, *map(_frozen, (a[0], a[1], b[0], b[1])), validation)


def _validate_fit(a: np.ndarray, b: np.ndarray, ref_a: np.ndarray, ref_b: np.ndarray) -> dict:
    """Held-out errors of the four-order series `a`, `b` against the exact matrices at `DEFAULT_VALIDATION_H`."""
    h = DEFAULT_VALIDATION_H
    n_max = ref_a.shape[0]
    pred_a = np.eye(n_max)
    pred_b = np.zeros((n_max, n_max))
    for k in range(4):
        pred_a = pred_a + a[k] * h ** (k + 1)
        pred_b = pred_b + b[k] * h ** (k + 1)
    abs_a = np.abs(pred_a - ref_a)
    abs_b = np.abs(pred_b - ref_b)
    # Relative errors only where the coefficient itself is resolvable.
    dev_a = np.abs(ref_a - np.eye(n_max))
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
#
# Format 5 keeps one file per key, `transition_<hash of the key>.bin`, in
# three parts: a first line with the hex sha256 of every byte after it, one
# canonical JSON header line (the key and `validation`), and the raw
# little-endian float64 C-order bytes of `a1`, `a2`, `b1` and `b2`.
# A load takes the coefficients as views of those bytes, so a cached fit is
# bit-identical to a fresh one.


def _cache_key(n_max: int) -> dict:
    # The ladder and held-out acceleration are constants, but the key records
    # them, so a file fitted on another ladder has another name and is refused.
    # Files of earlier formats, whose headers also held the quadrature error
    # (and before format 4, whose payloads held orders three and four), have
    # other keys, hence other names: never read.
    return {
        "format": 5,
        "n_max": n_max,
        "ladder": list(DEFAULT_LADDER),
        "validation_h": DEFAULT_VALIDATION_H,
    }


_PAYLOAD_DTYPE = "<f8"


def _cache_name(key: dict) -> str:
    stem = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return f"transition_{stem}.bin"


def cache_path(cache_dir: Path, n_max: int) -> Path:
    return Path(cache_dir) / _cache_name(_cache_key(n_max))


def resolve_cache_dir(cache_dir=None) -> Path:
    """Explicit argument wins, then RQSS_CACHE_DIR, then ~/.cache/rqss."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("RQSS_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rqss"


def save_transition(fit: TransitionFit, cache_dir) -> Path:
    key = _cache_key(fit.n_max)
    path = Path(cache_dir) / _cache_name(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"key": key, "validation": fit.validation}
    body = b"".join(
        [
            json.dumps(header, sort_keys=True).encode(),
            b"\n",
            *(np.ascontiguousarray(x, dtype=_PAYLOAD_DTYPE) for x in (fit.a1, fit.a2, fit.b1, fit.b2)),
        ]
    )
    # Write aside and rename, so a concurrent reader sees the old file or the
    # whole new one, never a partial write.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "wb") as file:
            file.write(hashlib.sha256(body).hexdigest().encode() + b"\n")
            file.write(body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_transition(path) -> TransitionFit:
    """Read a cached fit; the file's name is the key of the request.

    The checksum covers the header and the coefficients, and is checked
    before anything is parsed.  The stored key must describe a fit made here
    and hash to the file name, so a file saved under another key is rejected,
    not silently used, and the payload must hold exactly `a1`, `a2`, `b1`
    and `b2`.
    """
    path = Path(path)
    try:
        digest, _, body = path.read_bytes().partition(b"\n")
        if digest != hashlib.sha256(body).hexdigest().encode():
            raise ValueError("checksum mismatch")
        header, _, payload = body.partition(b"\n")
        meta = json.loads(header)
        stored = meta["key"]
        n_max = int(stored["n_max"])
        key = _cache_key(n_max)
        if stored != key or path.name != _cache_name(key):
            raise ValueError("stored key does not match the requested key")
        if len(payload) != 4 * 8 * n_max * n_max:
            raise ValueError(f"{len(payload)} payload bytes, not the 4 x ({n_max}, {n_max}) coefficients a1, a2, b1, b2")
        coefficients = np.frombuffer(payload, dtype=_PAYLOAD_DTYPE).reshape(4, n_max, n_max)
        return TransitionFit(n_max, *coefficients, dict(meta["validation"]))
    except (KeyError, ValueError, TypeError) as exc:  # a bad header's JSON or UTF-8 error is a ValueError
        raise CorruptCacheError(f"corrupted coefficient cache {path}: {exc}") from exc


def get_transition(n_max: int = DEFAULT_NMAX, cache_dir=None) -> TransitionFit:
    """Fitted transition coefficients, cached on disk keyed by all inputs.

    An empty (or new) `cache_dir` forces a fresh fit, which is then saved.
    The file is read once, with no check that it exists first: a missing
    file is a miss, also when another process clears the cache just then.
    """
    directory = resolve_cache_dir(cache_dir)
    try:
        return load_transition(cache_path(directory, n_max))
    except FileNotFoundError:
        pass
    fit = fit_transition(n_max)
    save_transition(fit, directory)
    return fit


# ---------------------------------------------------------------------------
# one accelerated segment: accelerate, coast in the wedge, decelerate


@dataclass(frozen=True)
class BogoliubovSet:
    """Mode-operator map across one full segment, order by order in h, on the rows of `modes`.

    Row i of every array belongs to output inertial mode ``modes[i]``
    (numbered from 1): ``alpha0`` holds those modes' zeroth-order phases (the
    diagonal of the zeroth order), ``alpha1`` and ``beta1`` their first-order
    rows over all ``n_max`` input modes, shape (m, n_max), and ``alpha2`` and
    ``beta2`` the m x m block of the second order among them.  The full maps
    have modes 1..n_max, and only they have `identity_residuals_at`.  A stack
    of segments carries a leading u axis on every array, and ``u`` is then
    the array of phases; the residuals take one segment.
    """

    u: float
    n_max: int
    modes: tuple[int, ...]
    alpha0: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2: np.ndarray
    beta2: np.ndarray

    def row(self, k: int) -> int:
        """Position of mode k (numbered from 1) among the map's rows."""
        if k not in self.modes:
            raise ValueError(f"mode {k} is not among the map's modes {self.modes}")
        return self.modes.index(k)

    def identity_residuals_order2(self) -> np.ndarray:
        """Per-mode h^2 coefficient of sum_l |alpha_jl|^2 - |beta_jl|^2 - 1."""
        cross = 2.0 * np.real(np.conj(self.alpha0) * np.diag(self.alpha2))
        first = np.sum(np.abs(self.alpha1) ** 2 - np.abs(self.beta1) ** 2, axis=1)
        return np.abs(cross + first)

    def identity_residuals_at(self, h: float) -> np.ndarray:
        alpha = np.diag(self.alpha0) + self.alpha1 * h + self.alpha2 * h * h
        beta = self.beta1 * h + self.beta2 * h * h
        return np.abs(np.sum(np.abs(alpha) ** 2 - np.abs(beta) ** 2, axis=1) - 1.0)


# Largest number of complex entries of one stacked array of a map build on m
# of n modes: the (U, n, 2m) right factor of the second-order product, twice
# the size of the (U, m, n) first-order rows (or, past 2m = n, the product's
# (U, 2m, 2m) result).  `grid_segments` walks a u-grid in stacks of
# at most this many entries (64 KiB), so memory stays bounded at large
# n_max.  Larger stacks were no faster at n_max 20 and cost memory: at 2**16
# entries the allocator mapped every temporary afresh (about 3000 minor page
# faults per round of the four figures), and at 2**13 the four
# `reproduce_figures` jobs peaked 1.4 MB higher (glibc, x86-64 Linux).
STACK_ENTRIES = 1 << 12


def segment_maps(fit: TransitionFit, u, modes) -> BogoliubovSet:
    """Compose transition -> wedge phases -> inverse transition: rows `modes` of the segment maps at phase u.

    `u` is one phase (a float) or a stack of phases (a 1-d array); all
    entries are exactly periodic in u with period 1.  Modes 1..n_max give
    the full maps.  A product with a single row or column would go to a
    vector kernel that rounds differently from the full maps' matrix
    products; every second-order sum is read off one 2m x 2m product
    instead, so each row keeps the bits of the full maps.
    """
    modes = tuple(int(k) for k in modes)
    if not modes or not all(1 <= k <= fit.n_max for k in modes):
        raise ValueError(f"modes {modes}: need at least one, each in 1..{fit.n_max}")
    u = np.asarray(u, dtype=float)
    n = np.arange(1, fit.n_max + 1)
    theta = 2.0 * np.pi * n * u[..., None]
    ebar = np.exp(1j * theta)  # phase conjugated back to inertial convention
    e = np.conj(ebar)
    rows = np.array(modes) - 1
    m = rows.size
    block = np.ix_(rows, rows)
    a2, b2 = fit.a2[block], fit.b2[block]
    col, row, e_row = ebar[..., rows, None], ebar[..., None, rows], e[..., None, rows]

    alpha1 = fit.a1[rows] * (col - ebar[..., None, :])
    beta1 = fit.b1[rows] * (col - e[..., None, :])
    # sums[x, y] = sum_l x[l, i] ebar_l y[l, j] for x, y in {a1, b1} and i, j
    # among the modes; a1 and b1 are real, so the sums with e_l are their
    # complex conjugates.
    first = np.concatenate([fit.a1[:, rows], fit.b1[:, rows]], axis=1)
    sums = first.T @ (ebar[..., :, None] * first)
    aa, ab, ba, bb = sums[..., :m, :m], sums[..., :m, m:], sums[..., m:, :m], sums[..., m:, m:]
    alpha2 = a2.T * row + col * a2 + aa - np.conj(bb)
    beta2 = ab + col * b2 - b2.T * e_row - np.conj(ba)
    return BogoliubovSet(
        u=float(u) if u.ndim == 0 else u,
        n_max=fit.n_max,
        modes=modes,
        alpha0=ebar[..., rows],
        alpha1=alpha1,
        beta1=beta1,
        alpha2=alpha2,
        beta2=beta2,
    )


# ---------------------------------------------------------------------------
# the six numbers of a mode's reduced channel, and the walk of a u-grid


@dataclass(frozen=True)
class ModeSums:
    """What the reduced channel of one monitored mode k reads off the segment maps.

    The row sums of the first-order couplings to every other mode (f_alpha,
    f_beta and the cross sum g), and mode k's diagonal map entries: the
    zeroth-order phase alpha0 and the second-order alpha2 and beta2, taken at
    (k, k).  Arrays over u for a stack of segments, and (mode, u) arrays for
    the modes of a walk (`grid_segments`).  The constructor adopts the arrays
    it is given: it makes them read-only and does not copy them.
    """

    f_alpha: float
    f_beta: float
    g_cross: complex
    alpha0: complex
    alpha2: complex
    beta2: complex

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __getitem__(self, index) -> "ModeSums":
        """The sums and entries at `index` of a stack."""
        return ModeSums(*(getattr(self, f.name)[index] for f in fields(self)))


def mode_sums(bogo: BogoliubovSet, k: int) -> ModeSums:
    """f_alpha, f_beta, the cross sum g and the diagonal entries for mode k (numbered from 1).

    Broadcasts over a stack of segments.  Each row is summed as one
    contiguous run, so a stacked row adds up exactly like a single one (the
    masked copy of a stack is strided, hence the contiguous copies).
    """
    row = bogo.row(k)
    others = np.arange(bogo.n_max) != k - 1
    arow = np.ascontiguousarray(bogo.alpha1[..., row, others])
    brow = np.ascontiguousarray(bogo.beta1[..., row, others])
    f_alpha = 0.5 * np.add.reduce(np.abs(arow) ** 2, axis=-1)
    f_beta = 0.5 * np.add.reduce(np.abs(brow) ** 2, axis=-1)
    g_cross = np.add.reduce(arow * brow, axis=-1)
    diagonal = (bogo.alpha0[..., row], bogo.alpha2[..., row, row], bogo.beta2[..., row, row])
    return ModeSums(*map(_item, (f_alpha, f_beta, g_cross, *diagonal)))


def grid_segments(fit: TransitionFit, us, modes) -> ModeSums:
    """The `ModeSums` of the modes of `modes` at every phase in `us`, as one stack of (len(modes), len(us)) arrays.

    Mode first: ``sums[j]`` is the stack over u of mode ``modes[j]``.  The
    maps are built on the rows of `modes` only, in consecutive stacks of at
    most `STACK_ENTRIES` entries per stacked array (at least one phase), so a
    large cutoff walks the grid a few phases at a time.  Each stack is
    reduced one mode at a time (`mode_sums`), and the modes' sums of
    consecutive stacks are joined into the (mode, u) arrays.  A reduction of
    all of a stack's rows at once would sum them in another order, and so
    round differently.
    """
    us = np.asarray(us, dtype=float)
    m = len(modes) or 1  # no modes at all: the build raises
    size = max(1, STACK_ENTRIES // (2 * m * max(fit.n_max, 2 * m)))
    per_stack = []
    for start in range(0, max(us.size, 1), size):
        maps = segment_maps(fit, us[start : start + size], modes)
        per_stack.append([mode_sums(maps, k) for k in modes])
    joined = (np.concatenate([[getattr(s, f.name) for s in stack] for stack in per_stack], axis=1) for f in fields(ModeSums))
    return ModeSums(*joined)
