"""Cavity mode structure, transition matrices, the small-h fit, segments."""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqss import modes
from rqss.channel import channel_invariants, reduced_channel, t2_from_sums
from rqss.modes import (
    DEFAULT_LADDER,
    DEFAULT_VALIDATION_H,
    CorruptCacheError,
    cache_path,
    fit_transition,
    get_transition,
    grid_segments,
    load_transition,
    mode_sums,
    resolve_cache_dir,
    save_transition,
)

from cachefiles import (
    file_name,
    flip_byte,
    format1_document,
    format2_document,
    read_parts,
    tamper_coefficient,
    write_document,
    write_format3,
    write_format4,
    write_parts,
)
from oracles import (
    CavityGeometry,
    bogoliubov_exact,
    closed_form_transition,
    duration_from_u,
    exact_matrices_whole_array,
    first_order_closed_form,
    fit_by_exact_loop,
    full_maps,
    kg_inner_product,
    minkowski_frequency,
    minkowski_slice,
    nbar_from_sums,
    nbar_row_only,
    phase_u,
    rindler_frequency,
    rindler_frequency_proper,
    rindler_slice,
    second_order_closed_form,
    t2_limit,
    transition_entry_by_quad,
)


def test_geometry_walls():
    geo = CavityGeometry(length=1.0, h=0.5)
    assert geo.x_left == pytest.approx(1.5, rel=1e-15)
    assert geo.x_right == pytest.approx(2.5, rel=1e-15)
    assert geo.rindler_span == pytest.approx(2.0 * np.arctanh(0.25), rel=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CavityGeometry(h=2.0)
    with pytest.raises(ValueError):
        CavityGeometry(h=-0.1)
    for length in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            CavityGeometry(length=length)
    inertial = CavityGeometry(h=0.0)
    with pytest.raises(ValueError):
        inertial.x_left


def test_frequencies():
    geo = CavityGeometry(h=0.5)
    assert minkowski_frequency(geo, 3) == pytest.approx(3.0 * np.pi, rel=1e-15)
    assert rindler_frequency(geo, 2) == pytest.approx(2.0 * np.pi / geo.rindler_span, rel=1e-15)
    with pytest.raises(ValueError):
        minkowski_frequency(geo, 0)


def test_proper_frequency_inertial_limit():
    # The proper frequency at the cavity centre approaches n pi / L as h -> 0.
    geo = CavityGeometry(h=1e-6)
    assert rindler_frequency_proper(geo, 4) == pytest.approx(4.0 * np.pi, rel=1e-9)


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_mode_normalization(h):
    # Adaptive-quadrature Klein-Gordon products: an independent route to the
    # normalization of both mode families.
    geo = CavityGeometry(h=h)
    for family in (minkowski_slice, rindler_slice):
        f, df = family(geo, 1)
        g, dg = family(geo, 2)
        norm = kg_inner_product(f, df, f, df, geo.x_left, geo.x_right)
        cross = kg_inner_product(f, df, g, dg, geo.x_left, geo.x_right)
        assert norm.real == pytest.approx(1.0, abs=1e-9)
        assert abs(norm.imag) < 1e-9
        assert abs(cross) < 1e-9


def test_transition_matches_adaptive_quadrature():
    # Dual route: the production Gauss-Legendre matrices against scipy's
    # adaptive quadrature of the same overlap integrals.
    geo = CavityGeometry(h=0.5, n_max=4)
    exact = bogoliubov_exact(geo)
    for i in (1, 2):
        for j in (1, 3):
            a_ref, b_ref = transition_entry_by_quad(geo, i, j)
            assert exact.alpha[i - 1, j - 1] == pytest.approx(a_ref, abs=1e-9)
            assert exact.beta[i - 1, j - 1] == pytest.approx(b_ref, abs=1e-9)


@pytest.mark.parametrize("length", [2.0, 0.7])
def test_transition_is_length_independent(length):
    # Why the package has no cavity length: with x = L x', the frequencies
    # scale as 1/L and dx as L, so every entry of alpha and beta is a function
    # of h = a L alone.  The adaptive-quadrature route, which keeps L, agrees
    # at L and at 1 within its tolerance; 2.0 rescales every float exactly,
    # 0.7 does not.
    for h in (0.5, 1.0):
        for i, j in ((1, 1), (1, 2), (2, 3), (3, 3)):
            at_length = transition_entry_by_quad(CavityGeometry(length=length, h=h), i, j)
            at_one = transition_entry_by_quad(CavityGeometry(h=h), i, j)
            assert at_length == pytest.approx(at_one, abs=1e-10)
    with pytest.raises(ValueError, match="L = 1"):
        bogoliubov_exact(CavityGeometry(length=length, h=0.5))


def test_exact_transition_identity():
    # Rows of alpha alpha^T - beta beta^T approach 1 as the cutoff grows.
    geo = CavityGeometry(h=0.1, n_max=24)
    exact = bogoliubov_exact(geo)
    assert exact.quadrature_error < 1e-12
    assert np.all(exact.identity_residuals()[:4] < 2e-4)


def test_fit_structure(fit20):
    n = fit20.n_max
    i = np.arange(1, n + 1)
    odd = (i[:, None] + i[None, :]) % 2 == 1
    a1, b1 = fit20.a1, fit20.b1
    # First order lives only on mode pairs of opposite parity.
    assert np.max(np.abs(a1[~odd])) < 1e-10
    assert np.max(np.abs(b1[~odd])) < 1e-10
    assert np.max(np.abs(a1 + a1.T)) < 1e-10
    assert np.max(np.abs(b1 - b1.T)) < 1e-10
    assert fit20.validation["max_rel_err"] < 1e-4


def test_fit_against_held_out_acceleration(fit10):
    # The two kept orders; the four-order series is checked at the held-out
    # acceleration by `fit.validation` and against the per-acceleration loop.
    h = 5.0e-4
    exact = bogoliubov_exact(CavityGeometry(h=h, n_max=10))
    pred = np.eye(10) + fit10.a1 * h + fit10.a2 * h * h
    dev = np.max(np.abs(pred - exact.alpha))
    scale = np.max(np.abs(exact.alpha - np.eye(10)))
    assert dev / scale < 1e-4


def _first_order_gaps(fit):
    """Largest |fit - closed form| of a1 and of b1, each over its largest coefficient."""
    a1, b1 = first_order_closed_form(fit.n_max)
    return (
        float(np.max(np.abs(fit.a1 - a1)) / np.max(np.abs(a1))),
        float(np.max(np.abs(fit.b1 - b1)) / np.max(np.abs(b1))),
    )


@pytest.mark.parametrize("n_max", [20, 40, 80])
def test_first_order_matches_closed_form(fit20, n_max):
    # Exact oracle for the fit's first order: the closed-form coefficients
    # agree within the fit's own held-out error.
    fit = fit20 if n_max == 20 else fit_transition(n_max=n_max)
    gaps = _first_order_gaps(fit)
    assert max(gaps) <= fit.validation["max_rel_err"], gaps


@pytest.mark.parametrize("n_max", [20, 40])
def test_second_order_diagonal_matches_closed_form(cache_dir, n_max):
    # Physics anchor for the fit's second order: its diagonal is
    # a2[n, n] = -pi^2 n^2 / 240 in closed form.  The fit meets it to about
    # 9e-8 relative at n_max 20 and 40.
    fit = get_transition(n_max=n_max, cache_dir=cache_dir)
    n = np.arange(1, n_max + 1)
    np.testing.assert_allclose(np.diag(fit.a2), -(np.pi**2) * n**2 / 240.0, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("n_max", [20, 40, 160])
def test_exact_matrices_leave_a_cubic_remainder_after_two_closed_form_orders(n_max):
    # Through second order the closed forms are the expansion of the exact
    # matrices: what is left shrinks 8x per halving of h, as an O(h^3)
    # remainder does.  A wrong second-order entry would leave an h^2 residual
    # that shrinks only 4x.  The largest residual of the whole matrices sits
    # among the highest modes, so the block of modes 1..20 is checked on its
    # own too, or a wrong low-mode entry could hide at n_max 160.
    hs = (2.0e-3, 1.0e-3, 5.0e-4)
    a1, b1 = first_order_closed_form(n_max)
    a2, b2 = second_order_closed_form(n_max)
    residuals = []
    for h, (alpha, beta) in zip(hs, modes._exact_matrices(hs, n_max, modes._panels(n_max))):
        res_a = np.abs(alpha - np.eye(n_max) - a1 * h - a2 * h * h)
        res_b = np.abs(beta - b1 * h - b2 * h * h)
        residuals.append([np.max(res[block]) for res in (res_a, res_b) for block in (..., np.s_[:20, :20])])
    for at_h, at_half in zip(residuals, residuals[1:]):
        assert all(r >= 7.5 * r_half for r, r_half in zip(at_h, at_half)), residuals


@pytest.mark.parametrize("n_max", [20, 40])
def test_second_order_closed_form_diagonals(n_max):
    # a2[n, n] = -pi^2 n^2 / 240, and the general b2 formula gives
    # b2[n, n] = 1 / (16 pi^2 n^2).  The exact matrices meet both: their
    # diagonals have no first- or third-order term, so (alpha - I) / h^2 and
    # beta / h^2 at h = 2e-3 are the h^2 coefficients up to O(h^2) and the
    # quadrature's rounding (1e-5 and 6e-5 relative at n_max 40).
    a2, b2 = second_order_closed_form(n_max)
    n = np.arange(1, n_max + 1)
    a2_diag, b2_diag = -(np.pi**2) * n**2 / 240.0, 1.0 / (16.0 * np.pi**2 * n**2)
    np.testing.assert_allclose(np.diag(a2), a2_diag, rtol=4e-16, atol=0.0)
    np.testing.assert_allclose(np.diag(b2), b2_diag, rtol=4e-16, atol=0.0)
    h = 2.0e-3
    [(alpha, beta)] = modes._exact_matrices([h], n_max, modes._panels(n_max))
    np.testing.assert_allclose(np.diag(alpha - np.eye(n_max)) / (h * h), a2_diag, rtol=1e-4, atol=0.0)
    np.testing.assert_allclose(np.diag(beta) / (h * h), b2_diag, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("n_max", [20, 40, 160])
def test_quarter_phase_t2_on_closed_form_coefficients(n_max):
    # The anchor T2(1/4, k) = k^2 pi^2 / 60, through the package's stacked
    # segment maps and channel invariants on the closed-form coefficients:
    # within two ulps at every cutoff.
    modes_ = (1, 2, 3)
    t2 = channel_invariants(reduced_channel(grid_segments(closed_form_transition(n_max), np.array([0.25]), modes_))).t2
    for k, (value,) in zip(modes_, t2):
        target = k * k * np.pi**2 / 60.0
        assert abs(value - target) <= 2 * np.spacing(target), k


def test_both_t2_routes_reach_the_exact_limit_at_n_max_640():
    # T2 at n_max -> infinity is a polynomial in u (`oracles.t2_limit`).  On
    # the closed-form coefficients at n_max 640 the invariants route and the
    # sums route sit on it within the mode-sum truncation (largest measured
    # errors 9.6e-13 and 2.4e-13), on u = i/64.
    us = np.arange(1, 64) / 64
    modes_ = (1, 2, 3)
    sums = grid_segments(closed_form_transition(640), us, modes_)
    for j, k in enumerate(modes_):
        per_mode = sums[j]
        limit = t2_limit(k, us)
        np.testing.assert_allclose(channel_invariants(reduced_channel(per_mode)).t2, limit, rtol=2e-12, atol=0.0)
        np.testing.assert_allclose(t2_from_sums(per_mode), limit, rtol=2e-12, atol=0.0)


def test_nbar_at_n_max_160_is_within_its_truncation_of_a_row_only_nbar_at_n_max_10000():
    # Row k of the closed-form first order gives the mode sums at N = 10^4
    # in O(N) per phase, with no N x N matrix.  On u = i/32 both nbar routes
    # at n_max 160 sit within its cutoff's truncation of that nbar (largest
    # measured 1.45e-5 through the channel invariants and 1.32e-5 from the
    # sums, both at k = 3).  At n_max 160 the row-only route meets the sums
    # route within the rounding of the subtracted 1/2 (2.0e-11 measured).
    us = np.arange(1, 32) / 32
    modes_ = (1, 2, 3)
    stack = grid_segments(closed_form_transition(160), us, modes_)
    for j, k in enumerate(modes_):
        sums = stack[j]
        converged = nbar_row_only(k, us, 10_000)
        np.testing.assert_allclose(channel_invariants(reduced_channel(sums)).nbar, converged, rtol=2e-5, atol=0.0)
        from_sums = [nbar_from_sums(sums[i]) for i in range(us.size)]
        np.testing.assert_allclose(from_sums, converged, rtol=2e-5, atol=0.0)
        np.testing.assert_allclose(nbar_row_only(k, us, 160), from_sums, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_t2_limit_meets_the_quarter_phase_anchor(k):
    target = k * k * np.pi**2 / 60.0
    assert abs(t2_limit(k, 0.25) - target) <= 2 * np.spacing(target)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_t2_limit_is_symmetric_about_half_phase(k):
    # The mirror u -> 1 - u keeps every cosine: equal up to the rounding of
    # the O(1) terms in the bracket, a few ulps of T2's peak k^2 pi^2 / 30.
    us = np.arange(0, 1025) / 1024
    np.testing.assert_allclose(t2_limit(k, us), t2_limit(k, 1.0 - us), rtol=0.0, atol=1e-14 * k * k * np.pi**2 / 30.0)


def test_segment_at_zero_phase_is_identity(fit20):
    bogo = full_maps(fit20, 0.0)
    assert np.allclose(bogo.alpha0, np.ones(fit20.n_max), atol=1e-15)
    assert np.max(np.abs(bogo.alpha1)) == 0.0
    assert np.max(np.abs(bogo.beta1)) == 0.0
    # The order-2 diagonal reduces to the transition identity, so it is
    # truncation-tail small rather than exactly zero.
    assert np.max(np.abs(np.diag(bogo.alpha2))[:5]) < 5e-6


def test_segment_periodicity(fit20):
    a = full_maps(fit20, 0.37)
    b = full_maps(fit20, 1.37)
    assert np.allclose(a.alpha1, b.alpha1, atol=1e-10)
    assert np.allclose(a.beta1, b.beta1, atol=1e-10)
    assert np.allclose(a.alpha2, b.alpha2, atol=1e-9)


def test_segment_identity_residuals(fit20):
    bogo = full_maps(fit20, 0.3)
    assert np.all(bogo.identity_residuals_order2()[:5] < 1e-6)


def test_mode_sum_exact_ratio(fit20):
    # For the fundamental mode the pair-creation sum at quarter phase is
    # exactly half its value at half phase.
    quarter = mode_sums(full_maps(fit20, 0.25), 1)
    half = mode_sums(full_maps(fit20, 0.5), 1)
    assert quarter.f_beta / half.f_beta == pytest.approx(0.5, rel=1e-12)


def test_phase_u_inertial_limit():
    # u -> tau / (2 L) as h -> 0.
    assert phase_u(1e-8, 0.7, 1.0) == pytest.approx(0.35, rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(u=st.floats(0.01, 3.0), h=st.floats(1e-4, 1.0))
def test_phase_duration_round_trip(u, h):
    tau = duration_from_u(u, h)
    assert phase_u(h, tau) == pytest.approx(u, rel=1e-12)


def _coefficients(fit) -> tuple:
    return fit.a1, fit.a2, fit.b1, fit.b2


def _same_coefficients(fit, other) -> bool:
    """Every coefficient of both fits equal, bit for bit; `other` is a fit or the tuple (a1, a2, b1, b2)."""
    theirs = other if isinstance(other, tuple) else _coefficients(other)
    return all(np.array_equal(x, y) for x, y in zip(_coefficients(fit), theirs, strict=True))


@pytest.fixture(scope="module")
def ladder10():
    """The four-order fit at n_max 10, as cache formats before 4 stored it."""
    return fit_by_exact_loop(n_max=10)


def test_cache_round_trip(tmp_path):
    first = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, first.n_max)
    assert path.exists()
    second = get_transition(n_max=4, cache_dir=tmp_path)
    assert _same_coefficients(first, second)


def test_a_cache_file_cleared_as_it_is_read_is_a_miss(tmp_path, monkeypatch):
    # Another process may clear the cache between a request's lookup and its
    # read: the request then fits afresh and saves, as on an empty cache.
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    read = modes.load_transition

    def cleared_first(path):
        Path(path).unlink()
        return read(path)

    monkeypatch.setattr(modes, "load_transition", cleared_first)
    refit = get_transition(n_max=4, cache_dir=tmp_path)
    assert refit is not fit and _same_coefficients(refit, fit)
    assert path.exists()
    monkeypatch.undo()
    assert _same_coefficients(load_transition(path), fit)


def test_a_cache_request_reads_its_file_without_a_stat_first(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Path, "exists", lambda self: pytest.fail(f"stat of {self}"))
        hit = get_transition(n_max=4, cache_dir=tmp_path)
    assert _same_coefficients(hit, fit)


def test_cache_file_holds_the_two_kept_orders(tmp_path):
    # Four (n, n) matrices after the header, half the bytes of the four-order stacks.
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    _, header, payload = path.read_bytes().split(b"\n", 2)
    assert len(payload) == 4 * 8 * 4 * 4
    assert json.loads(header)["key"]["format"] == 5
    _, _, a, b = read_parts(path)
    assert _same_coefficients(fit, (*a, *b))


def test_cache_detects_corruption(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    tamper_coefficient(path, (0, 0, 1), 1.0)
    with pytest.raises(CorruptCacheError):
        get_transition(n_max=4, cache_dir=tmp_path)


@pytest.mark.parametrize("field", ["validation", "key"])
def test_cache_checksum_covers_fit_diagnostics(tmp_path, field):
    # bogo-check prints the stored validation error, so an edit to it, or to
    # the key beside it in the header, must not load silently.
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    digest, meta, a, b = read_parts(path)
    if field == "validation":
        meta["validation"]["max_rel_err"] = 0.0
    else:
        meta["key"]["validation_h"] = 2.0e-3
    write_parts(path, meta, a, b, digest)
    with pytest.raises(CorruptCacheError, match="checksum"):
        get_transition(n_max=4, cache_dir=tmp_path)


@pytest.mark.parametrize("part", ["header", "payload"])
def test_cache_flipped_byte_fails_checksum(tmp_path, part):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    digest = read_parts(path)[0]
    # The header's third byte sits inside its first key name; the last byte is b2's.
    flip_byte(path, len(digest) + 1 + 2 if part == "header" else -1)
    with pytest.raises(CorruptCacheError, match="checksum"):
        get_transition(n_max=4, cache_dir=tmp_path)


@pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe{", b"[1, 2]", b'{"key": 3}'])
def test_cache_rejects_resealed_header_that_is_not_a_header(tmp_path, header):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    _, _, a, b = read_parts(path)
    write_parts(path, header, a, b)
    with pytest.raises(CorruptCacheError):
        load_transition(path)


def test_cache_rejects_wrong_coefficient_count(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    _, meta, a, b = read_parts(path)
    write_parts(path, meta, a, b.ravel()[:-1])
    with pytest.raises(CorruptCacheError, match="coefficients"):
        load_transition(path)


def test_cache_rejects_malformed_metadata(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    _, meta, a, b = read_parts(path)
    meta["validation"] = 5
    write_parts(path, meta, a, b)
    with pytest.raises(CorruptCacheError):
        load_transition(path)


def test_cache_rejects_format1_document_at_current_path(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    write_document(path, format1_document(fit_by_exact_loop(n_max=4))[1])
    with pytest.raises(CorruptCacheError):
        load_transition(path)


def test_cache_ignores_leftover_format1_file(tmp_path, fit10, ladder10):
    name, doc = format1_document(ladder10)
    old = tmp_path / name
    write_document(old, doc)
    before = old.read_bytes()
    fit = get_transition(n_max=10, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    assert sorted(tmp_path.iterdir()) == sorted([old, path])
    assert old.read_bytes() == before
    assert _same_coefficients(load_transition(path), fit10)


def test_cache_ignores_leftover_format2_file(tmp_path, fit10, ladder10):
    name, doc = format2_document(ladder10)
    old = tmp_path / name
    write_document(old, doc)
    before = old.read_bytes()
    fit = get_transition(n_max=10, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    assert path != old
    assert sorted(tmp_path.iterdir()) == sorted([old, path])
    assert old.read_bytes() == before
    assert _same_coefficients(load_transition(path), fit10)


def test_cache_ignores_leftover_format3_file_keyed_by_length(tmp_path, fit10, ladder10):
    # A format-3 file whose key still records the cavity length has another
    # name: it is left alone and a fresh fit is saved beside it.  Renamed to
    # the current name, its key is refused.
    old = write_format3(tmp_path, ladder10, length=True)
    before = old.read_bytes()
    fit = get_transition(n_max=10, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    assert path != old
    assert sorted(tmp_path.iterdir()) == sorted([old, path])
    assert old.read_bytes() == before
    assert _same_coefficients(fit, fit10)
    old.replace(path)
    with pytest.raises(CorruptCacheError, match="key"):
        load_transition(path)


def test_cache_upgrade_leaves_format3_file_and_saves_its_first_two_orders(tmp_path, monkeypatch, ladder10):
    # The format-3 file of n_max 10, as the last format-3 release wrote it
    # (that release named it transition_836584e4f85b37de.bin), is neither
    # read nor deleted: a fresh fit is made and saved beside it, and the
    # format-5 file holds the format-3 file's orders one and two bit for bit.
    old = write_format3(tmp_path, ladder10)
    assert old.name == "transition_836584e4f85b37de.bin"
    before = old.read_bytes()
    fits = []

    def counted_fit(n_max):
        fits.append(fit_transition(n_max))
        return fits[-1]

    monkeypatch.setattr(modes, "fit_transition", counted_fit)
    fit = get_transition(n_max=10, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    assert fits == [fit]
    assert sorted(tmp_path.iterdir()) == sorted([old, path])
    assert old.read_bytes() == before
    _, meta, a, b = read_parts(path)
    assert _same_coefficients(fit, (*a, *b))
    assert _same_coefficients(fit, (*ladder10.a[:2], *ladder10.b[:2]))
    assert meta == {"key": meta["key"], "validation": ladder10.validation}


def test_cache_upgrade_leaves_format4_file_and_saves_its_payload(tmp_path, monkeypatch, ladder10):
    # The format-4 file of n_max 10, byte for byte as the last format-4
    # release saved it (name included), is neither read nor deleted: a fresh
    # fit is made and saved beside it.  The format-5 file holds the same
    # coefficient bytes, and its header the key and the validation alone.
    old = write_format4(tmp_path, ladder10)
    assert old.name == "transition_3255b5aeeabf146f.bin"
    before = old.read_bytes()
    fits = []

    def counted_fit(n_max):
        fits.append(fit_transition(n_max))
        return fits[-1]

    monkeypatch.setattr(modes, "fit_transition", counted_fit)
    fit = get_transition(n_max=10, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    assert fits == [fit]
    assert sorted(tmp_path.iterdir()) == sorted([old, path])
    assert old.read_bytes() == before
    _, old_header, old_payload = before.split(b"\n", 2)
    _, header, payload = path.read_bytes().split(b"\n", 2)
    assert payload == old_payload
    assert "quadrature_error" in json.loads(old_header)
    assert json.loads(header) == {"key": modes._cache_key(10), "validation": ladder10.validation}
    assert modes._cache_key(10)["format"] == 5


def test_fit_matches_per_acceleration_loop(ladder10):
    # Independent route: one bogoliubov_exact call per acceleration, each
    # building its own quadrature tables.  The fit keeps orders one and two
    # of the loop's four; its validation is that of all four.
    fit = fit_transition(n_max=10)
    assert _same_coefficients(fit, (*ladder10.a[:2], *ladder10.b[:2]))
    assert fit.validation == ladder10.validation


@pytest.mark.parametrize("n_max", [10, 20, 40])
def test_quadrature_error_equals_the_per_acceleration_loop(n_max):
    # The largest coarse-to-fine change over the ladder, as the fit measured
    # it before it moved out of the fit, bit for bit: each acceleration and
    # rule on whole-array temporaries of its own.
    assert modes.quadrature_error(n_max) == fit_by_exact_loop(n_max=n_max).quadrature_error


@pytest.mark.parametrize("n_max", [13, 20, 40, 80, 160])
@pytest.mark.parametrize("coarse", [False, True], ids=["fit_rule", "coarse_rule"])
def test_exact_matrices_equal_the_whole_array_route(n_max, coarse):
    # The rule's operands are refilled in place in blocks of rows, and only
    # elementwise work is blocked, so every acceleration keeps the bits of the
    # whole-array temporaries, also where n_max is no multiple of the block.
    panels = modes._panels(n_max) // 2 if coarse else modes._panels(n_max)
    hs = (*DEFAULT_LADDER, DEFAULT_VALIDATION_H)
    got = modes._exact_matrices(hs, n_max, panels)
    want = exact_matrices_whole_array(hs, n_max, panels)
    assert len(got) == len(want) == len(hs)
    for pair, oracle in zip(got, want):
        for matrix, expected in zip(pair, oracle):
            assert matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_max", [10, 20])
def test_fit_equals_the_route_through_all_five_accelerations(monkeypatch, n_max):
    # The fit evaluates all five accelerations on one rule, refilling its
    # operands for each.  Each acceleration on a rule of its own gives the
    # same bits, and so does the fit built on those matrices.
    hs = (*DEFAULT_LADDER, DEFAULT_VALIDATION_H)
    panels = modes._panels(n_max)
    shared = modes._exact_matrices(hs, n_max, panels)
    one_by_one = [modes._exact_matrices([h], n_max, panels)[0] for h in hs]
    for (a, b), (a_1, b_1) in zip(shared, one_by_one):
        assert np.array_equal(a, a_1) and np.array_equal(b, b_1)

    fit = fit_transition(n_max=n_max)
    monkeypatch.setattr(modes, "_exact_matrices", lambda hs, n_max, panels: one_by_one)
    route = fit_transition(n_max=n_max)
    assert _same_coefficients(fit, route)
    assert fit.validation == route.validation


def _count_rules(monkeypatch):
    """Record each `_exact_matrices` call as (panels, accelerations) and each rule's node build by its panels."""
    routes, node_builds = [], []
    exact_matrices, gauss_panels = modes._exact_matrices, modes._gauss_panels

    def counted_route(hs, n_max, panels):
        routes.append((panels, tuple(hs)))
        return exact_matrices(hs, n_max, panels)

    def counted_nodes(x_lo, x_hi, panels):
        node_builds.append(panels)
        return gauss_panels(x_lo, x_hi, panels)

    monkeypatch.setattr(modes, "_exact_matrices", counted_route)
    monkeypatch.setattr(modes, "_gauss_panels", counted_nodes)
    return routes, node_builds


def test_fit_builds_one_table_and_five_matrix_pairs(monkeypatch):
    # One rule: the four rungs and the held-out acceleration all go through
    # one `_exact_matrices` call, which builds its nodes (and so its tables)
    # once.
    routes, node_builds = _count_rules(monkeypatch)
    fit_transition(n_max=10)
    assert routes == [(modes._panels(10), (*DEFAULT_LADDER, DEFAULT_VALIDATION_H))]
    assert node_builds == [modes._panels(10)] == [40]


def test_quadrature_error_builds_the_coarse_rule_then_the_fit_rule(monkeypatch):
    # One route per rule, the coarse one first, each at the four rungs.
    routes, node_builds = _count_rules(monkeypatch)
    modes.quadrature_error(10)
    assert routes == [(20, DEFAULT_LADDER), (40, DEFAULT_LADDER)]
    assert node_builds == [20, 40]


_IMPORT_THEN_LOAD = """
import sys
import rqss.cli
from rqss import modes
modes.get_transition(n_max=10, cache_dir=sys.argv[1])
print(modes._gauss_legendre.cache_info().currsize)
"""


def test_gauss_legendre_nodes_are_built_once_on_first_use_and_shared_read_only(monkeypatch, child_env, cache_dir):
    # Every rule reads the one set of nodes and weights: the two rules of
    # `quadrature_error` and a fit's rule build them once between them, with
    # the bits of a fresh `leggauss` call.  Importing the CLI and loading a
    # cached fit build none.
    get_transition(n_max=10, cache_dir=cache_dir)
    child = [sys.executable, "-c", _IMPORT_THEN_LOAD, str(cache_dir)]
    run = subprocess.run(child, env=child_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0"]
    leggauss, builds = np.polynomial.legendre.leggauss, []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda order: builds.append(order) or leggauss(order))
    modes._gauss_legendre.cache_clear()
    modes.quadrature_error(10)
    fit_transition(n_max=10)
    assert builds == [modes._GAUSS_ORDER] == [16]
    nodes, weights = modes._gauss_legendre()
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert [nodes.tobytes(), weights.tobytes()] == [arr.tobytes() for arr in leggauss(16)]


_TWO_FITS = """
from pathlib import Path
from rqss.modes import fit_transition

def peak_kib():
    status = Path("/proc/self/status").read_text()
    return int(next(line for line in status.splitlines() if line.startswith("VmHWM:")).split()[1])

peaks = []
for _ in range(2):
    fit_transition(160)
    peaks.append(peak_kib())
print(peaks[1] - peaks[0])
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the peak after a free depends on the allocator; measured with glibc on Linux",
)
def test_a_second_fit_in_a_process_raises_the_peak_by_at_most_2_mb(child_env):
    # A fit's rule keeps three (n_max x Q) arrays, 12.5 MB each at n_max 160,
    # and makes no other array of that size.  glibc keeps freed chunks, so a
    # fit that allocated fresh temporaries per acceleration peaked about
    # 11 MB higher on its second run in a process.  The child reads its peak
    # resident set from VmHWM, not ru_maxrss: ru_maxrss keeps the peak of the
    # image it was started from (this test process, larger than any fit).
    run = subprocess.run([sys.executable, "-c", _TWO_FITS], env=child_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 2 * 1024


_PINNED_FIT = """
from pathlib import Path
import numpy as np
from rqss.modes import fit_transition

def peak_kib():
    status = Path("/proc/self/status").read_text()
    return int(next(line for line in status.splitlines() if line.startswith("VmHWM:")).split()[1])

kept, log1p = [], np.log1p

def keeping_log1p(x):
    # A 6 MB block allocated and kept while the n_max 80 rule's operands are live.
    if not kept and x.size == 5120:
        kept.append(np.ones(6 << 17))
    return log1p(x)

np.log1p = keeping_log1p
fit_transition(160)
first = peak_kib()
fit_transition(80)
fit_transition(160)
print(len(kept), peak_kib() - first)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the peak after a free depends on the allocator; measured with glibc on Linux",
)
def test_a_block_kept_during_a_fit_keeps_none_of_its_operands_resident(child_env):
    # After a fit at n_max 160, glibc serves the operands of an n_max 80
    # rule (3.1 MB each) from its heap, and a block allocated above them
    # while they are live kept their 9.4 MB resident after they were freed,
    # under the next fit's peak: 16.4 MB above the first peak, the block's
    # 6 MB included.  Operands in maps of their own leave only the block.
    run = subprocess.run([sys.executable, "-c", _PINNED_FIT], env=child_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    kept, rise_kib = map(int, run.stdout.split())
    assert kept == 1 and rise_kib <= 8 * 1024


def test_cache_hit_equals_fresh_fit(tmp_path):
    for n_max in (20, 160):
        fresh = fit_transition(n_max=n_max)
        hit = load_transition(save_transition(fresh, tmp_path))
        assert _same_coefficients(hit, fresh)
        assert hit.validation == fresh.validation
        assert hit.n_max == fresh.n_max


def test_cache_detects_truncation(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(CorruptCacheError):
        get_transition(n_max=4, cache_dir=tmp_path)


def test_cache_rejects_mismatched_key(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, 4)
    # A whole, checksummed n_max = 4 file where the n_max = 5 fit belongs.
    other = cache_path(tmp_path, 5)
    other.write_bytes(path.read_bytes())
    with pytest.raises(CorruptCacheError, match="key"):
        get_transition(n_max=5, cache_dir=tmp_path)
    # A stored key that does not describe the stored fit.
    _, meta, a, b = read_parts(path)
    meta["key"]["validation_h"] = 2.0e-3
    write_parts(path, meta, a, b)
    with pytest.raises(CorruptCacheError, match="key"):
        load_transition(path)


@pytest.mark.parametrize("fields", [("key",), ("key", "name")])
def test_cache_rejects_fit_on_another_ladder(tmp_path, fields):
    # The ladder is a constant, but a resealed file that records another one,
    # in its key alone or in its key and its name too, is not used.
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    _, meta, a, b = read_parts(path)
    meta["key"]["ladder"] = [6.4e-3, 3.2e-3, 1.6e-3, 8.0e-4]
    if "name" in fields:
        path = path.with_name(file_name(meta["key"], ".bin"))
    write_parts(path, meta, a, b)
    with pytest.raises(CorruptCacheError, match="key"):
        load_transition(path)


def test_cache_save_leaves_no_temporary_file(tmp_path):
    fit = get_transition(n_max=4, cache_dir=tmp_path)
    path = save_transition(fit, tmp_path)
    assert sorted(tmp_path.iterdir()) == [path]


_CACHE_RACE = """
import sys, time
from rqss.modes import fit_transition, load_transition, save_transition
role, cache, path = sys.argv[1:]
fit = fit_transition(n_max=20)
deadline = time.monotonic() + 1.0
while time.monotonic() < deadline:
    if role == "save":
        save_transition(fit, cache)
    else:
        assert load_transition(path).n_max == 20
"""


def test_cache_concurrent_saves_and_load(tmp_path, child_env):
    # Two writers replace the file for the same key while a reader loads it;
    # every load must see a whole file.
    fit = get_transition(n_max=20, cache_dir=tmp_path)
    path = cache_path(tmp_path, fit.n_max)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CACHE_RACE, role, str(tmp_path), str(path)],
            env=child_env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for role in ("save", "save", "load")
    ]
    try:
        errors = [proc.communicate(timeout=60)[1] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0, 0, 0], errors
    assert sorted(tmp_path.iterdir()) == [path]
    assert _same_coefficients(load_transition(path), fit)


def test_cache_dir_resolution(tmp_path, monkeypatch):
    assert resolve_cache_dir(tmp_path) == tmp_path
    monkeypatch.setenv("RQSS_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv("RQSS_CACHE_DIR")
    assert resolve_cache_dir(None).name == "rqss"
