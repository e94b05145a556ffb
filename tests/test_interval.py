"""Containment soundness of the interval substrate.

The randomized checks follow one pattern: draw random intervals, draw member
points, evaluate the operation on the members in exact arithmetic, and
require the result to lie inside the interval result. A single violation
is a bug. Every kernel is rounded once, and every batch kernel is checked
against exact rational products (also over hypothesis-drawn data that
spans the float range), and its constants against their conditions.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revcover import dynamics, interval
from revcover.covering import _bisect_cells, _widest
from revcover.dynamics import _F_DATA, reversible_quadratic_map
from revcover.interval import (
    IMatrix,
    SingularMatrixError,
    _exact,
    affine_batch,
    det_sign,
    imat_inverse,
    imat_vec_batch,
    imatmul_batch,
    imatvec_cellwise,
)

from conftest import (contains, contains_box, encloses, exact_affine, exact_inverse, matmul,
                      matvec, outside, sample)
from test_dynamics import _exact_F, _exact_F_inverse, _exact_jacobian

def test_randomized_containment_all_ops(rng):
    """>= 2.5e5 sampled containment checks of the two wide kernels, the
    product imatmul_batch and the centered image p + T [-rad, rad], in
    exact arithmetic, 0 violations. Endpoints are uniform in [-1e3, 1e3],
    so every product and sum rounds; the members are the corners and
    points drawn inside."""
    checks = 0
    nb, n, count = 125, 4, 63
    A = np.sort(rng.uniform(-1e3, 1e3, size=(2, nb, n, n)), axis=0)
    B = np.sort(rng.uniform(-1e3, 1e3, size=(2, nb, n, n)), axis=0)
    lo, hi = imatmul_batch(A[0], A[1], B[0], B[1])
    As, Bs = _members(rng, A[0], A[1], count), _members(rng, B[0], B[1], count)
    for a, b in zip(As, Bs):
        assert outside(lo, hi, *exact_affine(a, b)) == 0
        checks += lo.size
    p = np.sort(rng.uniform(-1e3, 1e3, size=(2, nb, n)), axis=0)
    T = np.sort(rng.uniform(-1e3, 1e3, size=(2, nb, n, n)), axis=0)
    rad = rng.uniform(0, 1e3, size=(nb, n))
    lo, hi = interval._centered_image(p[0], p[1], T[0], T[1], rad)
    members = zip(_members(rng, p[0], p[1], 4 * count), _members(rng, T[0], T[1], 4 * count),
                  _members(rng, -rad, rad, 4 * count))
    for c, t, y in members:
        X, e = exact_affine(t, y[:, :, None], c[:, :, None])
        assert outside(lo, hi, X[:, :, 0], e) == 0
        checks += lo.size
    assert checks >= 250_000


MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_subnormal
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY,
                    np.nextafter(np.finfo(np.float64).smallest_normal, 0.0),
                    -np.nextafter(np.finfo(np.float64).smallest_normal, 0.0),
                    MAX, -MAX, 1.0, -1.0])


def _endpoints(rng, size):
    """Interval endpoints of mixed magnitude (1e-320 to beyond overflow),
    signed zeros, infinities, NaN and point intervals; not sorted, which the
    formulas do not need."""
    mag = 10.0 ** rng.uniform(-320, 310, size=size)
    a = np.where(rng.random(size) < 0.5, rng.normal(size=size), rng.normal(size=size) * mag)
    b = np.where(rng.random(size) < 0.3, a, a * rng.uniform(-2, 2, size=size))
    pick = rng.integers(0, len(SPECIAL), size=size)
    special = rng.random(size) < 0.05
    a[special] = SPECIAL[pick[special]]
    return a, b


# --- batch matrix kernels: exact member-sampling oracle ---

def _interval_array(rng, shape):
    """Sorted endpoints: a third of the entries of zero width, magnitudes
    from 1e-20, so that sums round, to about 1e300, so that products
    overflow, all finite."""
    scale = rng.choice([1e-20, 1.0, 1.0, 1e150, 1e300], size=shape)
    mid = rng.normal(size=shape) * scale
    rad = np.abs(rng.normal(size=shape)) * scale * rng.choice([0.0, 1e-8, 1.0], size=shape)
    return mid - rad, mid + rad


def _members(rng, lo, hi, count):
    """count member arrays of [lo, hi]: both corners, then entries picked at
    random from the lower corner, the upper corner and the interior."""
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.clip(lo + rng.uniform(size=(count,) + lo.shape) * (hi - lo), lo, hi)
    pick = rng.integers(0, 3, size=inner.shape)
    pts = np.where(pick == 0, lo, np.where(pick == 1, hi, inner))
    pts[0], pts[1] = lo, hi
    return pts


def _exact_matmul(A, B):
    A = [[Fraction(x) for x in row] for row in A.tolist()]
    B = [[Fraction(x) for x in row] for row in B.tolist()]
    return [[sum(A[i][j] * B[j][k] for j in range(len(B))) for k in range(len(B[0]))]
            for i in range(len(A))]


def test_batch_kernels_exact_oracle(rng):
    """affine_batch, imat_vec_batch, imatvec_cellwise and imatmul_batch
    enclose the exact products of member points, corners included, with
    zero-width entries and finite inputs whose products overflow."""
    nb, n = 24, 4
    lo, hi = _interval_array(rng, (nb, n))
    M = _interval_array(rng, (n, n))[1]
    x = _interval_array(rng, (n,))[1]
    Ml, Mh = _interval_array(rng, (n, n))
    Al, Ah = _interval_array(rng, (nb, n, n))
    Bl, Bh = _interval_array(rng, (nb, n, n))
    with np.errstate(over="ignore"):
        aff = affine_batch(M, x, lo, hi)
        fixed = imat_vec_batch(Ml, Mh, lo, hi)
        cellwise = imatvec_cellwise(Al, Ah, lo, hi)
        prod = imatmul_batch(Al, Ah, Bl, Bh)
    outs = (aff, fixed, cellwise, prod)
    assert not any(np.isnan(b).any() for out in outs for b in out)
    # overflow is exercised on both sides
    assert any((out[0] == -np.inf).any() for out in outs)
    assert any((out[1] == np.inf).any() for out in outs)
    for b in range(nb):
        vs = _members(rng, lo[b], hi[b], 6)
        mats = _members(rng, Ml, Mh, 6)
        As = _members(rng, Al[b], Ah[b], 6)
        Bs = _members(rng, Bl[b], Bh[b], 6)
        for v, Mm, A, B in zip(vs, mats, As, Bs):
            exact = [r[0] + Fraction(c) for r, c in
                     zip(_exact_matmul(M, v[:, None]), x.tolist())]
            assert encloses(aff[0][b], aff[1][b], exact)
            exact = [r[0] for r in _exact_matmul(Mm, v[:, None])]
            assert encloses(fixed[0][b], fixed[1][b], exact)
            exact = [r[0] for r in _exact_matmul(A, v[:, None])]
            assert encloses(cellwise[0][b], cellwise[1][b], exact)
            exact = [e for row in _exact_matmul(A, B) for e in row]
            assert encloses(prod[0][b], prod[1][b], exact)


# --- midpoint-radius kernels: exact oracle over hypothesis-drawn data ---

def _exact_members(lo, hi):
    """Exact member points of the interval array [lo, hi] as Fraction lists:
    both corners, a mixed corner and the exact midpoint."""
    lo = [Fraction(v) for v in np.ravel(lo).tolist()]
    hi = [Fraction(v) for v in np.ravel(hi).tolist()]
    mixed = [h if i % 2 else l for i, (l, h) in enumerate(zip(lo, hi))]
    return [lo, hi, mixed, [(l + h) / 2 for l, h in zip(lo, hi)]]


def _assert_midrad_enclose(M, x, Ml, Mh, lo, hi, aff, fixed):
    """aff = affine_batch(M, x, lo, hi) and fixed = imat_vec_batch(Ml, Mh,
    lo, hi) enclose the exact products of member points, and hold no NaN."""
    assert not any(np.isnan(b).any() for b in (*aff, *fixed))
    n, m = M.shape
    Mq = [Fraction(v) for v in M.ravel().tolist()]
    xq = [Fraction(v) for v in x.tolist()]
    mats = _exact_members(Ml, Mh)
    for b in range(len(lo)):
        for v in _exact_members(lo[b], hi[b]):
            exact = [sum(Mq[i * m + j] * v[j] for j in range(m)) + xq[i] for i in range(n)]
            assert encloses(aff[0][b], aff[1][b], exact)
            for A in mats:
                exact = [sum(A[i * m + j] * v[j] for j in range(m)) for i in range(n)]
                assert encloses(fixed[0][b], fixed[1][b], exact)


# magnitudes from 1e-300 to 1e300, subnormals, the largest floats (whose sum
# overflows) and the whole finite range as hypothesis draws it
_entry = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0, TINY, -TINY, 3 * TINY, MAX, -MAX, 0.75 * MAX, -0.75 * MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _interval_arrays(draw, shape):
    """Sorted finite endpoints: each entry a point, a narrow interval around
    a drawn value, or the hull of two drawn values."""
    size = int(np.prod(shape))
    a, b = (np.array(draw(st.lists(_entry, min_size=size, max_size=size)), dtype=float)
            for _ in range(2))
    kind = np.array(draw(st.lists(st.sampled_from("pnw"), min_size=size, max_size=size)))
    with np.errstate(over="ignore"):
        near = a + np.abs(a) * 2.0 ** -30
    b = np.where(kind == "p", a, np.where((kind == "n") & np.isfinite(near), near, b))
    return np.minimum(a, b).reshape(shape), np.maximum(a, b).reshape(shape)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_midrad_kernels_enclose_exact_products(data):
    """affine_batch and imat_vec_batch enclose the exact image of corner and
    interior member points (exact Fraction arithmetic), with no NaN, over
    cells and matrices whose entries span the float range: points,
    subnormals, products that overflow and cells whose lo + hi overflows."""
    nb, n, m = (data.draw(st.integers(1, k)) for k in (3, 4, 4))
    lo, hi = data.draw(_interval_arrays((nb, m)))
    M = data.draw(_interval_arrays((n, m)))[0]
    x = data.draw(_interval_arrays((n,)))[1]
    Ml, Mh = data.draw(_interval_arrays((n, m)))
    # inf - inf in the center is expected: it comes out as [-inf, inf]
    with np.errstate(over="ignore", invalid="ignore"):
        aff = affine_batch(M, x, lo, hi)
        fixed = imat_vec_batch(Ml, Mh, lo, hi)
    _assert_midrad_enclose(M, x, Ml, Mh, lo, hi, aff, fixed)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_midrad_shift_encloses_exact_images(data):
    """imat_vec_batch with a center encloses A @ (v - center) for corner
    and interior members v of each cell and corner members A of the matrix
    (exact Fraction arithmetic), with no NaN, over cells, matrices and
    centers whose entries span the float range: points, subnormals, and
    shifts and products that overflow. An output end is infinite only where
    it is reached (A_ij != 0) by a coordinate j with max|v_j - center_j|
    past MAX/2, whose shift or radius operand |d| + rad can overflow, or
    where the exact bound of the image, the sum over j of
    max|A_ij| * max|v_j - center_j|, exceeds MAX/2."""
    nb, n, m = (data.draw(st.integers(1, k)) for k in (3, 4, 4))
    lo, hi = data.draw(_interval_arrays((nb, m)))
    Ml, Mh = data.draw(_interval_arrays((n, m)))
    center = data.draw(_interval_arrays((m,)))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        olo, ohi = imat_vec_batch(Ml, Mh, lo, hi, center)
    assert not (np.isnan(olo).any() or np.isnan(ohi).any())
    cq = [Fraction(v) for v in center.tolist()]
    mats = _exact_members(Ml, Mh)
    amax = [max(abs(Fraction(v)) for v in pair) for pair in zip(Ml.ravel().tolist(),
                                                                   Mh.ravel().tolist())]
    for b in range(nb):
        members = _exact_members(lo[b], hi[b])
        vmax = [max(abs(v[j] - cq[j]) for v in members[:2]) for j in range(m)]
        for i in range(n):
            terms = [amax[i * m + j] * vmax[j] for j in range(m)]
            if not (np.isfinite(olo[b, i]) and np.isfinite(ohi[b, i])):
                assert (sum(terms) > Fraction(MAX) / 2
                        or any(t and vmax[j] > Fraction(MAX) / 2 for j, t in enumerate(terms)))
        for v in members:
            for A in mats:
                exact = [sum(A[i * m + j] * (v[j] - cq[j]) for j in range(m)) for i in range(n)]
                assert encloses(olo[b], ohi[b], exact)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_radius_image_bounds_exact_products(data):
    """The centered image p + T [-rad, rad] (_centered_image) encloses
    p + A @ y for corner and interior members p of [plo, phi] and A of
    [Tl, Th] and every sign pattern of y = +-rad (exact Fraction
    arithmetic), and contains [plo - S, phi + S] for the exact
    S = max(|Tl|, |Th|) rad, with no NaN, over entries that span the float
    range: points, subnormals, radii of 0 and sums that overflow. An end is
    infinite only where max(|plo|, |phi|) + S passes MAX/2."""
    nb, n, m = (data.draw(st.integers(1, k)) for k in (3, 4, 4))
    plo, phi = data.draw(_interval_arrays((nb, n)))
    Tl, Th = data.draw(_interval_arrays((nb, n, m)))
    rad = np.abs(data.draw(_interval_arrays((nb, m)))[0])
    with np.errstate(over="ignore"):
        lo, hi = interval._centered_image(plo, phi, Tl, Th, rad)
    assert lo.shape == hi.shape == (nb, n)
    lows = [Fraction(v) for v in Tl.ravel().tolist()]
    highs = [Fraction(v) for v in Th.ravel().tolist()]
    mags = [max(abs(a), abs(b)) for a, b in zip(lows, highs)]
    for b in range(nb):
        r = [Fraction(v) for v in rad[b].tolist()]
        S = [sum(mags[(b * n + i) * m + j] * r[j] for j in range(m)) for i in range(n)]
        pl, ph = ([Fraction(v) for v in x[b].tolist()] for x in (plo, phi))
        assert encloses(lo[b], hi[b], [p - s for p, s in zip(pl, S)])
        assert encloses(lo[b], hi[b], [p + s for p, s in zip(ph, S)])
        for i in range(n):
            if not (np.isfinite(lo[b, i]) and np.isfinite(hi[b, i])):
                assert max(abs(pl[i]), abs(ph[i])) + S[i] > Fraction(MAX) / 2
    _assert_centered_encloses(plo, phi, Tl, Th, rad, lo, hi, range(nb))


@pytest.mark.parametrize("m", range(1, 9))
def test_radius_image_constants_meet_their_bounds(m):
    """The constants of the centered image over m columns, those of
    interval._constants(m, 0), meet its three conditions in exact
    arithmetic: gamma (1 - u)**4 >= u, kappa (1 - u)**(m + 3) >= 1 and
    (1 - u)**3 (floor - eta/2) - kappa m eta/2 - eta/2 >= 0, so that its
    radius covers S = |T| rad, the rounding of the sum p + A y, and every
    underflow."""
    gamma, floor, kappa = map(Fraction, interval._constants(m, 0)[:3])
    assert gamma * (1 - U) ** 4 >= U
    assert kappa * (1 - U) ** (m + 3) >= 1
    assert (1 - U) ** 3 * (floor - ETA / 2) - kappa * m * ETA / 2 - ETA / 2 >= 0


@pytest.mark.parametrize("m", range(1, 9))
def test_wide_product_constants_meet_their_bounds(m):
    """The wide product over m inner coordinates takes gamma and floor of
    interval._constants(m, 0); they meet its two conditions in exact
    arithmetic, with G' = gamma_(m-1) + u (1 + gamma_(m-1)):
    gamma (1 - u)**(m + 3) >= (1 + u) G' + u and
    (1 - u)**2 (floor - eta/2) - gamma m eta/2 >= (1 + G') m eta/2."""
    gamma, floor = map(Fraction, interval._constants(m, 0)[:2])
    G = _gamma(m - 1) + U * (1 + _gamma(m - 1))
    assert gamma * (1 - U) ** (m + 3) >= (1 + U) * G + U
    assert (1 - U) ** 2 * (floor - ETA / 2) - gamma * m * ETA / 2 >= (1 + G) * m * ETA / 2


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_wide_product_encloses_exact_products(data):
    """imatmul_batch encloses the exact product of corner and interior
    members (exact Fraction arithmetic), with no NaN, over entries that
    span the float range: points, subnormals, products that underflow and
    products and sums that overflow. An entry has an infinite end only
    where the exact S = sum_j max|candidate| passes MAX/2."""
    nb, n, m, k = (data.draw(st.integers(1, s)) for s in (3, 4, 4, 4))
    Al, Ah = data.draw(_interval_arrays((nb, n, m)))
    Bl, Bh = data.draw(_interval_arrays((nb, m, k)))
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = imatmul_batch(Al, Ah, Bl, Bh)
    assert lo.shape == hi.shape == (nb, n, k)
    _assert_wide_encloses(Al, Ah, Bl, Bh, lo, hi, range(nb))
    for b in range(nb):
        ends = [[Fraction(v) for v in x[b].ravel().tolist()] for x in (Al, Ah, Bl, Bh)]
        for i, l in itertools.product(range(n), range(k)):
            S = sum(max(abs(a * c) for a in (ends[0][i * m + j], ends[1][i * m + j])
                        for c in (ends[2][j * k + l], ends[3][j * k + l])) for j in range(m))
            if not (np.isfinite(lo[b, i, l]) and np.isfinite(hi[b, i, l])):
                assert S > Fraction(MAX) / 2


def test_radius_image_nonfinite_entries_reach_only_their_rows():
    """In the centered image, an infinite or NaN |T| entry against rad = 0
    contributes exactly 0, with no NaN; an infinite one against rad > 0,
    or a NaN center, makes [-inf, inf] of its own row only."""
    Tl = np.array([[[-np.inf, 1.0], [np.nan, 2.0]]])
    Th = np.array([[[np.inf, 1.0], [np.nan, 2.0]]])
    p = np.zeros((1, 2))
    lo, hi = interval._centered_image(p, p, Tl, Th, np.array([[0.0, 0.5]]))
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert encloses(lo[0], hi[0], [Fraction(1, 2), Fraction(1)])
    assert encloses(lo[0], hi[0], [-Fraction(1, 2), -Fraction(1)])
    assert hi[0, 0] <= 0.5 * (1 + 2 ** -40) and hi[0, 1] <= 1 + 2 ** -40
    Th = np.array([[[np.inf, 1.0], [0.0, 2.0]]])
    lo, hi = interval._centered_image(p, p, np.zeros((1, 2, 2)), Th, np.array([[0.5, 0.5]]))
    assert (lo[0, 0], hi[0, 0]) == (-np.inf, np.inf)
    assert np.isfinite([lo[0, 1], hi[0, 1]]).all()
    assert encloses(lo[0, 1:], hi[0, 1:], [Fraction(1)])
    T = np.ones((1, 2, 2))
    lo, hi = interval._centered_image(np.array([[0.0, np.nan]]), p, T, T, np.ones((1, 2)))
    assert (lo[0, 1], hi[0, 1]) == (-np.inf, np.inf)
    assert encloses(lo[0, :1], hi[0, :1], [Fraction(2)]) and encloses(lo[0, :1], hi[0, :1], [-2])
    assert hi[0, 0] <= 2 + 2 ** -40


def test_wide_kernels_cover_underflow():
    """Products that round to zero, alone or in a sum, are covered by the
    floor of the radius: [TINY] times [1/2] is TINY/2 exactly, and a sum of
    four such products is 2 TINY, while every candidate rounds to 0."""
    half = np.full((1, 4, 1), 0.5)
    for A, B, value in ((np.full((1, 1, 1), TINY), half[:, :1], Fraction(TINY) / 2),
                        (np.full((1, 1, 4), TINY), half, 2 * Fraction(TINY)),
                        (np.full((1, 1, 4), -TINY), half, -2 * Fraction(TINY))):
        lo, hi = imatmul_batch(A, A, B, B)
        assert encloses(lo[0], hi[0], [value])
        p = np.zeros((1, 1))
        lo, hi = interval._centered_image(p, p, A, A, B[:, :, 0])
        assert encloses(lo[0], hi[0], [value]) and encloses(lo[0], hi[0], [-value])


@pytest.mark.parametrize("m", range(1, 9))
def test_midrad_constants_meet_their_bounds(m):
    """The constants of a linear step over m cell coordinates,
    interval._constants(m, 0), which affine_batch, imat_vec_batch and the
    cell engine's chart steps use, meet the three conditions for m = 0 in
    exact arithmetic: gamma covers the product's rounding, the rounding of
    the widening and the center's u |d| (the last + u), kappa the
    roundings of the matrix radius term, and floor every underflow. The
    Jacobian constants are 0: a linear map's Jacobian is exact."""
    gamma, floor, kappa, gamma_j, floor_j = map(Fraction, interval._constants(m, 0))
    q = 2 * m + 1
    assert gamma * (1 - U) ** (m + 5) >= _gamma(q) + U * (1 + _gamma(q)) + U
    assert kappa * (1 - U) ** (m + 4) >= 1 + U
    assert ((1 - U) ** 3 * (floor - ETA / 2) - (gamma + kappa) * m * ETA / 2 - ETA / 2
            >= (1 + U) * q * ETA)
    assert gamma_j == floor_j == 0


def test_midrad_kernels_examples():
    """A point cell comes out a few ulps wide, a cell whose lo + hi
    overflows keeps a finite enclosure, and a non-finite cell coordinate
    gives [-inf, inf] only in the outputs it reaches."""
    eye = np.eye(2)
    v = np.array([[0.1, -3.0]])
    for lo, hi in (affine_batch(eye, np.zeros(2), v, v), imat_vec_batch(eye, eye, v, v)):
        assert np.all(lo <= v) and np.all(v <= hi)
        assert np.all(hi - lo <= 16 * np.spacing(np.abs(v)))
    lo, hi = np.array([[0.6 * MAX, -0.7 * MAX]]), np.array([[0.7 * MAX, -0.6 * MAX]])
    with np.errstate(over="ignore"):
        outs = (affine_batch(eye, np.zeros(2), lo, hi), imat_vec_batch(eye, eye, lo, hi))
    for out in outs:
        assert np.isfinite(out).all()
        assert encloses(*out, [Fraction(v) for v in lo[0]])
        assert encloses(*out, [Fraction(v) for v in hi[0]])
    with np.errstate(invalid="ignore"):
        lo, hi = imat_vec_batch(eye, eye, np.array([[-np.inf, 0.0]]), np.array([[np.inf, 0.0]]))
    assert (lo[0, 0], hi[0, 0]) == (-np.inf, np.inf)
    assert np.isfinite([lo[0, 1], hi[0, 1]]).all() and lo[0, 1] <= 0.0 <= hi[0, 1]


def test_midrad_infinite_radius_reaches_only_its_outputs():
    """An infinite radius operand (|mid| + rad, or rad itself, overflowing)
    times an exact zero of |M| or rad(M) is no NaN: the outputs that the
    coordinate does not reach keep a finite enclosure."""
    eye = np.eye(2)
    cases = [(np.array([[0.75 * MAX, 1.0]]), np.array([[MAX, 2.0]])),
             (np.array([[-MAX, 1.0]]), np.array([[MAX, 2.0]]))]
    for lo, hi in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            outs = (imat_vec_batch(eye, eye, lo, hi), affine_batch(eye, np.zeros(2), lo, hi))
        for olo, ohi in outs:
            assert np.isfinite([olo[0, 1], ohi[0, 1]]).all()
            assert olo[0, 1] <= 1.0 and 2.0 <= ohi[0, 1]
            assert encloses(olo[0], ohi[0], [Fraction(v) for v in lo[0]])
            assert encloses(olo[0], ohi[0], [Fraction(v) for v in hi[0]])
    # a dense matrix carries the infinite coordinate into every output
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = imat_vec_batch(np.ones((2, 2)), np.ones((2, 2)), *cases[0])
    assert np.array_equal(lo, [[-np.inf] * 2]) and np.array_equal(hi, [[np.inf] * 2])


def test_midrad_matrix_radius_overflow_stays_bounded():
    """A matrix entry [-MAX, MAX], whose radius overflows in _mid_rad's
    safety factor, is taken at radius MAX: times a coordinate that is
    exactly the center, or one of small magnitude, its image is finite."""
    Ml, Mh = np.array([[-MAX, 0.0], [0.0, 1.0]]), np.array([[MAX, 0.0], [0.0, 1.0]])
    for x in (0.0, 0.1, -1e-300):
        v = np.array([[x, 2.0]])
        with np.errstate(over="ignore"):
            lo, hi = imat_vec_batch(Ml, Mh, v, v)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        for a in (-MAX, MAX):
            assert encloses(lo[0], hi[0], [Fraction(a) * Fraction(x), Fraction(2)])


# --- kernels compute in buffers of their own, never in their arguments ---

def _read_only(*arrays):
    copies = [np.array(a) for a in arrays]
    for a in copies:
        a.flags.writeable = False
    return copies


def _finite_members(lo, hi):
    """_exact_members of [lo, hi] with every entry that has an end that is
    not finite taken as 0: the callers check such entries' outputs apart."""
    keep = np.isfinite(lo) & np.isfinite(hi)
    return _exact_members(np.where(keep, lo, 0.0), np.where(keep, hi, 0.0))


def _assert_wide_encloses(Al, Ah, Bl, Bh, lo, hi, rows):
    """lo, hi = imatmul_batch(Al, Ah, Bl, Bh) hold no NaN, are [-inf, inf]
    in every entry that an end that is not finite reaches (through row i
    of A or column l of B), and enclose the exact products of the members
    at the given rows (exact Fraction arithmetic) in every other entry."""
    assert not (np.isnan(lo).any() or np.isnan(hi).any())
    bad = [~(np.isfinite(l) & np.isfinite(h)) for l, h in ((Al, Ah), (Bl, Bh))]
    reached = bad[0].any(axis=2)[:, :, None] | bad[1].any(axis=1)[:, None, :]
    assert (lo[reached] == -np.inf).all() and (hi[reached] == np.inf).all()
    n, m, k = Al.shape[1], Al.shape[2], Bl.shape[2]
    for b in rows:
        keep = ~reached[b].ravel()
        for A, B in itertools.product(_finite_members(Al[b], Ah[b]),
                                      _finite_members(Bl[b], Bh[b])):
            exact = [sum(A[i * m + j] * B[j * k + l] for j in range(m))
                     for i in range(n) for l in range(k)]
            assert encloses(lo[b].ravel()[keep], hi[b].ravel()[keep],
                            [v for v, kp in zip(exact, keep) if kp])


def _assert_centered_encloses(plo, phi, Tl, Th, rad, lo, hi, rows):
    """lo, hi = _centered_image(plo, phi, Tl, Th, rad) hold no NaN, are
    [-inf, inf] in every row whose center, or a T entry against rad_j > 0,
    is not finite, and enclose p + A y for the members at the given rows
    and every sign pattern of y = +-rad (exact Fraction arithmetic), in
    every other row."""
    assert not (np.isnan(lo).any() or np.isnan(hi).any())
    reached = (~(np.isfinite(plo) & np.isfinite(phi))
               | ((~(np.isfinite(Tl) & np.isfinite(Th))) & (rad[:, None, :] > 0)).any(axis=2))
    assert (lo[reached] == -np.inf).all() and (hi[reached] == np.inf).all()
    n, m = Tl.shape[1:]
    for b in rows:
        keep = ~reached[b]
        r = [Fraction(v) for v in rad[b].tolist()]
        for signs in itertools.product((-1, 1), repeat=m):
            for p, A in zip(_finite_members(plo[b], phi[b]), _finite_members(Tl[b], Th[b])):
                exact = [p[i] + sum(A[i * m + j] * sg * v for j, (sg, v) in enumerate(zip(signs, r)))
                         for i in range(n)]
                assert encloses(lo[b][keep], hi[b][keep], [v for v, kp in zip(exact, keep) if kp])


@pytest.mark.parametrize("nb", [63, 64, 255, 256])
def test_kernels_leave_read_only_inputs_alone(rng, nb):
    """Every public kernel accepts read-only arguments (a write into one
    raises). The wide kernels (imatmul_batch, imatvec_cellwise and the
    centered image), on endpoints that include +-0, subnormals, values near
    MAX, +-inf and NaN, hold no NaN, give [-inf, inf] where an end that is
    not finite reaches, and enclose the exact products of member points
    elsewhere; the midpoint-radius kernels enclose the exact products of
    member points on finite cells."""
    n = 4

    def pairs(shape):
        a, b = (x.reshape(shape) for x in _endpoints(rng, int(np.prod(shape))))
        return np.minimum(a, b), np.maximum(a, b)

    with np.errstate(all="ignore"):
        for _ in range(3):
            (alo, ahi), (blo, bhi) = pairs((nb, n)), pairs((nb, n))
            (Al, Ah), (Bl, Bh), (Ml, Mh) = pairs((nb, n, n)), pairs((nb, n, n)), pairs((n, n))
            rows = [0, nb - 1, *rng.integers(nb, size=4)]
            _assert_wide_encloses(Al, Ah, Bl, Bh, *imatmul_batch(*_read_only(Al, Ah, Bl, Bh)),
                                  rows)
            cellwise = imatvec_cellwise(*_read_only(Al, Ah, alo, ahi))
            _assert_wide_encloses(Al, Ah, alo[:, :, None], ahi[:, :, None],
                                  *(x[:, :, None] for x in cellwise), rows)
            rad = np.abs(np.where(np.isfinite(blo), blo, 1.0))
            centered = interval._centered_image(*_read_only(alo, ahi, Al, Ah, rad))
            _assert_centered_encloses(alo, ahi, Al, Ah, rad, *centered, rows)
            # the midpoint-radius kernels: read-only on the same endpoints
            # (NaN, inf, lo + hi overflowing), then on finite cells against
            # the exact products at a few rows
            affine_batch(*_read_only(Ml, Mh[0], alo, ahi))
            imat_vec_batch(*_read_only(Ml, Mh, alo, ahi))
            lo, hi = _interval_array(rng, (nb, n))
            M, x = _interval_array(rng, (n, n))[1], _interval_array(rng, (n,))[1]
            Wl, Wh = _interval_array(rng, (n, n))
            aff = affine_batch(*_read_only(M, x, lo, hi))
            fixed = imat_vec_batch(*_read_only(Wl, Wh, lo, hi))
            rows = [0, nb - 1, *rng.integers(nb, size=4)]
            _assert_midrad_enclose(M, x, Wl, Wh, lo[rows], hi[rows],
                                   [a[rows] for a in aff], [a[rows] for a in fixed])
            # imatmul_batch on a batch of one, matrix times vector and
            # matrix times matrix, on finite data
            A = _read_only(*_interval_array(rng, (n, n)))
            v = _read_only(*_interval_array(rng, (n,)))
            B = _read_only(*_interval_array(rng, (n, n)))
            _assert_wide_encloses(A[0][None], A[1][None], v[0][None, :, None],
                                  v[1][None, :, None],
                                  *(x[None, :, None] for x in matvec(A, v)), [0])
            _assert_wide_encloses(*(x[None] for x in (*A, *B)),
                                  *(x[None] for x in matmul(A, B)), [0])
            # the map kernels: read-only on the same endpoints, then on
            # finite cells against the exact images and Jacobians at a few
            # rows
            F = reversible_quadratic_map()
            Fi = F.require_inverse()
            for g in (F, Fi):
                g.eval_batch(*_read_only(alo, ahi))
                g.jac_batch(*_read_only(alo, ahi))
            for g, exact, inverse in ((F, _exact_F, False), (Fi, _exact_F_inverse, True)):
                elo, ehi = g.eval_batch(*_read_only(lo, hi))
                assert not (np.isnan(elo).any() or np.isnan(ehi).any())
                for b in rows:
                    for v in _exact_members(lo[b], hi[b]):
                        assert encloses(elo[b], ehi[b], exact(*v))
                _assert_jacobian_encloses(g, inverse, *_read_only(lo, hi), rows)


def _assert_jacobian_encloses(g, inverse, lo, hi, rows):
    """jac_batch of g (F or F^-1) holds no NaN over the cells [lo, hi],
    keeps each entry that no square reaches (a constant of DF) around its
    value, and encloses the exact Jacobian at the member points of the
    given rows whose endpoints are finite."""
    with np.errstate(all="ignore"):
        jlo, jhi = g.jac_batch(lo, hi)
    assert not (np.isnan(jlo).any() or np.isnan(jhi).any())
    A, B, C = (np.asarray(_F_DATA[k], dtype=float) for k in "ABC")
    constant = (np.abs(C) @ np.abs(B)) == 0
    # F^-1's Jacobian is S DF S, S = diag(-1, -1, 1, 1): F's pattern, some entries negated
    s = np.array([-1.0, -1.0, 1.0, 1.0])
    value = np.outer(s, s) * A if inverse else A
    assert np.all(jlo[:, constant] <= value[constant])
    assert np.all(value[constant] <= jhi[:, constant])
    for b in rows:
        if np.isfinite(lo[b]).all() and np.isfinite(hi[b]).all():
            for v in _exact_members(lo[b], hi[b]):
                J = _exact_jacobian(v, inverse)
                assert encloses(jlo[b], jhi[b], [x for row in J for x in row])


@pytest.mark.parametrize("nb", [1, 7, 511, 512, 2048])
def test_jacobian_matches_entrywise_reference(rng, nb):
    """jac_batch of F and F^-1 encloses the exact Jacobian, entry by entry,
    over signed zeros, infinities, NaN, subnormals and magnitudes near
    1e+-300, in batches of one to 2,048 cells: no entry is NaN,
    DF's constant entries keep their value, and the exact Jacobian at the
    member points of finite cells lies inside (at every row of small
    batches, and at sampled rows of large ones)."""
    F = reversible_quadratic_map()
    extreme = np.concatenate([SPECIAL, [1e300, -1e300, 1e-300, -1e-300, 0.5, 1.5]])
    with np.errstate(all="ignore"):
        for _ in range(4):
            a, b = (v.reshape(nb, 4) for v in _endpoints(rng, 4 * nb))
            for v in (a, b):
                pick = rng.random((nb, 4)) < 0.2
                v[pick] = rng.choice(extreme, size=int(pick.sum()))
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            rows = range(nb) if nb <= 8 else [0, nb - 1, *rng.integers(nb, size=6)]
            for g, inverse in ((F, False), (F.require_inverse(), True)):
                _assert_jacobian_encloses(g, inverse, lo, hi, rows)


# --- quadratic maps, rounded once per output: exact oracle and bounds ---

U, ETA = Fraction(1, 2 ** 53), Fraction(1, 2 ** 1074)


def _gamma(k):
    return k * U / (1 - k * U)


def _required(n, m):
    """G and G_J of _quadratic_eval and _quadratic_jac, in exact arithmetic."""
    p, q, qj = 2 * n + 1, 2 * n + 2 * m + 1, 2 * m + 1
    tail = Fraction(1, 2 ** 22) * U
    a1 = (1 + U) * (1 + _gamma(p)) ** 2 + tail
    a2 = _gamma(p) * (2 + _gamma(p)) + U * (1 + _gamma(p)) ** 2 + tail
    G = (_gamma(q) + U * (1 + _gamma(q))) * a1 + a2
    GJ = (_gamma(qj) + U * (1 + _gamma(qj))) * (1 + _gamma(p)) + _gamma(p) + U
    return G, GJ


def _F_magnitude_bound(X, Y):
    """An exact magnitude of each output of F's formula for the largest
    magnitudes X = (X1, X2) of x and Y of y; the E of F's kernel
    (dynamics._quadratic_eval) exceeds it by a little more than 1/4."""
    W = [X[i] + Y[i] for i in range(2)]
    G = [(W[i] * (1 + W[i]) + 4 + W[1 - i]) / 2 for i in range(2)]
    return [G[0] + Y[0], G[1] + Y[1], G[0] + X[0], G[1] + X[1]]


def test_quadratic_constants_meet_their_bounds():
    """The kernel constants meet the four conditions of interval._constants
    for m > 0 in exact arithmetic, for F's (n, m) = (4, 2), a Henon map's
    (2, 1) and other sizes: the radii then cover every rounding error,
    underflow and the rounding of the widening. (m = 0 is
    test_midrad_constants_meet_their_bounds.)"""
    for n, m in ((4, 2), (2, 1), (1, 1), (3, 5), (8, 8)):
        gamma, floor, _, gamma_j, floor_j = map(Fraction, interval._constants(n, m))
        G, GJ = _required(n, m)
        q, qj = 2 * n + 2 * m + 1, 2 * m + 1
        assert gamma * (1 - U) ** (3 * n + m + 9) >= G
        assert (1 - U) ** 2 * (floor - ETA / 2) - gamma * (n + m) * ETA / 2 >= (1 + U) * q * ETA
        assert gamma_j * (1 - U) ** (n + m + 7) >= GJ
        assert (1 - U) ** 2 * (floor_j - ETA / 2) - gamma_j * m * ETA / 2 >= (1 + U) * qj * ETA


# magnitudes of cell endpoints with no overflow in E: zero, subnormals and
# 1e-300 to 1e150
_magnitude = st.one_of(
    st.sampled_from([0.0, TINY, 3 * TINY, 1.0]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(0, 10), st.integers(-300, 150)),
)


@given(st.lists(_magnitude, min_size=8, max_size=8))
@settings(max_examples=200, deadline=None)
def test_F_radius_covers_the_rounding_error(mags):
    """The radius r = fl(fl(gamma e) + floor) that F's kernel widens each
    output by has (1 - u) r >= G E + (1 + u) q eta (_quadratic_eval), for
    the magnitude bound e it computes and E = |c| + |A| Z + |C| s**2,
    s = |B| Z + |b| + nu, evaluated exactly from the cell's magnitudes Z: a
    cell [-a, b] per coordinate has largest magnitude max(a, b)."""
    q = reversible_quadratic_map().kernel
    lo, hi = -np.array([mags[:4]]), np.array([mags[4:]])
    W = dynamics._shift(q, interval._to_rows(lo, hi, q.value.shape[1]))[2]
    np.square(W[5:], out=W[5:])
    gamma, floor = q.constants[:2]
    r = interval._columns(q.magnitude, W)[:, 0] * gamma + floor
    Z = [Fraction(v) for v in np.maximum(-lo, hi)[0].tolist()]
    A, c, B, b, C = ([[Fraction(x) for x in row] for row in np.atleast_2d(_F_DATA[k]).tolist()]
                     for k in "AcBbC")
    s = [abs(b[0][k]) + sum(abs(x) * v for x, v in zip(B[k], Z)) + Fraction(dynamics._NU)
         for k in range(2)]
    G = _required(4, 2)[0]
    for i, ri in enumerate(r.tolist()):
        E = (abs(c[0][i]) + sum(abs(x) * v for x, v in zip(A[i], Z))
             + sum(abs(x) * sk * sk for x, sk in zip(C[i], s)))
        assert (1 - U) * Fraction(ri) >= G * E + (1 + U) * 13 * ETA


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_linear_radius_covers_the_rounding_error(data):
    """The radius r = fl(fl(fl(gamma e) + floor) + fl(kappa t)) that a
    linear step widens each output by has (1 - u) r >=
    (gamma_q + u (1 + gamma_q) + u) E + (1 + u) q eta + (1 + u) Ar Z
    (_linear_eval), for the e and t it computes, E = |c| + |Ac| Z and the
    matrix radius Ar, evaluated exactly: Z are the magnitudes of the cells
    shifted by the center, as the kernel rounds them. Outputs whose e or t
    passes _BIG are [-inf, inf] and are skipped."""
    nb, n, k = (data.draw(st.integers(1, s)) for s in (3, 4, 4))
    lo, hi = data.draw(_interval_arrays((nb, n)))
    Ml, Mh = data.draw(_interval_arrays((k, n)))
    c = data.draw(_interval_arrays((k,)))[0]
    center = data.draw(_interval_arrays((nb, n)))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        kern = interval._linear(Ml, c, Mh)
        Ac, Ar = interval._mid_rad(Ml, Mh)
        W = interval._prepare(interval._to_rows(lo, hi, 2 * n + 1), n, n + 1, center)
        e = interval._columns(kern.magnitude, W)
        gamma, floor, kappa = kern.constants
        r = e[:k] * gamma + floor
        if len(e) > k:
            r = r + e[k:] * kappa
    Ar = np.minimum(Ar, MAX)
    q = 2 * n + 1
    G = _gamma(q) + U * (1 + _gamma(q)) + U
    for b in range(nb):
        if not np.isfinite(W[:n, b]).all():
            continue
        Z = [Fraction(v) for v in W[:n, b].tolist()]
        for i in range(k):
            if not all(x[i, b] <= interval._BIG for x in (e[:k], e[k:]) if len(x)):
                continue
            E = abs(Fraction(c[i])) + sum(abs(Fraction(a)) * z for a, z in zip(Ac[i].tolist(), Z))
            radius = sum(Fraction(a) * z for a, z in zip(Ar[i].tolist(), Z))
            assert (1 - U) * Fraction(r[i, b]) >= G * E + (1 + U) * (q * ETA + radius)


@st.composite
def _F_cells(draw):
    """(nb, 4) cells for F: entries as for the midpoint-radius kernels or
    of order one (where F's terms cancel most), some cells points (whose
    image only the rounding error widens), some y made the negated x (so
    w = x + y cancels and y carries the output), and some endpoints
    infinite or NaN."""
    nb = draw(st.integers(1, 3))
    lo, hi = draw(_interval_arrays((nb, 4)))
    for b in range(nb):
        if draw(st.booleans()):
            lo[b] = hi[b] = draw(st.lists(st.floats(-4, 4), min_size=4, max_size=4))
        elif draw(st.booleans()):
            hi[b] = lo[b]
        for i in draw(st.lists(st.sampled_from([0, 1]), max_size=2)):
            lo[b, 2 + i], hi[b, 2 + i] = -hi[b, i], -lo[b, i]
        for i, j, v in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1),
                                               st.sampled_from([-np.inf, np.inf, np.nan])),
                                     max_size=1)):
            (lo, hi)[j][b, i] = v
    return lo, hi


@given(_F_cells())
@settings(max_examples=150, deadline=None)
def test_F_kernels_enclose_exact_images(cells):
    """eval_batch of F and F^-1 encloses the exact image of corner and
    interior member points (exact Fraction arithmetic) over cells whose
    entries span the float range: points, subnormals, intermediates that
    overflow and y = -x. An output is [-inf, inf] only where it is reached:
    a cell with an infinite or NaN endpoint gives [-inf, inf] in every
    output (each one uses every coordinate), and otherwise only an output
    whose magnitude bound E is past the float range has an infinite end.
    No output is NaN."""
    lo, hi = cells
    F = reversible_quadratic_map()
    for g, exact in ((F, _exact_F), (F.require_inverse(), _exact_F_inverse)):
        with np.errstate(over="ignore", invalid="ignore"):
            elo, ehi = g.eval_batch(lo, hi)
        assert not (np.isnan(elo).any() or np.isnan(ehi).any())
        for b in range(len(lo)):
            if not (np.isfinite(lo[b]).all() and np.isfinite(hi[b]).all()):
                assert (elo[b] == -np.inf).all() and (ehi[b] == np.inf).all()
                continue
            m = [Fraction(v) for v in np.maximum(np.abs(lo[b]), np.abs(hi[b])).tolist()]
            E = _F_magnitude_bound(m[:2], m[2:])
            infinite = ~(np.isfinite(elo[b]) & np.isfinite(ehi[b]))
            assert all(e > Fraction(MAX) / 2 for e, inf in zip(E, infinite) if inf)
            for v in _exact_members(lo[b], hi[b]):
                assert encloses(elo[b], ehi[b], exact(*v))


# --- cell bisection (covering._bisect_cells) ---

def test_widest_is_the_first_widest_coordinate(rng):
    """The bisection axis that every box count rests on: _widest agrees
    with np.argmax(hi - lo, axis=1), on random cells and on dyadic cells
    like the refinement's (of four coordinates, whose widths tie in most
    rows, and of one), and a tie goes to the first coordinate. A row of
    zero widths, and only such a row, is a point."""
    lo = rng.uniform(-1, 1, size=(500, 4))
    hi = lo + rng.uniform(0, 1, size=(500, 4))
    dlo = rng.integers(-16, 16, size=(2000, 4)) / 16.0
    dhi = dlo + 2.0 ** -rng.integers(0, 3, size=(2000, 4))
    dhi[:200] = dlo[:200]
    dhi[200:400, 2] = dlo[200:400, 2]
    for lo, hi in ((lo, hi), (dlo[:, :1], dhi[:, :1]), (dlo, dhi)):
        width = hi - lo
        ax, point = _widest(width)
        assert np.array_equal(ax, np.argmax(width, axis=1))
        assert ax.tolist() == [row.index(max(row)) for row in width.tolist()]
        assert np.array_equal(point, np.all(lo == hi, axis=1))
    tied = np.count_nonzero(width == width.max(axis=1, keepdims=True), axis=1) > 1
    assert np.count_nonzero(tied) > 1000
    assert point[:200].all() and not point[200:].any()


def test_box_bisect_examples():
    """Each listed cell is split along its given coordinate, into level
    order: per root, all left halves, then all right halves."""
    lo = np.array([[0.0, 0.0], [0.0, 0.0]])
    hi = np.array([[2.0, 1.0], [1.0, 3.0]])
    clo, chi, croot = _bisect_cells(lo, hi, np.array([5, 5]), np.arange(2), np.array([0, 1]))
    assert np.array_equal(clo, [[0, 0], [0, 0], [1, 0], [0, 1.5]])
    assert np.array_equal(chi, [[1, 1], [1, 1.5], [2, 1], [1, 3]])
    assert np.array_equal(croot, [5] * 4)
    # three cells of roots 0, 0 and 1: the children of root 0, then of root 1
    lo = np.zeros((3, 1))
    hi = np.array([[2.0], [4.0], [8.0]])
    root, axis = np.array([0, 0, 1]), np.zeros(3, dtype=int)  # 1-d cells: axis 0
    clo, chi, croot = _bisect_cells(lo, hi, root, np.arange(3), axis)
    assert np.array_equal(clo[:, 0], [0, 0, 1, 2, 0, 4])
    assert np.array_equal(chi[:, 0], [1, 2, 2, 4, 4, 8])
    assert np.array_equal(croot, [0, 0, 0, 0, 1, 1])
    # only the listed cells are halved: the second of root 0, and root 1's
    clo, chi, croot = _bisect_cells(lo, hi, root, np.array([1, 2]), axis[:2])
    assert np.array_equal(clo[:, 0], [0, 2, 0, 4])
    assert np.array_equal(chi[:, 0], [2, 4, 4, 8])
    assert np.array_equal(croot, [0, 0, 1, 1])


def test_box_bisect_halves_widest(rng):
    nb = 50
    lo = rng.uniform(-5, 5, size=(nb, 4))
    hi = lo + rng.uniform(0.01, 3, size=(nb, 4))
    ax = _widest(hi - lo)[0]
    clo, chi, _ = _bisect_cells(lo, hi, np.zeros(nb, dtype=int), np.arange(nb), ax)
    (llo, rlo), (lhi, rhi) = np.split(clo, 2), np.split(chi, 2)
    r = np.arange(nb)
    # split point is the float midpoint: accurate at coordinate scale
    scale = np.maximum(np.maximum(np.abs(lo[r, ax]), np.abs(hi[r, ax])), 1.0)
    assert np.all(np.abs((lhi - llo)[r, ax] - (hi - lo)[r, ax] / 2) <= 2 * np.spacing(scale))
    # the halves differ from the cell only at the shared splitting
    # hyperplane, so their union is the cell
    assert np.array_equal(llo, lo) and np.array_equal(rhi, hi)
    assert np.array_equal(lhi[r, ax], rlo[r, ax])
    other = np.arange(4)[None, :] != ax[:, None]
    assert np.array_equal(lhi[other], hi[other]) and np.array_equal(rlo[other], lo[other])


def test_imat_vec_examples(rng):
    """imatmul_batch on a batch of one, matrix times a box as a column: the
    identity's image is the box, widened on each side by no more than the
    kernel's radius gamma e + floor for the magnitude bound e <= 3 (plus
    the rounding of the widened ends)."""
    eye = (np.eye(3),) * 2
    b = np.array([-1.0, 0, 2]), np.array([1.0, 1, 3])
    img = matvec(eye, b)
    assert contains_box(img, b)
    gamma, floor = interval._constants(3, 0)[:2]
    assert float(np.max((img[1] - img[0]) - (b[1] - b[0]))) <= (
        2 * (gamma * 3.0 + floor) + 2 * math.ulp(3.0))

    swap = (np.array([[0.0, 1], [1, 0]]),) * 2
    img = matvec(swap, (np.array([1.0, 3]), np.array([2.0, 4])))
    assert contains_box(img, (np.array([3.0, 1]), np.array([4.0, 2])))


def test_imat_vec_sampling_oracle(rng):
    A = rng.normal(size=(4, 4))
    lo = rng.uniform(-2, 2, size=4)
    v = lo, lo + rng.uniform(0, 1, size=4)
    img = matvec((A, A), v)
    pts = sample(v, rng, 1000)
    images = pts @ A.T
    assert np.all(images >= img[0][None, :]) and np.all(images <= img[1][None, :])


def test_imat_mul_containment(rng):
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    assert contains(matmul((A, A), (B, B)), A @ B)


# --- the one exact reader (interval._exact) ---

def test_exact_reads_floats_as_fractions(rng):
    """_exact against fractions.Fraction: signed zeros, the least
    subnormal, -+MAX, mixed magnitudes, arrays of different shapes in one
    call and empty arrays all come back as ints k with k * 2**p equal to
    the float, for one exponent p <= 0: 2**-p is the largest denominator
    of the floats. Each array keeps its shape."""
    MAX = np.finfo(float).max
    mixed = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 4))
    cases = [
        (np.array([0.0, -0.0]),),
        (np.array([5e-324, -5e-324]), np.array([[MAX, -MAX]])),
        (mixed, np.array(2.5), np.array([[[1.0]], [[-0.75]]]), np.zeros((0, 3))),
        (np.zeros(0), np.zeros((2, 0))),
        (),
    ]
    for arrays in cases:
        *ks, p = _exact(*arrays)
        assert type(p) is int and p <= 0
        assert len(ks) == len(arrays)
        scale = Fraction(2) ** p
        for k, a in zip(ks, arrays):
            assert k.shape == a.shape and k.dtype == object
            assert all(type(x) is int and x * scale == Fraction(float(f))
                       for x, f in zip(k.ravel(), a.ravel()))
        assert 2 ** -p == max((Fraction(float(f)).denominator
                               for a in arrays for f in a.ravel()), default=1)


def test_imat_inverse_identity_exact():
    J = imat_inverse(np.eye(4))
    assert float(np.max(J.widths())) == 0.0
    assert np.array_equal(J.lo, np.eye(4))


def test_imat_inverse_dyadic_diag():
    J = imat_inverse(np.diag([2.0, 4.0]))
    assert contains(J, np.diag([0.5, 0.25]))
    assert float(np.max(J.widths())) < 1e-15


def test_imat_inverse_residual_encloses_identity(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        J = imat_inverse(A)
        assert contains(matmul((J.lo, J.hi), (A, A)), np.eye(4))


def test_imat_inverse_singular():
    with pytest.raises(SingularMatrixError):
        imat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def _conditioned(rng, n, cond):
    """A random n x n matrix with singular values from 1 down to 1/cond."""
    U, V = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    return (U * np.geomspace(1.0, 1.0 / cond, n)) @ V.T


def _singular(rng, n):
    """An exactly singular n x n float matrix: a product of integer
    matrices of inner dimension n - 1, all of whose sums are exact."""
    B, C = rng.integers(-9, 10, size=(n, n - 1)), rng.integers(-9, 10, size=(n - 1, n))
    return (B @ C).astype(float)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_imat_inverse_exact_oracle(rng, n):
    """Over condition numbers 1 to 1e14, imat_inverse either encloses the
    exact rational inverse or raises SingularMatrixError, and up to 1e8 it
    returns."""
    for cond in 10.0 ** np.arange(15):
        A = _conditioned(rng, n, cond)
        try:
            J = imat_inverse(A)
        except SingularMatrixError:
            assert cond > 1e8
            continue
        assert encloses(J.lo, J.hi, [v for row in exact_inverse(A) for v in row])


def test_imat_inverse_singular_or_nonfinite_raises(rng):
    """Exactly singular matrices (integer rank-deficient products, also
    scaled by 2**-1000, a repeated row, a zero column) and matrices with an
    inf or NaN entry raise SingularMatrixError: they never return."""
    # column 2 is exactly -2 times column 0, and numpy inverts it to finite floats
    cases = [np.array([[0.6, -0.2, -1.2], [0.8, -1.2, -1.6], [-0.3, -0.1, 0.6]])]
    for n in range(2, 7):
        for _ in range(4):
            A = _singular(rng, n)
            R = rng.normal(size=(n, n))
            cases += [A, A * 2.0 ** -1000, np.vstack([R[1:], R[-1:]]), R * (np.arange(n) != 1)]
            cases += [np.where(np.eye(n, k=1) > 0, bad, R) for bad in (np.inf, -np.inf, np.nan)]
    for A in cases:
        with pytest.raises(SingularMatrixError):
            imat_inverse(A)


def test_imat_inverse_signed_permutations_are_exact(rng):
    """A signed permutation, also with columns scaled by powers of two, has
    X M = I exactly, so its inverse comes back as a point."""
    for n in range(1, 7):
        for _ in range(5):
            P = np.zeros((n, n))
            P[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], size=n)
            for A in (P, P * 2.0 ** rng.integers(-3, 4, size=n)):
                J = imat_inverse(A)
                assert np.array_equal(J.lo, J.hi) and np.array_equal(J.lo @ A, np.eye(n))


def test_residual_bound_of_one_fails(monkeypatch):
    """The residual test is strict: with X = I as the approximate inverse,
    the singular diag(1, 0) has ||I - X A||_inf = 1 exactly, and fails."""
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.eye(len(a)))
    with pytest.raises(SingularMatrixError):
        imat_inverse(np.diag([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        det_sign(IMatrix(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))


def _exact_det(A):
    """The determinant of a square matrix of Fractions (a list of rows), by
    cofactor expansion."""
    if not A:
        return 1
    return sum((-1) ** j * a * _exact_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j, a in enumerate(A[0]))


@pytest.mark.parametrize("n, trials", [(1, 40), (2, 150), (3, 10)])
def test_det_sign_exact_oracle(rng, n, trials):
    """det_sign returns a sign only where every member's exact determinant
    has it, and raises SingularMatrixError wherever the members span
    det = 0. The determinant is affine in each entry, so its extremes over
    an interval matrix lie at the vertices; all are checked exactly. Some
    of the matrices are exactly singular at the midpoint."""
    outcomes = set()
    for t in range(trials):
        mid = _singular(rng, n) if n > 1 and t % 4 == 0 else rng.normal(size=(n, n))
        rad = rng.choice([0.0, 1e-12, 1e-3, 0.1, 0.3, 0.5]) * rng.uniform(size=(n, n))
        lo, hi = mid - rad, mid + rad
        ends = [[Fraction(x) for x in a.ravel().tolist()] for a in (lo, hi)]
        signs = set()
        for corner in itertools.product((0, 1), repeat=n * n):
            entries = [ends[c][i] for i, c in enumerate(corner)]
            d = _exact_det([entries[i * n:(i + 1) * n] for i in range(n)])
            signs.add((d > 0) - (d < 0))
        try:
            s = det_sign(IMatrix(lo, hi))
        except SingularMatrixError:
            outcomes.add("raised")
            continue
        assert signs == {s}
        outcomes.add("returned")
    assert outcomes == {"raised", "returned"}


def test_det_sign_examples():
    assert det_sign(IMatrix(np.eye(2), np.eye(2))) == 1
    assert det_sign(IMatrix([[0, 1], [1, 0]], [[0, 1], [1, 0]])) == -1
    with pytest.raises(SingularMatrixError):
        det_sign(IMatrix([[-1.0]], [[1.0]]))
    with pytest.raises(SingularMatrixError):
        det_sign(IMatrix([[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [2.0, 4.0]]))


def test_det_sign_matches_float_det(rng):
    for _ in range(200):
        A = rng.normal(size=(3, 3))
        d = np.linalg.det(A)
        if abs(d) < 1e-6:
            continue
        assert det_sign(IMatrix(A, A)) == (1 if d > 0 else -1)
