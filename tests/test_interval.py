"""Containment soundness of the interval substrate.

The randomized checks follow one pattern: draw random intervals, draw member
points, apply the exact float operation to the members, and require the
result to lie inside the interval result. A single violation is a bug.
The batch matrix kernels are checked against exact rational products, and
the outward rounding bit for bit against np.nextafter.
"""

import math
import operator
import pickle
from copy import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revcover import dynamics, interval
from revcover.covering import _bisect_cells
from revcover.dynamics import reversible_quadratic_map
from revcover.interval import (
    DomainError,
    IBox,
    IMatrix,
    IndeterminateSignError,
    Interval,
    affine_batch,
    det_sign,
    idiv,
    imat_inverse,
    imat_mul,
    imat_vec,
    imat_vec_batch,
    imatmul_batch,
    imatvec_cellwise,
    imul,
)

from conftest import encloses

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
# the Interval operators; each also applies to the float members
ring_ops = st.sampled_from([operator.add, operator.sub, operator.mul])


def make_iv(a, b):
    return Interval(min(a, b), max(a, b))


def test_add_example():
    r = Interval(1, 2) + Interval(3, 4)
    assert r.lo <= 4 <= 6 <= r.hi
    assert r.lo >= math.nextafter(math.nextafter(4, -math.inf), -math.inf)
    assert r.hi <= math.nextafter(math.nextafter(6, math.inf), math.inf)


def test_mul_example():
    r = Interval(-1, 2) * Interval(3, 4)
    assert r.lo <= -4 and r.hi >= 8


def test_div_by_zero_interval():
    with pytest.raises(DomainError):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(DomainError):
        Interval(1, 1) / Interval(0, 0)


def test_exact_neutral_elements():
    a = Interval(0.1, 0.7)
    assert (a + Interval.point(0.0)) == a
    assert (a * Interval.point(1.0)) == a
    assert (a * Interval.point(0.0)) == Interval(0.0, 0.0)
    assert (a / Interval.point(1.0)) == a


def sample_members(rng, lo, hi, m):
    u = rng.uniform(0.0, 1.0, size=m)
    return np.clip(lo + u * (hi - lo), lo, hi)


def test_randomized_containment_all_ops(rng):
    """>= 1e5 sampled containment checks over add/sub/mul/div, 0 violations."""
    checks = 0
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for _ in range(125):
            bounds = rng.uniform(-1e3, 1e3, size=4)
            a = make_iv(bounds[0], bounds[1])
            b = make_iv(bounds[2], bounds[3])
            if op is operator.truediv and b.lo <= 0.0 <= b.hi:
                b = Interval(abs(b.lo) + 0.5, abs(b.lo) + 0.5 + (b.hi - b.lo))
            r = op(a, b)
            xs = sample_members(rng, a.lo, a.hi, 100)
            ys = sample_members(rng, b.lo, b.hi, 100)
            vals = op(xs, ys)
            assert np.all(vals >= r.lo) and np.all(vals <= r.hi)
            checks += 200 * 100
    assert checks >= 100_000


@given(finite, finite, finite, finite, ring_ops)
@settings(max_examples=200, deadline=None)
def test_containment_property(a1, a2, b1, b2, op):
    a = make_iv(a1, a2)
    b = make_iv(b1, b2)
    r = op(a, b)
    for x in (a.lo, a.hi, a.mid):
        for y in (b.lo, b.hi, b.mid):
            assert r.lo <= op(x, y) <= r.hi


@given(finite, finite, finite, finite, ring_ops)
@settings(max_examples=200, deadline=None)
def test_monotonicity_property(a1, a2, b1, b2, op):
    """Widening the operands never shrinks the result, up to 2 ulp slack per
    endpoint: the wider result must reach past the narrow one."""
    a = make_iv(a1, a2)
    b = make_iv(b1, b2)
    wider_a = Interval(math.nextafter(a.lo, -math.inf), math.nextafter(a.hi, math.inf))
    wider_b = Interval(math.nextafter(b.lo, -math.inf), math.nextafter(b.hi, math.inf))
    r = op(a, b)
    rw = op(wider_a, wider_b)
    lo_slack = math.nextafter(math.nextafter(r.lo, math.inf), math.inf)
    hi_slack = math.nextafter(math.nextafter(r.hi, -math.inf), -math.inf)
    assert rw.lo <= lo_slack
    assert rw.hi >= hi_slack


# --- outward rounding: the same bits as np.nextafter ---

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_subnormal
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY,
                    np.nextafter(np.finfo(np.float64).smallest_normal, 0.0),
                    -np.nextafter(np.finfo(np.float64).smallest_normal, 0.0),
                    MAX, -MAX, 1.0, -1.0])
CUT = interval._BITSTEP_MIN


def assert_same_bits(got, want):
    """Equal bit for bit, counting every NaN as equal to any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def random_bits(rng, size):
    """Floats from uniformly random int64 bit patterns (NaNs, subnormals and
    every exponent), with the special values in front."""
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=size,
                        dtype=np.int64, endpoint=True)
    a = bits.view(np.float64)
    a[:len(SPECIAL)] = SPECIAL[:size]
    return a


@pytest.mark.parametrize("size", [1, 100, CUT - 1, CUT, CUT + 1, 4 * CUT])
def test_rounding_steps_match_nextafter(rng, size):
    """_down/_up are np.nextafter toward -inf/+inf on both sides of the size
    at which arrays switch to stepping the bit pattern. They take ownership
    of their argument, so each call gets its own copy."""
    with np.errstate(all="ignore"):
        for _ in range(20):
            a = random_bits(rng, size)
            for b in (a, a.reshape(-1, 1)[::-1]):  # and a strided view of another shape
                assert_same_bits(interval._down(b.copy()), np.nextafter(b, -np.inf))
                assert_same_bits(interval._up(b.copy()), np.nextafter(b, np.inf))


def test_unpickled_arrays_take_the_bit_step():
    """Worker processes receive their cells by pickle, and an unpickled array
    has a dtype object of its own; it is still rounded by the bit step."""
    a = pickle.loads(pickle.dumps(np.ones(CUT)))
    assert interval._large(a) and interval._large(a + a)


def test_rounding_steps_match_nextafter_scalars():
    """Scalars, 0-d and one-element arrays, each call with its own copy."""
    with np.errstate(all="ignore"):
        for x in SPECIAL:
            for a in (float(x), np.float64(x), np.array(x), np.array([x])):
                assert_same_bits(interval._down(copy(a)), np.nextafter(a, -np.inf))
                assert_same_bits(interval._up(copy(a)), np.nextafter(a, np.inf))


def _widen_each(op, alo, ahi, blo, bhi):
    """Reference imul/idiv: every candidate widened before the min/max."""
    c = [op(alo, blo), op(alo, bhi), op(ahi, blo), op(ahi, bhi)]
    down = [np.nextafter(x, -np.inf) for x in c]
    up = [np.nextafter(x, np.inf) for x in c]
    return (np.minimum(np.minimum(down[0], down[1]), np.minimum(down[2], down[3])),
            np.maximum(np.maximum(up[0], up[1]), np.maximum(up[2], up[3])))


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


@pytest.mark.parametrize("size", [1, CUT - 1, CUT, CUT + 1, 4 * CUT])
def test_imul_idiv_round_once_is_bit_identical(rng, size):
    """Rounding the min/max of the candidates once gives the same bits as
    widening each candidate first."""
    with np.errstate(all="ignore"):
        for _ in range(10):
            alo, ahi = _endpoints(rng, size)
            blo, bhi = _endpoints(rng, size)
            ok = ~((blo <= 0.0) & (bhi >= 0.0))
            i = int(rng.integers(size))
            for kernel, op, args in (
                (imul, operator.mul, (alo, ahi, blo, bhi)),
                (idiv, operator.truediv, (alo[ok], ahi[ok], blo[ok], bhi[ok])),
                (imul, operator.mul, (float(alo[i]), float(ahi[i]), float(blo[i]), float(bhi[i]))),
            ):
                for got, want in zip(kernel(*args), _widen_each(op, *args)):
                    assert_same_bits(got, want)


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


# --- kernels round their own buffers, never their arguments ---

def _nextafter_sum(terms, shape):
    """Reference accumulation: each partial sum widened into a new array."""
    acc_lo, acc_hi = np.zeros(shape), np.zeros(shape)
    for tlo, thi in terms:
        acc_lo = np.nextafter(acc_lo + tlo, -np.inf)
        acc_hi = np.nextafter(acc_hi + thi, np.inf)
    return acc_lo, acc_hi


def _ref_affine(M, x, lo, hi):
    p1, p2 = M[None, :, :] * lo[:, None, :], M[None, :, :] * hi[:, None, :]
    plo = np.nextafter(np.minimum(p1, p2), -np.inf)
    phi = np.nextafter(np.maximum(p1, p2), np.inf)
    slo, shi = _nextafter_sum(((plo[:, :, j], phi[:, :, j]) for j in range(M.shape[1])),
                              lo.shape)
    return np.nextafter(slo + x, -np.inf), np.nextafter(shi + x, np.inf)


def _ref_mul(alo, ahi, blo, bhi):
    return _widen_each(operator.mul, alo, ahi, blo, bhi)


REFERENCE = {
    interval.iadd: lambda alo, ahi, blo, bhi: (np.nextafter(alo + blo, -np.inf),
                                               np.nextafter(ahi + bhi, np.inf)),
    interval.isub: lambda alo, ahi, blo, bhi: (np.nextafter(alo - bhi, -np.inf),
                                               np.nextafter(ahi - blo, np.inf)),
    imul: _ref_mul,
    idiv: lambda *args: _widen_each(operator.truediv, *args),
    affine_batch: _ref_affine,
    imat_vec_batch: lambda Ml, Mh, lo, hi: _nextafter_sum(
        (_ref_mul(Ml[None, :, j], Mh[None, :, j], lo[:, j][:, None], hi[:, j][:, None])
         for j in range(Ml.shape[1])), (len(lo), len(Ml))),
    imatmul_batch: lambda Al, Ah, Bl, Bh: _nextafter_sum(
        (_ref_mul(Al[:, :, j][:, :, None], Ah[:, :, j][:, :, None],
                  Bl[:, j, :][:, None, :], Bh[:, j, :][:, None, :])
         for j in range(Al.shape[2])), (len(Al), Al.shape[1], Bl.shape[2])),
    imatvec_cellwise: lambda Al, Ah, lo, hi: _nextafter_sum(
        (_ref_mul(Al[:, :, j], Ah[:, :, j], lo[:, j][:, None], hi[:, j][:, None])
         for j in range(Al.shape[2])), lo.shape),
}


def _read_only(*arrays):
    copies = [np.array(a) for a in arrays]
    for a in copies:
        a.flags.writeable = False
    return copies


@pytest.mark.parametrize("nb", [CUT // 16 - 1, CUT // 16, CUT // 4 - 1, CUT // 4])
def test_kernels_leave_read_only_inputs_alone(rng, nb, monkeypatch):
    """Every public kernel accepts read-only arguments (a write into one
    raises) and returns the bits of the reference formulas, which round every
    candidate and every partial sum into a new array with np.nextafter. The
    (nb, 4) and (nb, 4, 4) arrays fall on both sides of _BITSTEP_MIN."""
    n = 4

    def pairs(shape):
        lo, hi = _endpoints(rng, int(np.prod(shape)))
        return lo.reshape(shape), hi.reshape(shape)

    with np.errstate(all="ignore"):
        for _ in range(3):
            (alo, ahi), (blo, bhi) = pairs((nb, n)), pairs((nb, n))
            ok = ~((blo <= 0.0) & (bhi >= 0.0))
            (Al, Ah), (Bl, Bh), (Ml, Mh) = pairs((nb, n, n)), pairs((nb, n, n)), pairs((n, n))
            calls = [(kernel, (alo, ahi, blo, bhi))
                     for kernel in (interval.iadd, interval.isub, imul)]
            calls += [
                (idiv, (alo[ok], ahi[ok], blo[ok], bhi[ok])),
                (affine_batch, (Ml, Mh[0], alo, ahi)),
                (imat_vec_batch, (Ml, Mh, alo, ahi)),
                (imatmul_batch, (Al, Ah, Bl, Bh)),
                (imatvec_cellwise, (Al, Ah, alo, ahi)),
            ]
            for kernel, args in calls:
                for got, want in zip(kernel(*_read_only(*args)), REFERENCE[kernel](*args)):
                    assert_same_bits(got, want)
            # the IMatrix/IBox kernels on finite data (their classes reject NaN)
            A = IMatrix(*_interval_array(rng, (n, n)))
            v = IBox(*_interval_array(rng, (n,)))
            got = imat_vec(A, v)
            for g, w in zip((got.lo, got.hi), _nextafter_sum(
                    (_ref_mul(A.lo[:, j], A.hi[:, j], v.lo[j], v.hi[j]) for j in range(n)), n)):
                assert_same_bits(g, w)
            B = IMatrix(*_interval_array(rng, (n, n)))
            got = imat_mul(A, B)
            for g, w in zip((got.lo, got.hi), REFERENCE[imatmul_batch](
                    A.lo[None], A.hi[None], B.lo[None], B.hi[None])):
                assert_same_bits(g, w[0])
            # the map kernels, against the same maps built on the reference kernels
            F = reversible_quadratic_map()
            with monkeypatch.context() as m:
                for kernel in (interval.iadd, interval.isub, imul):
                    m.setattr(dynamics, kernel.__name__, REFERENCE[kernel])
                want = [f(alo, ahi) for g in (F, F.inverse) for f in (g.eval_batch, g.jac_batch)]
            got = [f(*_read_only(alo, ahi))
                   for g in (F, F.inverse) for f in (g.eval_batch, g.jac_batch)]
            for g, w in zip(got, want):
                assert_same_bits(g[0], w[0])
                assert_same_bits(g[1], w[1])


# --- cell bisection (covering._bisect_cells) ---

def test_box_bisect_examples():
    """Each cell is split along its own widest coordinate: all left halves,
    then all right halves."""
    lo = np.array([[0.0, 0.0], [0.0, 0.0]])
    hi = np.array([[2.0, 1.0], [1.0, 3.0]])
    clo, chi = _bisect_cells(lo, hi)
    assert np.array_equal(clo, [[0, 0], [0, 0], [1, 0], [0, 1.5]])
    assert np.array_equal(chi, [[1, 1], [1, 1.5], [2, 1], [1, 3]])


def test_box_bisect_halves_widest(rng):
    nb = 50
    lo = rng.uniform(-5, 5, size=(nb, 4))
    hi = lo + rng.uniform(0.01, 3, size=(nb, 4))
    clo, chi = _bisect_cells(lo, hi)
    (llo, rlo), (lhi, rhi) = np.split(clo, 2), np.split(chi, 2)
    r = np.arange(nb)
    ax = np.argmax(hi - lo, axis=1)
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
    eye = IMatrix.from_point(np.eye(3))
    b = IBox([-1, 0, 2], [1, 1, 3])
    img = imat_vec(eye, b)
    assert img.contains_box(b)
    assert float(np.max(img.widths() - b.widths())) <= 4 * math.ulp(3.0)

    swap = IMatrix.from_point([[0, 1], [1, 0]])
    img = imat_vec(swap, IBox([1, 3], [2, 4]))
    assert img.contains_box(IBox([3, 1], [4, 2]))

    with pytest.raises(DomainError):
        imat_vec(swap, IBox([0, 0, 0], [1, 1, 1]))


def test_imat_vec_sampling_oracle(rng):
    A = rng.normal(size=(4, 4))
    M = IMatrix.from_point(A)
    lo = rng.uniform(-2, 2, size=4)
    v = IBox(lo, lo + rng.uniform(0, 1, size=4))
    img = imat_vec(M, v)
    pts = v.sample(rng, 1000)
    images = pts @ A.T
    assert np.all(images >= img.lo[None, :]) and np.all(images <= img.hi[None, :])


def test_imat_mul_containment(rng):
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    prod = imat_mul(IMatrix.from_point(A), IMatrix.from_point(B))
    assert prod.contains_matrix(A @ B)


def test_imat_inverse_identity_exact():
    J = imat_inverse(np.eye(4))
    assert float(np.max(J.widths())) == 0.0
    assert np.array_equal(J.lo, np.eye(4))


def test_imat_inverse_dyadic_diag():
    J = imat_inverse(np.diag([2.0, 4.0]))
    assert J.contains_matrix(np.diag([0.5, 0.25]))
    assert float(np.max(J.widths())) < 1e-15


def test_imat_inverse_residual_encloses_identity(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        J = imat_inverse(A)
        resid = imat_mul(J, IMatrix.from_point(A))
        assert resid.contains_matrix(np.eye(4))


def test_imat_inverse_singular():
    from revcover.interval import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        imat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_det_sign_examples():
    assert det_sign(IMatrix.from_point(np.eye(2))) == 1
    assert det_sign(IMatrix.from_point([[0, 1], [1, 0]])) == -1
    with pytest.raises(IndeterminateSignError):
        det_sign(IMatrix([[-1.0]], [[1.0]]))
    with pytest.raises(IndeterminateSignError):
        det_sign(IMatrix.from_point([[1.0, 2.0], [2.0, 4.0]]))


def test_det_sign_matches_float_det(rng):
    for _ in range(200):
        A = rng.normal(size=(3, 3))
        d = np.linalg.det(A)
        if abs(d) < 1e-6:
            continue
        assert det_sign(IMatrix.from_point(A)) == (1 if d > 0 else -1)
