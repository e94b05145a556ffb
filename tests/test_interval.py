"""Containment soundness of the interval substrate.

The randomized checks follow one pattern: draw random intervals, draw member
points, apply the exact float operation to the members, and require the
result to lie inside the interval result. A single violation is a bug.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revcover.covering import _bisect_cells
from revcover.interval import (
    DomainError,
    IBox,
    IMatrix,
    IndeterminateSignError,
    Interval,
    det_sign,
    imat_inverse,
    imat_mul,
    imat_vec,
)

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
