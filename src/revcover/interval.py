"""Outward-rounded interval arithmetic for scalars, boxes and matrices.

Every operation returns an enclosure of the exact real-arithmetic result set.
Outward rounding is realized by next-representable widening: a result computed
in round-to-nearest differs from the exact value by at most half an ulp, so
stepping each endpoint one float outward always yields a rigorous bound. The
kernel functions (iadd, isub, imul, idiv) accept floats or numpy arrays and
are the single source of truth for both the scalar Interval class and the
inf-sup batch kernels. The midpoint-radius kernels below and the batch
evaluation of the map F (`dynamics._F_batch`) instead evaluate a whole
expression in round-to-nearest and return fl(c - r) and fl(c + r) for its
value c and an a-priori radius r. They take no outward step: r bounds the
rounding error of c and also covers the one rounding of c -+ r, because
fl(c - r) <= c - (1 - u) r + u |c| (see `_midrad_outward`).

The step is `np.nextafter` toward -inf (`_down`) or +inf (`_up`). Float64
arrays of at least `_BITSTEP_MIN` elements take it from the IEEE bit pattern
instead, which gives the same bits at a fraction of the cost per element:
read as an int64, the successor of a finite float is the pattern plus one if
the float is positive and minus one if it is negative (after mapping -0 to
+0), and +inf and NaN are their own successors; the predecessor is
-successor(-a). Smaller arrays and scalars keep `np.nextafter`, which costs
less per call. Either way every enclosure is bit for bit the same.

`_down` and `_up` take ownership of their argument: a float64 array of at
least `_BITSTEP_MIN` elements is rounded in place and returned, so every
caller passes a temporary it made itself. The kernels build their candidates,
min/max hulls, running sums, centers and radii in buffers of their own and
round or widen those; they never write into an argument, so callers may
pass read-only arrays.

Three batch kernels are in midpoint-radius form: `affine_batch` and
`imat_vec_batch`, which multiply a thin matrix (the point chart matrix, the
verified target inverse or the chart derivative, none more than a few ulps
wide) by a batch of interval vectors (cells, or the rows or columns of
the mean-value chain's Jacobians), and `_radius_image`, which bounds a wide
interval matrix times a centered radius [-rad, rad] by |T| rad;
`imat_vec_batch` also subtracts a point (the target center) from the cells
first. For a thin or centered factor a midpoint-radius product is as tight
as the inf-sup one up to rounding, and it takes one `np.matmul` for the
center and one or two for the radius instead of a min/max and a rounding
per product. The mean-value chain uses all three (see
`covering._centered_chain`). There is one inf-sup matrix product,
`imatmul_batch`, which multiplies two wide intervals and carries the
chain's steps after the first. `imat_mul` is it on a batch of one, and
`imat_vec` and `imatvec_cellwise` are it with a trailing axis of length 1,
so none of the three is a kernel of its own. It and the scalar operations
stay in inf-sup form, each operation stepped outward: there a
midpoint-radius product can be up to 1.5 times wider, and with the chain's
wide-by-wide product in that form H1⇒H2 (k = 4) took 938 boxes instead of
864. A cell coordinate that is not finite, or whose radius term overflows,
makes [-inf, +inf] only of the outputs it reaches through a nonzero matrix
entry (`_midrad_outward`).

Every batch kernel evaluates each row of its batch on its own, bit for bit
the same in a batch of any size (`_times_transpose` keeps a one-row product
on the path of larger ones). The refinement's thread and batch invariance,
and the mean-value chain's stacking of midpoints with cells, rest on this.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_NINF = float("-inf")
_PINF = float("inf")
_NAN = float("nan")


class DomainError(Exception):
    """Operand outside an operation's domain (e.g. division by an interval containing 0)."""


class SingularMatrixError(Exception):
    """Pivot interval contains 0: a verified inverse cannot be produced.

    This is a failure to verify invertibility, not a claim of singularity.
    """


class IndeterminateSignError(Exception):
    """The rigorous determinant enclosure contains 0, so no sign can be certified."""


# Arrays with at least this many elements are rounded by stepping their bit
# pattern: its cost per call is about ten times that of np.nextafter, its
# cost per element a fraction, and the two cross near this size. Below it,
# per-call costs also outweigh what reusing buffers saves.
_BITSTEP_MIN = 1024


def _large(a):
    """A float64 array of at least _BITSTEP_MIN elements: rounded by its bit
    pattern and in place, and its buffer reused. The dtype is compared by
    value, as an array unpickled in a worker process has a dtype object of
    its own."""
    return type(a) is np.ndarray and a.size >= _BITSTEP_MIN and a.dtype == np.float64


def _successor(a):
    """Replaces the float64 array a by np.nextafter(a, inf), stepping its bit
    pattern in place, and returns it."""
    a += 0.0  # maps -0 to +0, whose successor is the smallest subnormal
    i = a.view(np.int64)
    t = i >> 63
    t |= 1  # away from 0 if positive, towards it if negative
    t *= a < _PINF  # +inf and NaN are their own successors
    i += t
    return a


def _down(a):
    """np.nextafter(a, -inf). Takes ownership of a: a float64 array of at
    least _BITSTEP_MIN elements is overwritten with the result, so callers
    pass a temporary of their own and never an array they read again. A
    Python float takes math.nextafter, the same IEEE step at a fraction of
    the cost of a numpy call."""
    if type(a) is float:
        return math.nextafter(a, _NINF)
    if _large(a):
        np.negative(a, out=a)
        _successor(a)
        return np.negative(a, out=a)
    return np.nextafter(a, _NINF)


def _up(a):
    """np.nextafter(a, inf); takes ownership of a, as _down does."""
    if type(a) is float:
        return math.nextafter(a, _PINF)
    if _large(a):
        return _successor(a)
    return np.nextafter(a, _PINF)


def iadd(alo, ahi, blo, bhi):
    return _down(alo + blo), _up(ahi + bhi)


def isub(alo, ahi, blo, bhi):
    return _down(alo - bhi), _up(ahi - blo)


_UFUNCS = {operator.mul: np.multiply, operator.truediv: np.divide}


def _round_hull(op, alo, ahi, blo, bhi):
    """The min of the four candidates op(a, b) rounded down, and their max
    rounded up; op is operator.mul or operator.truediv.

    Rounding after min/max gives the same bits as widening every candidate
    before it: a step toward -inf (+inf) is monotone, so it commutes with min
    (max). This holds for signed zeros, whose steps are equal, and for inf
    and NaN, which np.minimum, np.maximum and the step all propagate; so the
    order in which the candidates are compared does not matter either. When
    the first and the last candidate are large float64 arrays of one shape,
    that is the shape of all four: the max is then built in the last one's
    buffer, the min in one new array, and the two middle candidates are
    computed in turn into the first one's buffer. Four Python floats take
    the builtin min and max, with NaN propagated as np.minimum and
    np.maximum propagate it: the same bits, as the step maps +0 and -0 to
    the same value.
    """
    if type(alo) is type(ahi) is type(blo) is type(bhi) is float:
        c1, c2, c3, c4 = op(alo, blo), op(alo, bhi), op(ahi, blo), op(ahi, bhi)
        if c1 != c1 or c2 != c2 or c3 != c3 or c4 != c4:
            return _NAN, _NAN
        return (math.nextafter(min(c1, c2, c3, c4), _NINF),
                math.nextafter(max(c1, c2, c3, c4), _PINF))
    c1 = op(alo, blo)
    c4 = op(ahi, bhi)
    if not (_large(c1) and _large(c4) and c1.shape == c4.shape):
        c2, c3 = op(alo, bhi), op(ahi, blo)
        return (_down(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))),
                _up(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))))
    lo = np.minimum(c1, c4)
    hi = np.maximum(c1, c4, out=c4)
    for x, y in ((alo, bhi), (ahi, blo)):
        c = _UFUNCS[op](x, y, out=c1)  # the middle candidates, in turn
        np.minimum(lo, c, out=lo)
        np.maximum(hi, c, out=hi)
    return _down(lo), _up(hi)


def imul(alo, ahi, blo, bhi):
    """[alo,ahi] * [blo,bhi]: the min and the max of the four candidate
    products, each rounded outward once (see _round_hull)."""
    return _round_hull(operator.mul, alo, ahi, blo, bhi)


def idiv(alo, ahi, blo, bhi):
    """Division; the divisor must exclude 0 (raises DomainError otherwise).
    Rounded once after min/max, as in imul."""
    if type(blo) is type(bhi) is float:
        if blo <= 0.0 <= bhi:
            raise DomainError("division by an interval containing 0")
        if not (blo and bhi):
            # an end of 0 only if the ends are unsorted; numpy divides by it
            blo, bhi = np.float64(blo), np.float64(bhi)
    elif np.any((np.asarray(blo) <= 0.0) & (np.asarray(bhi) >= 0.0)):
        raise DomainError("division by an interval containing 0")
    return _round_hull(operator.truediv, alo, ahi, blo, bhi)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with double endpoints; lo <= hi, never NaN.

    Zero-width intervals are first-class exact points. Empty intervals are not
    representable: emptiness of an intersection is a query, not a value.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError("NaN endpoint")
        if self.lo > self.hi:
            raise DomainError(f"inverted endpoints: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(float(x), float(x))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        if isinstance(other, (int, float)):
            return Interval.point(other)
        return NotImplemented

    def _is_point(self, value: float) -> bool:
        return self.lo == value and self.hi == value

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # adding an exact zero is exact; keeps identity-like data width-free
        if o._is_point(0.0):
            return self
        if self._is_point(0.0):
            return o
        lo, hi = iadd(self.lo, self.hi, o.lo, o.hi)
        return Interval(float(lo), float(hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o._is_point(0.0):
            return self
        if self._is_point(0.0):
            return -o
        lo, hi = isub(self.lo, self.hi, o.lo, o.hi)
        return Interval(float(lo), float(hi))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # exact cases: multiplication by a point 0, 1 or -1 never rounds
        for a, b in ((self, o), (o, self)):
            if a._is_point(0.0):
                return Interval(0.0, 0.0)
            if a._is_point(1.0):
                return b
            if a._is_point(-1.0):
                return -b
        lo, hi = imul(self.lo, self.hi, o.lo, o.hi)
        return Interval(float(lo), float(hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.lo <= 0.0 <= o.hi:
            raise DomainError("division by an interval containing 0")
        if self._is_point(0.0):
            return Interval(0.0, 0.0)
        if o._is_point(1.0):
            return self
        if o._is_point(-1.0):
            return -self
        lo, hi = idiv(self.lo, self.hi, o.lo, o.hi)
        return Interval(float(lo), float(hi))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        lo, hi = idiv(o.lo, o.hi, self.lo, self.hi)
        return Interval(float(lo), float(hi))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


class IBox:
    """Axis-aligned interval box in R^n, stored as lo/hi float arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("box bounds must be 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise DomainError("invalid box bounds")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *a):
        raise AttributeError("IBox is immutable")

    @staticmethod
    def point(x) -> "IBox":
        x = np.asarray(x, dtype=float)
        return IBox(x, x)

    @staticmethod
    def cube(center, radius: float) -> "IBox":
        c = np.asarray(center, dtype=float)
        return IBox(c - radius, c + radius)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def contains_box(self, other: "IBox") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m member points, shape (m, n); endpoints included via clipping."""
        u = rng.uniform(0.0, 1.0, size=(m, self.dim))
        pts = self.lo + u * (self.hi - self.lo)
        return np.clip(pts, self.lo, self.hi)

    def __eq__(self, other):
        if not isinstance(other, IBox):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which == does not tell apart
        return hash(((self.lo + 0.0).tobytes(), (self.hi + 0.0).tobytes()))

    def __repr__(self):
        parts = ", ".join(f"[{l!r},{h!r}]" for l, h in zip(self.lo, self.hi))
        return f"IBox({parts})"


class IMatrix:
    """Matrix of intervals, stored as lo/hi float arrays of shape (n, m)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).copy()
        hi = np.asarray(hi, dtype=float).copy()
        if lo.shape != hi.shape or lo.ndim != 2:
            raise DomainError("matrix bounds must be 2-d arrays of equal shape")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise DomainError("invalid matrix bounds")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *a):
        raise AttributeError("IMatrix is immutable")

    @staticmethod
    def from_point(m) -> "IMatrix":
        m = np.asarray(m, dtype=float)
        return IMatrix(m, m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    def entry(self, i: int, j: int) -> Interval:
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains_matrix(self, m) -> bool:
        m = np.asarray(m, dtype=float)
        return bool(np.all(self.lo <= m) and np.all(m <= self.hi))

    def __repr__(self):
        return f"IMatrix(shape={self.shape}, max_width={float(np.max(self.widths())):.3g})"


def imat_vec(M: IMatrix, v: IBox) -> IBox:
    """Enclosure of {Ax : A in M, x in v}: imatmul_batch on a batch of one,
    with v as a column."""
    if v.dim != M.shape[1]:
        raise DomainError("shape mismatch in imat_vec")
    lo, hi = imatmul_batch(M.lo[None], M.hi[None], v.lo[None, :, None], v.hi[None, :, None])
    return IBox(lo[0, :, 0], hi[0, :, 0])


def imat_mul(A: IMatrix, B: IMatrix) -> IMatrix:
    """Enclosure of the product of any member matrices: imatmul_batch on a
    batch of one."""
    if A.shape[1] != B.shape[0]:
        raise DomainError("shape mismatch in imat_mul")
    lo, hi = imatmul_batch(A.lo[None], A.hi[None], B.lo[None], B.hi[None])
    return IMatrix(lo[0], hi[0])


# --- vectorized kernels over cell batches (arrays of shape (B, n)) ---
#
# affine_batch and imat_vec_batch multiply a thin matrix (a point matrix, or
# a verified inverse whose entries are a few ulps wide) by a batch of cells,
# in midpoint-radius form (S. M. Rump, "Fast and parallel interval
# arithmetic", BIT 39 (1999)). With u = 2**-53 the unit roundoff, eta =
# 2**-1074 the smallest subnormal and gamma_k = k*u / (1 - k*u) (Higham,
# "Accuracy and Stability of Numerical Algorithms", 2002, section 3.1), a
# dot product of length k evaluated in floating point, in any order and
# with or without fused multiply-adds, is off by at most
# gamma_k * |a|.|b| + k*eta. An expression in nonnegative terms loses at
# most a factor 1 - u to each rounded operation, and a rounded product at
# most eta/2 more to underflow. A rounded sum or difference a of two floats
# is off by at most u*|a| (it is exact where it is subnormal), and so is
# its rounding fl(a) by at most u*|a|.
#
# Neither kernel steps outward. Its radius r covers, besides the distance R
# of every exact image from the computed center c, the rounding of c -+ r,
# as in the round-to-nearest interval products of Ozaki, Ogita, Rump and
# Oishi ("Fast algorithms for floating-point interval matrix
# multiplication", J. Comput. Appl. Math. 236 (2012)); _midrad_outward
# gives the condition, and each kernel's docstring shows that it holds.

_U = 2.0 ** -53
_ETA = 2.0 ** -1074
_MAX = float(np.finfo(np.float64).max)
_ONE_PLUS_4U = 1.0 + 4 * _U


def _mid_rad(lo, hi):
    """Midpoint (rounded to nearest) and radius (rounded up) of [lo, hi], so
    that [lo, hi] lies in [mid - rad, mid + rad]; a point has radius 0.

    Where lo + hi overflows the midpoint is 0.5*lo + 0.5*hi. The differences
    hi - mid and mid - lo are rounded to nearest: a subnormal difference is
    exact and a normal one is off by at most u times itself, so scaling the
    larger by 1 + 4u, with one more rounding, bounds both from above.
    """
    mid = lo + hi
    mid *= 0.5
    over = np.isinf(mid)
    if over.any():
        mid[over] = 0.5 * lo[over] + 0.5 * hi[over]
    rad = np.maximum(hi - mid, mid - lo)
    rad *= _ONE_PLUS_4U
    return mid, rad


def _midrad_constants(m):
    """(gamma, kappa, floor) for products with m columns; all three are
    exact floats. With g = gamma_(m+1) + u (1 + gamma_(m+1)):

        gamma * (1 - u)**4 >= g,   kappa * (1 - u)**(m + 7) >= 1,
        floor * (1 - u)**3 >= ((1 + u) m + kappa m + 1) * eta.

    gamma_(m+1) bounds the rounding error of either kernel's center (see
    affine_batch and imat_vec_batch), and u (1 + gamma_(m+1)) the rounding
    of c -+ r relative to the same magnitudes; kappa covers the roundings of
    the radius and the division by 1 - u in _midrad_outward, and floor every
    underflow term.
    """
    return (m + 2) * 2 * _U, 1.0 + (m + 8) * 2 * _U, (4 * m + 8) * _ETA


def _times_transpose(a, A):
    """a @ A.T for a batch of rows a (B, m), each row's bits the same in
    every batch. numpy hands a one-row product to BLAS gemv and a larger one
    to gemm, whose results can differ in the last bit, so one row is
    multiplied as two. Either is within the error bounds of the callers."""
    if a.shape[0] == 1:
        return (np.concatenate((a, a)) @ A.T)[:1]
    return a @ A.T


def _midrad_outward(Mc, x, mid, terms, kappa, extra):
    """[fl(c - r), fl(c + r)] for the center c = mid @ Mc.T + x and the
    radius r = (the sum of t @ A.T over the (t, A) in terms) * kappa + extra,
    both evaluated in round-to-nearest; |Mc| must be one of the A.

    No outward step follows. The rounded difference lo = fl(c - r) is off by
    at most u |c - r| <= u (|c| + r), so lo <= c - (1 - u) r + u |c|, and
    likewise fl(c + r) >= c + (1 - u) r - u |c|. So [lo, hi] contains every
    value within R of c once

        (1 - u) r >= R + u |c|,

    which the callers show of their r. Neither end can overflow towards the
    other side: c - r <= c <= MAX, and an end that overflows outward is
    -inf or +inf, which is still a bound.

    An entry whose center is not finite or whose radius is NaN comes out as
    [-inf, +inf]. A cell coordinate whose midpoint or radius operand t is not
    finite would make NaN of inf * 0 in every output of its cell; such a
    coordinate is left out of both sums instead, and only the outputs that
    it reaches through a nonzero entry of an A become [-inf, +inf]. That is
    sound: where every A is zero in its column, so is the matrix, whose
    product with any real member is exactly 0, and the other coordinates
    keep their bound.
    """
    def center_radius(mid, terms):
        c = _times_transpose(mid, Mc)
        c += x
        r = sum(_times_transpose(t, A) for t, A in terms)
        r *= kappa
        r += extra
        return c, r

    c, r = center_radius(mid, terms)
    bad = ~np.isfinite(c)
    bad |= np.isnan(r)
    if bad.any():
        lost = ~np.isfinite(mid)
        for t, _ in terms:
            lost |= ~np.isfinite(t)
        if lost.any():
            c, r = center_radius(np.where(lost, 0.0, mid),
                                 [(np.where(lost, 0.0, t), A) for t, A in terms])
            reach = np.any([A != 0 for _, A in terms], axis=0)
            r[lost @ reach.T] = _PINF
            bad = ~np.isfinite(c)
            bad |= np.isnan(r)
        c[bad] = 0.0
        r[bad] = _PINF
    lo = c - r
    c += r
    return lo, c


def affine_batch(M: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Enclosures of M @ v + x for each interval vector v in the batch, for a
    point matrix M (n, m) and a point vector x (n,), in midpoint-radius form.

    With (mid, rad) from _mid_rad, P = |mid| @ |M|.T and X = |x|, the center
    c = fl(mid @ M.T + x) is a dot product of length m + 1 (the last term
    x * 1 is exact), so it is off by at most gamma_(m+1) (P + X) + m*eta, and
    |c| <= (1 + gamma_(m+1)) (P + X) + m*eta. The exact image lies within
    rad @ |M|.T of the exact center, so within
    R = rad @ |M|.T + gamma_(m+1) (P + X) + m*eta of c, and with g as in
    _midrad_constants

        R + u |c| <= rad @ |M|.T + g (P + X) + (1 + u) m*eta.

    The radius

        r = (rad + gamma*|mid| + eta) @ |M|.T * kappa + (gamma*|x| + floor)

    is evaluated in round-to-nearest, and all its terms are nonnegative.
    The |mid| term passes m + 5 roundings (gamma*, + eta, + rad, m in the
    product, * kappa, + the last term), the rad term m + 3 and the |x| term
    3, so with the division by 1 - u of _midrad_outward the conditions
    kappa gamma (1 - u)**(m + 6) >= g, kappa (1 - u)**(m + 4) >= 1 and
    gamma (1 - u)**4 >= g suffice, and _midrad_constants meets all three.
    The + eta makes up for the underflow of gamma*|mid|; the product and
    * kappa lose at most (kappa m + 1) eta/2 and gamma*|x| eta/2 more, which
    floor covers together with (1 + u) m*eta. So (1 - u) r >= R + u |c|,
    and [fl(c - r), fl(c + r)] is an enclosure (_midrad_outward).
    """
    gamma, kappa, floor = _midrad_constants(M.shape[1])
    mid, rad = _mid_rad(lo, hi)
    t = np.abs(mid)
    t *= gamma
    t += _ETA
    t += rad
    return _midrad_outward(M, x, mid, [(t, np.abs(M))], kappa, gamma * np.abs(x) + floor)


def imat_vec_batch(Ml: np.ndarray, Mh: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   center=0.0):
    """Enclosures of A @ (v - center) over the members A of one fixed
    interval matrix [Ml, Mh] (n, m) and v of each interval vector of the
    batch, for a point vector center (m,), in midpoint-radius form.

    With the matrix as Mc +- Mr and each cell as mid +- rad (_mid_rad), the
    shifted midpoint d = fl(mid - center) is off by at most u |d|, so every
    v - center lies within rad + u |d| of d, and every member product within
    |Mc| @ (rad + u |d|) + Mr @ ((1 + u) |d| + rad) of Mc @ d. The center
    c = fl(d @ Mc.T) is off by at most gamma_m P + m*eta, for
    P = |d| @ |Mc|.T, and |c| <= (1 + gamma_m) P + m*eta. The sum R of the
    two distances bounds every exact image's distance from c, and as
    gamma_m + u <= gamma_(m+1), with g as in _midrad_constants

        R + u |c| <= rad @ |Mc|.T + g P + (1 + u) (|d| + rad) @ Mr.T
                     + (1 + u) m*eta.

    The radius

        r = ((rad + gamma*|d| + eta) @ |Mc|.T + (|d| + rad) @ Mr.T) * kappa
            + floor

    is evaluated in round-to-nearest, and all its terms are nonnegative.
    The |d| term of the first product passes m + 6 roundings (gamma*, + eta,
    + rad, m in the product, the sum of the two products, * kappa, + floor),
    its rad term m + 4, and the second product m + 4 (|d| + rad, m in the
    product, the sum, * kappa, + floor) with the factor 1 + u <= 1/(1 - u)
    on top. With the division by 1 - u of _midrad_outward, the conditions
    kappa gamma (1 - u)**(m + 7) >= g and kappa (1 - u)**(m + 6) >= 1
    suffice, and _midrad_constants meets both. The + eta makes up for the
    underflow of gamma*|d|; the two products and * kappa lose at most
    (2 kappa m + 1) eta/2, which floor covers together with
    (1 + u) m*eta. So (1 - u) r >= R + u |c|, and [fl(c - r), fl(c + r)] is
    an enclosure (_midrad_outward). A shifted midpoint that overflows is
    not finite, and _midrad_outward treats it as such.

    A matrix radius Mr that overflows is taken as MAX, the largest float.
    The radius of an entry with finite ends overflows only where Mh - Ml is
    within a few ulps of 2 MAX, so that its ends have opposite signs and
    magnitudes above MAX/2 (such as [-MAX, MAX]); then Ml + Mh and Mc are
    exact, and the radius (Mh - Ml)/2 is at most MAX. An infinite end makes
    Mc, and so the center, not finite. Without the cap a coordinate whose
    members all equal the center would make inf * 0 = NaN, and one of small
    magnitude an infinite radius, where the image is bounded.
    """
    return _imat_vec_midrad(*_split_matrix(Ml, Mh), lo, hi, center)


def _split_matrix(Ml, Mh):
    """A fixed interval matrix [Ml, Mh] as (Mc, Mr) for _imat_vec_midrad:
    _mid_rad's midpoint and radius, the radius capped at MAX (see
    imat_vec_batch). A caller that applies one matrix many times splits it
    once."""
    Mc, Mr = _mid_rad(Ml, Mh)
    np.minimum(Mr, _MAX, out=Mr)
    return Mc, Mr


def _imat_vec_midrad(Mc, Mr, lo, hi, center):
    """imat_vec_batch for a matrix already split by _split_matrix. The
    center may also be one point per cell, (B, m); a center of 0 leaves a
    midpoint exactly as it is."""
    gamma, kappa, floor = _midrad_constants(Mc.shape[1])
    d, rad = _mid_rad(lo, hi)
    d -= center
    a = np.abs(d)
    t = a * gamma
    t += _ETA
    t += rad
    a += rad
    return _midrad_outward(Mc, 0.0, d, [(t, np.abs(Mc)), (a, Mr)], kappa, floor)


def _radius_image_constants(m):
    """(kappa, floor) for _radius_image over m columns; both are exact
    floats, and

        kappa * (1 - u)**(m + 2) >= 1,   floor >= (kappa m + 1) * eta/2.
    """
    return 1.0 + (m + 2) * 2 * _U, (m + 1) * _ETA


def _radius_image(Tl, Th, rad):
    """A bound s >= |T| @ rad for each cell, where |T| = max(|Tl|, |Th|)
    and rad >= 0: for every member A of the interval matrix [Tl, Th]
    (B, n, m) and every y with |y| <= rad (B, m), A @ y lies in [-s, s].
    This is T times the centered radius [-rad, rad] in midpoint-radius
    form, which for a centered factor is the inf-sup product up to
    rounding.

    s is evaluated in round-to-nearest, with no outward step. The sum
    q = sum_j |T_ij| rad_j is a dot product of nonnegative terms, evaluated
    in any order and with or without fused multiply-adds. Each rounding in
    it loses at most a factor 1 - u of its exact nonnegative result, and a
    rounding that forms a product (alone or fused with an addition) at most
    eta/2 more to underflow; a subnormal sum of two floats is exact. Each
    product passes at most m roundings, and at most m roundings form a
    product, so q >= (1 - u)**m S - m eta/2 for the exact
    S = sum_j |T_ij| rad_j. Then s = fl(fl(q kappa) + floor) satisfies

        s >= (1 - u) ((1 - u) kappa q - eta/2 + floor)
          >= (1 - u)**(m + 2) kappa S
             + (1 - u) (floor - eta/2 - (1 - u) kappa m eta/2),

    which is at least S under the two conditions of
    _radius_image_constants. A q or s that overflows is +inf, still a
    bound.

    A coordinate with rad_j = 0 contributes exactly 0, also where |T_ij| is
    infinite or NaN: y_j is then 0, and so is A_ij y_j for every real A_ij.
    Against rad_j > 0, an infinite |T_ij| makes s_i infinite and a NaN one
    makes it NaN, in row i only.
    """
    kappa, floor = _radius_image_constants(rad.shape[-1])
    a = np.abs(Tl)
    np.maximum(a, np.abs(Th), out=a)
    s = np.einsum("bij,bj->bi", a, rad)
    if np.isnan(s).any():  # inf or NaN in |T| times rad_j = 0
        np.copyto(a, 0.0, where=rad[:, None, :] == 0.0)
        s = np.einsum("bij,bj->bi", a, rad)
    s *= kappa
    s += floor
    return s


def imatmul_batch(Al, Ah, Bl, Bh):
    """Batched interval matrix product (B, n, m) @ (B, m, k), in inf-sup
    form: the one inf-sup matrix product, which imat_vec, imat_mul and
    imatvec_cellwise call.

    Column j of A times row j of B is an imul of every pair, each product
    rounded outward once; the sum over j is accumulated in order, the first
    term as it is and each partial sum added and rounded outward in the
    accumulator. The accumulator is a buffer of its own (imul returns new
    arrays), so no argument is written into."""
    terms = (imul(Al[:, :, j, None], Ah[:, :, j, None], Bl[:, None, j, :], Bh[:, None, j, :])
             for j in range(Al.shape[2]))
    acc_lo, acc_hi = next(terms)
    for tlo, thi in terms:
        acc_lo += tlo
        acc_hi += thi
        acc_lo = _down(acc_lo)
        acc_hi = _up(acc_hi)
    return acc_lo, acc_hi


def imatvec_cellwise(Al, Ah, lo, hi):
    """Batched interval matrix (B, n, m) applied to per-cell vectors (B, m):
    imatmul_batch with each vector as a column."""
    plo, phi = imatmul_batch(Al, Ah, lo[:, :, None], hi[:, :, None])
    return plo[:, :, 0], phi[:, :, 0]


def _mignitude(lo: float, hi: float) -> float:
    # distance of the interval from 0; 0 if it contains 0
    if lo <= 0.0 <= hi:
        return 0.0
    return min(abs(lo), abs(hi))


def _gauss_eliminate(rows: list[list[Interval]], ncols: int):
    """In-place interval Gaussian elimination with mignitude partial pivoting.

    Returns (pivot_intervals, swap_parity). Raises SingularMatrixError when no
    candidate pivot excludes 0.
    """
    n = len(rows)
    parity = 1
    pivots = []
    for c in range(n):
        best, best_mig = c, _mignitude(rows[c][c].lo, rows[c][c].hi)
        for r in range(c + 1, n):
            mig = _mignitude(rows[r][c].lo, rows[r][c].hi)
            if mig > best_mig:
                best, best_mig = r, mig
        if best_mig == 0.0:
            raise SingularMatrixError(f"pivot interval in column {c} contains 0")
        if best != c:
            rows[c], rows[best] = rows[best], rows[c]
            parity = -parity
        piv = rows[c][c]
        pivots.append(piv)
        for r in range(c + 1, n):
            if rows[r][c].lo == 0.0 and rows[r][c].hi == 0.0:
                continue
            factor = rows[r][c] / piv
            rows[r][c] = Interval.point(0.0)
            for j in range(c + 1, ncols):
                rows[r][j] = rows[r][j] - factor * rows[c][j]
    return pivots, parity


def imat_inverse(M) -> IMatrix:
    """Verified enclosure of the inverse of a point matrix.

    Interval Gaussian elimination with partial pivoting on [M | I]; every
    pivot interval is certified to exclude 0, so the exact inverse is a
    member of the returned enclosure.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise DomainError("imat_inverse needs a square matrix")
    rows = [
        [Interval.point(M[i, j]) for j in range(n)]
        + [Interval.point(1.0 if i == j else 0.0) for j in range(n)]
        for i in range(n)
    ]
    _gauss_eliminate(rows, 2 * n)
    # back substitution
    for c in range(n - 1, -1, -1):
        piv = rows[c][c]
        for j in range(n, 2 * n):
            rows[c][j] = rows[c][j] / piv
        for r in range(c - 1, -1, -1):
            factor = rows[r][c]
            if factor.lo == 0.0 and factor.hi == 0.0:
                continue
            for j in range(n, 2 * n):
                rows[r][j] = rows[r][j] - factor * rows[c][j]
    lo = np.array([[rows[i][n + j].lo for j in range(n)] for i in range(n)])
    hi = np.array([[rows[i][n + j].hi for j in range(n)] for i in range(n)])
    return IMatrix(lo, hi)


def det_sign(M: IMatrix) -> int:
    """Sign of the determinant, certified via an interval LU factorization.

    Returns +1 or -1 only when every pivot interval excludes 0 (so the
    determinant enclosure excludes 0); raises IndeterminateSignError or
    SingularMatrixError otherwise.
    """
    n, m = M.shape
    if n != m:
        raise DomainError("det_sign needs a square matrix")
    rows = [[M.entry(i, j) for j in range(n)] for i in range(n)]
    try:
        pivots, parity = _gauss_eliminate(rows, n)
    except SingularMatrixError as e:
        raise IndeterminateSignError(str(e)) from e
    sign = parity
    for p in pivots:
        sign = sign if p.lo > 0.0 else -sign
    return sign
