"""Outward-rounded interval arithmetic on lo/hi arrays: boxes, matrices and
batches of cells.

There is one interval representation: a box, a matrix or a batch of either
is a pair of float arrays (lo, hi), and a point is a box of zero width.
`IMatrix` wraps such a pair only at the API edges, as the type of an
h-set's verified inverse and of a relation's chart derivative.

Every operation returns an enclosure of the exact real-arithmetic result set.
Outward rounding is realized by next-representable widening: a result computed
in round-to-nearest differs from the exact value by at most half an ulp, so
stepping each endpoint one float outward always yields a rigorous bound. The
kernel functions (iadd, isub, imul) take numpy arrays, or floats, which
np.nextafter steps to the same bits, and are the single source of truth for
the inf-sup batch kernels. The midpoint-radius kernels below and the two
kernels of a quadratic map (`dynamics._quadratic_eval` and
`dynamics._quadratic_jac`) instead evaluate a whole expression in
round-to-nearest and return fl(c - r) and fl(c + r) for its value c and an
a-priori radius r. They take no outward step: r bounds the rounding error
of c and also covers the one rounding of c -+ r, because
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
`covering._CellEngine.chain`). There is one inf-sup matrix product,
`imatmul_batch`, which multiplies two wide intervals and carries the
chain's steps after the first; `imatvec_cellwise` is it with a trailing
axis of length 1, not a kernel of its own. It stays in inf-sup form, each
operation stepped outward: there a midpoint-radius product can be up to 1.5
times wider, and with the chain's wide-by-wide product in that form H1⇒H2
(k = 4) took 938 boxes instead of 864. A cell coordinate that is not
finite, or whose radius term overflows, makes [-inf, +inf] only of the
outputs it reaches through a nonzero matrix entry (`_midrad_outward`).

Every batch kernel evaluates each row of its batch on its own, bit for bit
the same in a batch of any size (`_times_transpose` keeps a one-row product
on the path of larger ones). The refinement's thread and batch invariance,
and the mean-value chain's stacking of midpoints with cells, rest on this.

The verified inverse of a point matrix (`imat_inverse`, one per h-set) and
the certified determinant sign of an interval matrix (`det_sign`, the
degree of a relation) rest on one regularity proof, Rump's residual test
(`_regular`; S. M. Rump, "Verification methods: rigorous results using
floating-point arithmetic", Acta Numerica 19 (2010)): with X = fl(inv(mid)),
every member A is regular once ||I - X A||_inf < 1. Each float is an
integer times a power of two, so the residual is evaluated exactly in
Python ints, and the test needs no rounding analysis of its own.
"""

from __future__ import annotations

import numpy as np

_NINF = float("-inf")
_PINF = float("inf")


class DomainError(Exception):
    """Operand outside an operation's domain (e.g. matrices of mismatched shapes)."""


class SingularMatrixError(Exception):
    """The residual test failed: a verified inverse cannot be produced.

    This is a failure to verify invertibility, not a claim of singularity.
    """


class IndeterminateSignError(Exception):
    """The residual test failed, so no determinant sign can be certified."""


# Arrays with at least this many elements are rounded by stepping their bit
# pattern: its cost per call is about ten times that of np.nextafter, its
# cost per element a fraction, and the two cross near this size.
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
    pass a temporary of their own and never an array they read again."""
    if _large(a):
        np.negative(a, out=a)
        _successor(a)
        return np.negative(a, out=a)
    return np.nextafter(a, _NINF)


def _up(a):
    """np.nextafter(a, inf); takes ownership of a, as _down does."""
    if _large(a):
        return _successor(a)
    return np.nextafter(a, _PINF)


def iadd(alo, ahi, blo, bhi):
    return _down(alo + blo), _up(ahi + bhi)


def isub(alo, ahi, blo, bhi):
    return _down(alo - bhi), _up(ahi - blo)


def imul(alo, ahi, blo, bhi):
    """[alo,ahi] * [blo,bhi]: the min of the four candidate products rounded
    down, and their max rounded up.

    Rounding after min/max gives the same bits as widening every candidate
    before it: a step toward -inf (+inf) is monotone, so it commutes with min
    (max). This holds for signed zeros, whose steps are equal, and for inf
    and NaN, which np.minimum, np.maximum and the step all propagate; so the
    order in which the candidates are compared does not matter either.
    """
    c1, c2, c3, c4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return (_down(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))),
            _up(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))))


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

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def __repr__(self):
        return f"IMatrix(shape={self.shape}, max_width={float(np.max(self.widths())):.3g})"


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
    batch, for a point vector center (m,), or one per cell (B, m), in
    midpoint-radius form.

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
    """imat_vec_batch for a matrix already split by _split_matrix; a center
    of 0 leaves a midpoint exactly as it is."""
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
    form: the one inf-sup matrix product, which imatvec_cellwise calls.

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


# --- regularity: the verified inverse and the certified determinant sign ---

def _exact(*arrays):
    """Object arrays k_i of Python ints and one exponent p <= 0 with
    a_i == k_i * 2**p exactly, for finite float arrays a_i of one shape.
    np.frexp splits a float into a mantissa of at most 53 bits, which 2**53
    scales to an integer, and a power of two."""
    m, e = np.frexp(np.stack(arrays))
    e -= 53
    p = int(e.min(initial=0))
    k = (m * 2.0 ** 53).astype(np.int64).astype(object) << (e - p).astype(object)
    return *k, p


def _regular(Al, Ah):
    """Proves every member of the interval matrix [Al, Ah] (n, n) regular,
    or raises SingularMatrixError.

    This is Rump's residual test (S. M. Rump, "Verification methods:
    rigorous results using floating-point arithmetic", Acta Numerica 19
    (2010)). X = fl(inv(mid)) approximates the midpoint's inverse. For a
    member A, I - X A = R0 - X (A - Al) with R0 = I - X Al and
    0 <= A - Al <= Ah - Al, so ||I - X A||_inf <= rho, the largest row sum
    of |R0| + |X| (Ah - Al). If rho < 1, X A is regular, and so is A. Every
    float is an integer times a power of two, so R0 and rho are computed
    exactly, in Python ints.

    Returns (X, x, p, r, d, rho): X == x * 2**p, R0 == r / d and
    rho / d, with x and r object arrays of ints. A matrix that is not
    finite, a midpoint that numpy cannot invert and an X that is not finite
    fail, as does rho >= 1.
    """
    n = Al.shape[0]
    if not (np.isfinite(Al).all() and np.isfinite(Ah).all()):
        raise SingularMatrixError("the matrix is not finite")
    try:
        X = np.linalg.inv(0.5 * Al + 0.5 * Ah)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError(f"the midpoint has no float inverse: {e}") from e
    if not np.isfinite(X).all():
        raise SingularMatrixError("the approximate inverse is not finite")
    x, lo, hi, p = _exact(X, Al, Ah)
    d = 1 << -2 * p  # X Al, and so R0 and rho, in units of 1/d
    r = -(x @ lo)
    r[np.diag_indices(n)] += d
    rho = np.max((np.abs(r) + np.abs(x) @ (hi - lo)).sum(axis=1), initial=0)
    if rho >= d:
        raise SingularMatrixError("the residual bound ||I - X A||_inf is not below 1")
    return X, x, p, r, d, rho


def imat_inverse(M) -> IMatrix:
    """Verified enclosure of the inverse of a point matrix M; raises
    SingularMatrixError where the residual test of _regular fails.

    With R0 = I - X M and ||R0||_inf <= rho < 1, the Neumann series of
    M^-1 = (I - R0)^-1 X gives M^-1 = X + R0 X + R0^2 (I - R0)^-1 X, whose
    last term is at most rho^2 ||X||_inf / (1 - rho) in every entry. Both
    ends of X + R0 X -+ that bound are exact ratios of ints, which Python
    divides correctly rounded; each is then stepped one float outward.
    Where R0 = 0, X M = I exactly and X is returned as it is, so the
    inverses of the identity, of a diagonal of powers of two and of a
    signed permutation are exact.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise DomainError("imat_inverse needs a square matrix")
    X, x, p, r, d, rho = _regular(M, M)
    if rho == 0:
        return IMatrix(X, X)
    g = d - rho
    # exactly: c / den = X + R0 X, and e / den is the bound on the last term
    c = (d * x + r @ x) * g
    e = rho * rho * np.max(np.abs(x).sum(axis=1))
    den = (d << -p) * g
    try:
        lo, hi = ((c - e) / den).astype(float), ((c + e) / den).astype(float)
    except OverflowError as err:
        raise SingularMatrixError("the inverse enclosure overflows") from err
    return IMatrix(_down(lo), _up(hi))


def det_sign(M: IMatrix) -> int:
    """The determinant sign of every member of the square interval matrix
    M; raises IndeterminateSignError where the residual test of _regular
    fails.

    With X from _regular, every member A has ||I - X A||_inf < 1, so the
    segment from I to X A, I - t (I - X A) for t in [0, 1], holds only
    regular matrices, and det(X A) > 0 as det(I) = 1. So det A has the sign
    of det X, which Bareiss elimination gives exactly.
    """
    n, m = M.shape
    if n != m:
        raise DomainError("det_sign needs a square matrix")
    try:
        x = _regular(M.lo, M.hi)[1]
    except SingularMatrixError as e:
        raise IndeterminateSignError(str(e)) from e
    return _bareiss_sign(x.tolist())


def _bareiss_sign(a):
    """The sign of the determinant of a regular integer matrix (a list of
    rows, overwritten), by fraction-free Bareiss elimination with row swaps:
    each division is exact, and the last pivot is the determinant of the
    matrix with its rows swapped."""
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign if prev > 0 else -sign
