"""Interval arithmetic on lo/hi arrays, rounded once: boxes, matrices and
batches of cells.

There is one interval representation: a box, a matrix or a batch of either
is a pair of float arrays (lo, hi), and a point is a box of zero width.
`IMatrix` wraps such a pair only at the API edges, as the type of an
h-set's verified inverse and of a relation's chart derivative.

Every operation returns an enclosure of the exact real-arithmetic result
set, under one rounding rule: each bound is computed in round-to-nearest
and widened once by an a-priori radius r = gamma e + floor, for a
magnitude bound e computed alongside it, also in round-to-nearest. The
radius covers the bound's rounding errors and the one rounding of the
widening itself, as in the round-to-nearest interval products of Ozaki,
Ogita, Rump and Oishi ("Fast algorithms for floating-point interval matrix
multiplication", J. Comput. Appl. Math. 236 (2012)). One function gives
every constant (`_constants`), one rule the values that are not finite (an
entry whose e passes `_BIG` or is NaN is [-inf, +inf]), and each kernel's
docstring shows that its constants suffice. Three kernels follow the rule.

The one kernel (`_prepare`, `_enclose`) carries every product of a point or
thin coefficient matrix with cell bounds: the cells' bounds are the rows of
X = [1; l_1; h_1; ...], and one matrix product gives both bounds of every
output. The widening can write the bounds straight into the rows of the
next step's X (`_enclose`'s `out`): a plain chart chain runs its steps on
the rows (`_linear_rows`, `dynamics._quadratic_rows`) in buffers its caller
keeps, and the (B, n) entry points are the same kernels after `_to_rows`.
Its callers are a quadratic map's value and Jacobian
(`dynamics._quadratic_eval`, `dynamics._quadratic_jac`) and the linear
steps of a chart map (`_linear_eval`): v -> M_N v + x_N, the rows of G_1
under M_N^T, v -> inv(M_M) (v - x_M) and the exit check's linear map.
`affine_batch` and `imat_vec_batch` are its public entry points for one
point or thin interval matrix, and one product keeps a one-column batch on
the path of larger ones (`_columns`).

The wide product (`imatmul_batch`) multiplies two wide interval matrices
and carries the mean-value chain's steps after the first;
`imatvec_cellwise` is it with a trailing axis of length 1. It is inf-sup:
a midpoint-radius product can be up to 1.5 times wider, and with the
chain's wide-by-wide product in that form H1=>H2 (k = 4) took 938 boxes
instead of 864. The centered image (`_centered_image`) is the mean-value
form's last step, p + T [-rad, rad].

The kernels never write into a cell argument, so callers may pass
read-only arrays; the row forms take their operand X and their
destinations from the caller and write into them. Every batch kernel
evaluates each row of its batch on its own, bit for bit the same in a
batch of any size. The refinement's thread and batch invariance, and the
mean-value chain's stacking of midpoints with cells, rest on this.

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

from collections import namedtuple

import numpy as np


class DomainError(Exception):
    """Bad input: an operand outside an operation's domain (e.g. matrices
    of mismatched shapes), malformed data, an unknown name or a setting out
    of range. It is the package's one input-error type, and the command
    line reports it with exit code 3."""


class SingularMatrixError(Exception):
    """The residual test failed: a verified inverse cannot be produced.

    This is a failure to verify invertibility, not a claim of singularity.
    """


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


# --- the one kernel: a matrix product over cell endpoints, rounded once ---
#
# Every product of a point or thin coefficient matrix with cell bounds runs
# on one kernel: a quadratic map's value and Jacobian
# (`dynamics._quadratic_eval`, `dynamics._quadratic_jac`) and the linear
# steps (`_linear_eval`: the two charts, the rows of G_1 under M_N^T and
# the exit check's linear map). The cells are copied to the rows of
# X = [1; l_1; h_1; ...; l_n; h_n] (_to_rows), each lower bound's row next
# to its upper bound's, and one product with the positive and negative
# parts of the coefficients interleaved likewise (_split) gives both bounds
# of every output. With u = 2**-53 the unit roundoff, eta = 2**-1074 the
# smallest subnormal and gamma_k = k*u / (1 - k*u) (Higham, "Accuracy and
# Stability of Numerical Algorithms", 2002, section 3.1), a dot product of
# length k evaluated in floating point, in any order and with or without
# fused multiply-adds, is off by at most gamma_k * |a|.|b| + k*eta. An
# expression in nonnegative terms loses at most a factor 1 - u to each
# rounded operation, and a rounded product at most eta/2 more to underflow.
# A rounded sum or difference a of two floats is off by at most u*|a| (it
# is exact where it is subnormal).
#
# No bound steps outward. Each is widened once by an a-priori radius r,
# in round-to-nearest, which covers the product's rounding error and also
# the one rounding of the widening, as in the round-to-nearest interval
# products of Ozaki, Ogita, Rump and Oishi ("Fast algorithms for
# floating-point interval matrix multiplication", J. Comput. Appl. Math.
# 236 (2012)): fl(L - r) is off by at most u |L - r| <= u (|L| + r), so
# fl(L - r) <= L - (1 - u) r + u |L|, and [fl(L - r), fl(U + r)] contains
# [L - R, U + R] once (1 - u) r >= R + u |L| and (1 - u) r >= R + u |U|.
# r is computed from magnitude bounds e, one more product over
# W = [Z; 1; ...] with Z = max(|l|, |h|) (_enclose); `_constants` gives
# its constants, and each kernel's docstring shows that they suffice.

_U = 2.0 ** -53
_ETA = 2.0 ** -1074
_MAX = float(np.finfo(np.float64).max)
_ONE_PLUS_4U = 1.0 + 4 * _U
_BIG = 0.75 * _MAX  # an entry whose magnitude bound passes this is [-inf, +inf]


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


def _split(M):
    """The coefficients of the lower and the upper bound of M z over the
    rows l_1, h_1, ..., l_k, h_k of the bounds of z: M's positive and
    negative parts interleaved column by column, as (M+, M-) and (M-, M+)."""
    P, N = np.maximum(M, 0.0), np.minimum(M, 0.0)
    lower, upper = np.empty((2, M.shape[0], 2 * M.shape[1]))
    lower[:, ::2] = upper[:, 1::2] = P
    lower[:, 1::2] = upper[:, ::2] = N
    return lower, upper


def _columns(M, X, out=None):
    """M @ X for the columns of X (k, B), each column's bits the same in
    every batch: numpy hands a one-column product to BLAS gemv, whose
    result can differ in the last bit from gemm's, so one column is
    multiplied as two. Into `out` (len(M), B), if given."""
    if X.shape[1] == 1:
        Y = (M @ np.concatenate((X, X), axis=1))[:, :1]
        if out is None:
            return Y
        out[...] = Y
        return out
    return M @ X if out is None else np.matmul(M, X, out=out)


def _constants(n, m):
    """(gamma, floor, kappa, gamma_J, floor_J) of the kernels over n cell
    coordinates with m squares; all five are exact floats. With
    p = 2n + 1, q = 2n + 2m + 1 and q_J = 2m + 1:

    for m > 0, with G and G_J as in dynamics._quadratic_eval and
    dynamics._quadratic_jac,

        gamma (1 - u)**(3n + m + 9) >= G,
        (1 - u)**2 (floor - eta/2) - gamma (n + m) eta/2 >= (1 + u) q eta,
        gamma_J (1 - u)**(n + m + 7) >= G_J,
        (1 - u)**2 (floor_J - eta/2) - gamma_J m eta/2 >= (1 + u) q_J eta;

    for m = 0, a linear step with a center and a matrix radius
    (_linear_eval; a linear map's value kernel is its case without either),

        gamma (1 - u)**(n + 5) >= gamma_q + u (1 + gamma_q) + u,
        kappa (1 - u)**(n + 4) >= 1 + u,
        (1 - u)**3 (floor - eta/2) - (gamma + kappa) n eta/2 - eta/2
            >= (1 + u) q eta,

    and the Jacobian's one product is A times 1, which is exact, so
    gamma_J = floor_J = 0 and the Jacobian is A. kappa scales only a
    matrix radius, which only linear steps have.

    The two wide kernels over n inner coordinates take the constants for
    m = 0 as well: the wide product (imatmul_batch) gamma and floor, with
    G' = gamma_(n-1) + u (1 + gamma_(n-1)),

        gamma (1 - u)**(n + 3) >= (1 + u) G' + u,
        (1 - u)**2 (floor - eta/2) - gamma n eta/2 >= (1 + G') n eta/2,

    and the centered image (_centered_image) all three, with

        gamma (1 - u)**4 >= u,   kappa (1 - u)**(n + 3) >= 1,
        (1 - u)**3 (floor - eta/2) - kappa n eta/2 - eta/2 >= 0.
    """
    p, q, qj = 2 * n + 1, 2 * n + 2 * m + 1, 2 * m + 1
    floor, kappa = 2 * (q + 1) * _ETA, 1.0 + 2 * (n + 3) * _U
    if not m:
        return (q + 3) * _U, floor, kappa, 0.0, 0.0
    return (q + 2 * p + 3) * _U, floor, kappa, (qj + p + 3) * _U, 2 * (qj + 1) * _ETA


def _to_rows(lo, hi, rows, out=None):
    """X (rows, B) with the cells [lo, hi] (B, n) in its rows 1..2n as
    l_1; h_1; ...; l_n; h_n; into `out` if given. The other rows are left
    as they are: _prepare sets row 0, a quadratic map its squares."""
    n = lo.shape[1]
    X = np.empty((rows, len(lo))) if out is None else out
    X[1:2 * n + 1:2], X[2:2 * n + 1:2] = lo.T, hi.T
    return X


def _prepare(X, n, wrows, center=None, out=None):
    """The operands of a kernel whose cells' bounds are the rows 1..2n of X
    (rows, B), from _to_rows or from the step before (_enclose's `out`):
    X's row 0 is set to 1 and its bounds are shifted by a point center
    (n,) or one per cell (B, n), if one is given, rounded to nearest.
    Returns W (wrows, B), into `out` if given, with its first n + 1 rows
    [Z; 1], Z = max(|l|, |h|) of the shifted bounds."""
    X[0] = 1.0
    V = X[1:2 * n + 1].view()
    V.shape = (n, 2, X.shape[1])  # V[i] = [l_i; h_i]; setting a shape never copies
    if center is not None:
        V -= np.transpose(np.atleast_2d(center))[:, None]
    W = np.empty((wrows, X.shape[1])) if out is None else out
    np.abs(V[:, 0], out=W[:n])
    np.maximum(W[:n], np.abs(V[:, 1]), out=W[:n])
    W[n] = 1.0
    return W


def _enclose(M, X, Me, W, gamma, floor, kappa=0.0, out=None):
    """The bounds M @ X = [lower; upper] (2k, B), widened by
    r = fl(fl(gamma e) + floor) for the magnitude bounds e = Me @ W, as
    (B, k) lo and hi. Me has k rows, or 2k for a thin interval matrix,
    whose last k give its radius term t and r = fl(r + fl(kappa t))
    (_linear_eval). The bounds are views of the product, or of `out`
    (2k, B), if given, which takes them as the rows l_1; h_1; ...; l_k;
    h_k, interleaved like X's: `out` can be the rows 1..2k of the next
    step's X. Each row of the product is the same dot products either way.

    This is the one rule for values that are not finite. An entry whose e
    or t is above _BIG or NaN is [-inf, +inf]. An operand (an entry of X or
    W) that is not finite would make NaN of inf * 0 in every entry of its
    cell, so such operands are left out of both products instead, and only
    the entries that one reaches through a nonzero coefficient become
    [-inf, +inf]: the others do not depend on it."""
    k, e = len(M) // 2, _columns(Me, W)
    if out is None:
        Y = _columns(M, X)
        L, U = Y[:k], Y[k:]
    else:
        L, U = _columns(M[:k], X, out[0::2]), _columns(M[k:], X, out[1::2])
    if e.size and not e.max() <= _BIG:  # or NaN
        lost = [~np.isfinite(a) for a in (X, W)]
        Z, e = np.where(lost[0], 0.0, X), _columns(Me, np.where(lost[1], 0.0, W))
        _columns(M[:k], Z, L)
        _columns(M[k:], Z, U)
        bad = np.concatenate((~(e <= _BIG) | _columns(Me != 0, lost[1]), _columns(M != 0, lost[0])))
        bad = bad.reshape(-1, k, bad.shape[1]).any(axis=0)
        L[bad], U[bad] = -np.inf, np.inf
        e[~(e <= _BIG)] = 0.0
    r = e[:k]
    r *= gamma
    r += floor
    if len(e) > k:
        t = e[k:]
        t *= kappa
        r += t
    L -= r
    U += r
    return L.T, U.T


# The kernel matrices of a linear step v -> A (v - center) + c: value
# (2k, 2n + 1) the lower, then the upper bounds from X's first rows;
# magnitude (k, n + 1), or (2k, n + 1) with the matrix radius, e and t from
# W = [Z; 1]; constants (gamma, floor, kappa) of _constants(n, 0).
_Linear = namedtuple("_Linear", "value magnitude constants")


def _linear(A, c=0.0, Ah=None):
    """The kernel of v -> A v + c for a point matrix A (k, n) and a point
    c (k,) or 0, or of v -> A' v + c for the members A' of the thin interval
    matrix [A, Ah]. An interval matrix is taken as A' = Ac +- Ar, with
    _mid_rad's midpoint and radius, and a radius that overflows is taken
    as MAX: for finite ends it overflows only where Ah - A is within a few
    ulps of 2 MAX, so that the ends have opposite signs and magnitudes
    above MAX/2 (such as [-MAX, MAX]); then A + Ah and Ac are exact and the
    radius (Ah - A)/2 is at most MAX. An infinite end makes Ac, and so the
    outputs of its row, not finite."""
    k, n = A.shape
    value, Me = np.empty((2 * k, 2 * n + 1)), np.zeros((k if Ah is None else 2 * k, n + 1))
    if Ah is not None:
        A, Me[k:, :n] = _mid_rad(A, Ah)
        np.minimum(Me[k:, :n], _MAX, out=Me[k:, :n])
    value[:k, 0] = value[k:, 0] = c
    value[:k, 1:], value[k:, 1:] = _split(A)
    np.abs(A, out=Me[:k, :n])
    Me[:k, n] = np.abs(c)
    return _Linear(value, Me, _constants(n, 0)[:3])


def _linear_eval(kern, lo, hi, center=None):
    """Enclosures of A (v - center) + c over the members A of the kernel's
    matrix (see _linear) and v of each cell [lo, hi] (B, n), as (B, k) lo
    and hi, for a center (n,) or one per cell (B, n), or none. This is the
    case m = 0 of dynamics._quadratic_eval, with the two terms a chart
    needs on top: the center and the matrix radius Ar (0 for a point
    matrix).

    Shift. X holds d = fl(l - center) and fl(h - center), each off from the
    exact difference by at most u |d|, so with Z = max(|d_lo|, |d_hi|)
    every exact y = v - center of the cell lies in
    [d_lo - u |d_lo|, d_hi + u |d_hi|], and |y| <= (1 + u) Z.

    Bounds. For a member A = Ac + D, |D| <= Ar, A y >= Ac y - Ar |y|, so

        A y + c >= c + Ac+ d_lo + Ac- d_hi - u |Ac| Z - (1 + u) Ar Z
                 = L - u |Ac| Z - (1 + u) Ar Z,

    and the upper bound is the mirror image. One product of the `value`
    matrix with X gives L~, off from L by at most gamma_q E + q eta for
    q = 2n + 1 and E = |c| + |Ac| Z, and |L~| <= (1 + gamma_q) E + q eta.
    So every exact value is within R of L~, with

        R + u |L~| <= (gamma_q + u (1 + gamma_q) + u) E + (1 + u) q eta
                      + (1 + u) Ar Z.

    Radius. The magnitude product gives e = fl(|Ac| Z + |c|) >=
    (1 - u)**(n + 1) E - n eta/2 and t = fl(Ar Z) >=
    (1 - u)**(n + 1) Ar Z - n eta/2, all terms nonnegative, and
    r = fl(fl(fl(gamma e) + floor) + fl(kappa t)) then has

        (1 - u) r >= (1 - u)**(n + 5) gamma E + (1 - u)**(n + 4) kappa Ar Z
                     + (1 - u)**3 (floor - eta/2) - (gamma + kappa) n eta/2
                     - eta/2,

    at least R + u |L~| under the three conditions of _constants for m = 0.
    So [fl(L~ - r), fl(U~ + r)] is an enclosure. A point matrix has no t,
    and r one rounding less, which only helps.

    Non-finite values (_enclose). Below _BIG nothing overflowed: each term
    of L~ and U~ is at most the matching term of e, so every intermediate
    is at most (1 + gamma_q) e / (1 - u)**(n + 1) < MAX. A cell coordinate
    that is not finite, or whose shifted bound overflowed, makes [-inf,
    +inf] only of the outputs it reaches through a nonzero entry of Ac or
    Ar.
    """
    n = lo.shape[1]
    return _linear_rows(kern, _to_rows(lo, hi, 2 * n + 1), center)


def _linear_rows(kern, X, center=None, W=None, out=None):
    """_linear_eval on cells in the rows 1..2n of X; W (n + 1, B) and
    out (2k, B) are the destinations of the operand W and of the bounds
    (_enclose), if given."""
    n = kern.magnitude.shape[1] - 1
    X = X[:2 * n + 1]
    W = _prepare(X, n, n + 1, center, W)
    return _enclose(kern.value, X, kern.magnitude, W, *kern.constants, out)


def affine_batch(M: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Enclosures of M @ v + x for each interval vector v in the batch
    (B, m), for a point matrix M (n, m) and a point vector x (n,):
    _linear_eval of the kernel _linear(M, x)."""
    return _linear_eval(_linear(M, x), lo, hi)


def imat_vec_batch(Ml: np.ndarray, Mh: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   center=0.0):
    """Enclosures of A @ (v - center) over the members A of one fixed
    interval matrix [Ml, Mh] (n, m) and v of each interval vector of the
    batch (B, m), for a point vector center (m,), or one per cell (B, m):
    _linear_eval of the kernel _linear(Ml, 0, Mh)."""
    return _linear_eval(_linear(Ml, 0.0, Mh), lo, hi, center)


def _centered_image(plo, phi, Tl, Th, rad):
    """Enclosures (B, n) lo and hi of p + A y over the members p of
    [plo, phi] (B, n), A of the interval matrix [Tl, Th] (B, n, m) and y of
    the centered radius [-rad, rad] (B, m), rad >= 0: the mean-value form's
    last step.

    Bound. With |T| = max(|Tl|, |Th|) and S = sum_j |T_ij| rad_j, A y lies
    in [-S, S], so p + A y lies in [plo - S, phi + S]; for a centered
    factor this is the inf-sup product. Both ends are widened once, by
    r = fl(fl(fl(gamma P) + floor) + fl(kappa s)) for P = max(|plo|, |phi|)
    and s = fl(|T| rad): _linear_eval's radius with e = P and t = s. As
    there, fl(plo - r) <= plo - (1 - u) r + u |plo|, so
    [fl(plo - r), fl(phi + r)] contains [plo - S, phi + S] once
    (1 - u) r >= S + u P: one widening covers both S and the rounding of
    the sum.

    Radius. s is a dot product of m nonnegative terms, in any order and
    with or without fused multiply-adds: each product passes at most m
    roundings, each losing at most a factor 1 - u, and at most m roundings
    form a product, each losing at most eta/2 more to underflow, so
    s >= (1 - u)**m S - m eta/2. Then

        (1 - u) r >= (1 - u)**4 gamma P + (1 - u)**(m + 3) kappa S
                     + (1 - u)**3 (floor - eta/2) - kappa m eta/2 - eta/2,

    at least S + u P under the conditions of _constants for a centered
    image.

    Non-finite values. A coordinate with rad_j = 0 contributes exactly 0,
    also where |T_ij| is infinite or NaN: y_j is then 0, and so is A_ij y_j
    for every real A_ij. An entry whose r is above _BIG or NaN is
    [-inf, +inf], _enclose's rule; below it each widened end is finite or
    overflows on its own side.
    """
    gamma, floor, kappa = _constants(rad.shape[-1], 0)[:3]
    a = np.abs(Tl)
    np.maximum(a, np.abs(Th), out=a)
    s = np.einsum("bij,bj->bi", a, rad)
    if np.isnan(s).any():  # inf or NaN in |T| times rad_j = 0
        np.copyto(a, 0.0, where=rad[:, None, :] == 0.0)
        s = np.einsum("bij,bj->bi", a, rad)
    s *= kappa
    r = np.maximum(np.abs(plo), np.abs(phi))
    r *= gamma
    r += floor
    r += s
    lo, hi = plo - r, phi + r
    bad = ~(r <= _BIG)
    lo[bad], hi[bad] = -np.inf, np.inf
    return lo, hi


def imatmul_batch(Al, Ah, Bl, Bh):
    """Batched interval matrix product [Al, Ah] @ [Bl, Bh], (B, n, m) @
    (B, m, k), as (B, n, k) lo and hi, in inf-sup form: the one product of
    two wide interval matrices, which imatvec_cellwise calls.

    Bounds. Per pair (i, j, l) the four candidate products of the ends of
    A_ij and B_jl, their min c_lo and their max c_hi, and the sums
    L = sum_j c_lo and U = sum_j c_hi, accumulated in order of j, all in
    round-to-nearest. The sums and the candidates are buffers of the
    kernel's own.

    Error bound. With u, eta and gamma_k as in the notes on the one kernel:
    the exact product of two intervals is the min and the max of its four
    exact candidates, and a rounded candidate is off by at most u M_j +
    eta/2, for M_j the largest exact candidate magnitude; so are c_lo and
    c_hi, which are at most (1 + u) M_j + eta/2 in magnitude. A sum of m
    terms is off by at most gamma_(m-1) times the sum of their magnitudes
    (a subnormal sum is exact), so with S = sum_j M_j and
    G' = gamma_(m-1) + u (1 + gamma_(m-1)) the computed L is within R of
    the exact lower bound, where

        R + u |L| <= ((1 + u) G' + u) S + (1 + G') m eta/2.

    Radius. e = fl(sum_j max(|c_lo|, |c_hi|)) sums m nonnegative floats,
    each at least (1 - u) M_j - eta/2, so e >= (1 - u)**m S - m eta/2, and
    r = fl(fl(gamma e) + floor) has

        (1 - u) r >= (1 - u)**(m + 3) gamma S + (1 - u)**2 (floor - eta/2)
                     - gamma m eta/2,

    at least R + u |L| under the conditions of _constants for a wide
    product. The widening [fl(L - r), fl(U + r)] is then an enclosure, as
    in _enclose.

    Non-finite values. An entry whose e is above _BIG or NaN is
    [-inf, +inf]: there a candidate overflowed or is inf times 0. Below
    _BIG nothing overflowed, as every candidate and partial sum is at most
    (1 + gamma_m) e / (1 - u)**m < MAX in magnitude, and each widened end
    is finite or overflows on its own side.
    """
    gamma, floor = _constants(Al.shape[2], 0)[:2]
    # a NaN (inf - inf, inf * 0) arises only in an entry whose e is NaN or
    # infinite, which the last step replaces
    with np.errstate(invalid="ignore"):
        for j in range(Al.shape[2]):
            al, ah, bl, bh = Al[:, :, j, None], Ah[:, :, j, None], Bl[:, None, j], Bh[:, None, j]
            c1, c2, c3, c4 = al * bl, al * bh, ah * bl, ah * bh
            lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
            hi = np.maximum(np.maximum(c1, c2, out=c1), np.maximum(c3, c4, out=c3), out=c1)
            mag = np.maximum(np.negative(lo, out=c2), hi, out=c2)  # max(|c_lo|, |c_hi|)
            if j:
                L += lo
                U += hi
                e += mag
            else:
                L, U, e = lo, hi, mag
        bad = ~(e <= _BIG)
        e *= gamma
        e += floor
        L -= e
        U += e
    L[bad], U[bad] = -np.inf, np.inf
    return L, U


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
    return IMatrix(np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))


def det_sign(M: IMatrix) -> int:
    """The determinant sign of every member of the square interval matrix
    M; raises SingularMatrixError where the residual test of _regular
    fails, as no sign can then be certified.

    With X from _regular, every member A has ||I - X A||_inf < 1, so the
    segment from I to X A, I - t (I - X A) for t in [0, 1], holds only
    regular matrices, and det(X A) > 0 as det(I) = 1. So det A has the sign
    of det X, which Bareiss elimination gives exactly.
    """
    n, m = M.shape
    if n != m:
        raise DomainError("det_sign needs a square matrix")
    return _bareiss_sign(_regular(M.lo, M.hi)[1].tolist())


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
