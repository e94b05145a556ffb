"""The reversible map family: a map is the data of a quadratic form.

A `MapSystem` is the quadratic map

    F(z) = A z + c + C (B z + b)**2,

the square taken coordinate by coordinate, for A (n, n), c (n,), B (m, n),
b (m,) and C (n, m), with a name and an optional reversor. Its constructor
checks the data and derives the kernel matrices from it once
(`MapSystem.kernel`), and two kernels evaluate the map from them: the
interval batch `_quadratic_eval` and the batch Jacobian `_quadratic_jac`,
DF(z) = A + 2 C diag(B z + b) B. A linear map is the case m = 0. Every map
is arrays, a str and a LinearReversor, so every map pickles by value: its
data only, from which unpickling derives the kernel again. Each kernel
treats each cell on its own.

The shipped instance is the 4-d map

    F(x, y) = (-y + g(x+y), x + g(x+y)),      g = f/2,
    f(w1, w2) = (w1(1-w1) + 4 - w2,  w2(1-w2) + 4 + w1),

with its squares completed, w(1 - w) = 1/4 - (w - 1/2)**2 (`_F_DATA`),
and reversing symmetry S(x1, x2, y1, y2) = (-x1, -x2, y1, y2), so that
S o F o S o F = Id. Since S is an involution this already gives the inverse,
F^{-1} = S o F o S, which is itself a quadratic map, with the data
(S A S, S c, B S, b, S C) (`_reversor_inverse`). A reversor is a signed
permutation, so that data is exact in floats: F is written once, and its
inverse is the same kind of map. `MapSystem.require_inverse` is the one way
to an inverse: it first proves S o F o S o F = Id exactly
(`_prove_reversor`), so a map without a reversor the proof accepts has no
inverse. A map has no separate point variant: a point is a cell of zero
width, and `MapSystem.image` evaluates points through the batch.

Both kernels run on the one kernel of interval.py (`interval._prepare`,
`interval._enclose`), which also carries the charts' linear steps: every
bound is one matrix product over the cells' endpoints, in round-to-nearest
on (rows, B) arrays, widened once by an a-priori radius, also in
round-to-nearest, with no outward step. The radius covers the products'
rounding errors and the one rounding of the widening itself; what is
particular to a quadratic map is the shift and its squares (`_shift`), and
`_quadratic_eval` derives their share of the radius. The value kernel also
runs on rows (`_quadratic_rows`), so that a plain chart chain passes each
step's bounds to the next in the kernel's own layout.

This module evaluates maps and keeps no orbits: the covering checks walk
their own along batches of chart cells, and the degree computation along
the point cell at the source center, through the same chain.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hset import LinearReversor, coordinate_reflection
from .interval import (DomainError, _columns, _constants, _enclose, _exact, _prepare, _split,
                       _to_rows)


@dataclass(eq=False)
class MapSystem:
    """The quadratic map F(z) = A z + c + C (B z + b)**2 named `name`, for
    A (n, n), c (n,), B (m, n), b (m,) and C (n, m), with an optional
    reversor of dimension n.

    The constructor copies the data to read-only float arrays and checks
    it: a name that is not a str, data of another shape, an entry that is
    not a finite number, or a reversor that is not a LinearReversor of
    dimension n raises DomainError. It then derives the kernel matrices
    (`kernel`), which are not a constructor argument. Maps compare by
    identity. The inverse is derived on request (`require_inverse`).

    eval_batch and jac_batch enclose the map's values and its Jacobian
    over a batch of cells, and treat each cell on its own: a cell's result
    does not depend on the other cells or on the batch size. The mean-value
    cell engine stacks each cell's midpoint with the cells in one
    eval_batch call, and verdicts and counts are independent of the thread
    count and the batch size because of this.
    """

    name: str
    A: np.ndarray
    c: np.ndarray
    B: np.ndarray
    b: np.ndarray
    C: np.ndarray
    reversor: Optional[LinearReversor] = None
    kernel: "_Quadratic" = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DomainError(f"name must be a str, not {type(self.name).__name__}")
        if not isinstance(self.reversor, (LinearReversor, type(None))):
            raise DomainError(f"reversor is a {type(self.reversor).__name__}, not a LinearReversor")
        try:
            data = [np.array(getattr(self, k), dtype=float) for k in "AcBbC"]
        except (TypeError, ValueError) as e:
            raise DomainError(f"quadratic map data must be arrays of numbers: {e}") from e
        n, m = (x.shape[0] if x.ndim else -1 for x in (data[0], data[2]))
        for label, x, shape in zip("AcBbC", data, ((n, n), (n,), (m, n), (m,), (n, m))):
            if x.shape != shape or not np.isfinite(x).all():
                raise DomainError(f"{label} must be finite, of shape {shape}; got shape {x.shape}")
            x.flags.writeable = False
            setattr(self, label, x)
        if self.reversor is not None and self.reversor.dim != n:
            raise DomainError(f"the reversor has dimension {self.reversor.dim}, the map {n}")
        self.kernel = _quadratic(*data)

    def __getstate__(self):
        """The name, the data and the reversor: the kernel is derived
        again on load (__setstate__)."""
        return {k: v for k, v in self.__dict__.items() if k != "kernel"}

    def __setstate__(self, state):
        """Checks the unpickled data and derives the kernel, as the
        constructor does; the arrays are read-only again."""
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def dim(self) -> int:
        return len(self.c)

    def _cells(self, lo, hi):
        """The cells [lo, hi], if the two arrays are (B, dim) of one shape;
        else DomainError."""
        if lo.shape[1:] != (self.dim,) or hi.shape != lo.shape:
            raise DomainError(f"map {self.name!r} takes cells of shape (B, {self.dim}); "
                              f"got {lo.shape} and {hi.shape}")
        return lo, hi

    def eval_batch(self, lo, hi):
        """Enclosures (lo, hi) (B, n) of the images of the cells [lo, hi]
        (B, n) (_quadratic_eval)."""
        return _quadratic_eval(self.kernel, *self._cells(lo, hi))

    def jac_batch(self, lo, hi):
        """Enclosures (lo, hi) (B, n, n) of the Jacobians over the cells
        [lo, hi] (B, n) (_quadratic_jac)."""
        return _quadratic_jac(self.kernel, *self._cells(lo, hi))

    def image(self, z) -> np.ndarray:
        """Float images of the points z, (n,) or (B, n): the midpoints
        0.5*lo + 0.5*hi of eval_batch on the points as cells of zero width.
        They are not enclosures but values for orbits, residuals and plots:
        the batch widens the round-to-nearest value by a radius, so they
        are that value up to rounding."""
        cells = np.atleast_2d(np.asarray(z, dtype=float))
        lo, hi = self.eval_batch(cells, cells)
        return (0.5 * lo + 0.5 * hi).reshape(np.shape(z))

    def require_inverse(self) -> "MapSystem":
        """The inverse S o F o S (_reversor_inverse), once the reversor S is
        proven to reverse F exactly (_prove_reversor); a map without a
        reversor, or whose reversor fails the proof, raises DomainError.
        Each call proves and derives anew: a map holds no inverse."""
        if self.reversor is None:
            raise DomainError(f"map {self.name!r} has no reversor, so no inverse")
        _prove_reversor(self)
        return _reversor_inverse(self)


def _prove_reversor(fwd: MapSystem) -> None:
    """Proves S o F o S o F = Id for F = fwd and its reversor S, in exact
    integer arithmetic, or raises DomainError at a point where it fails.

    S o F o S o F - Id is a polynomial map of total degree at most 4, as F
    has degree at most 2 and S is linear. The C(n + 4, 4) points
    {z in N^n : sum(z) <= 4} are unisolvent for the polynomials of total
    degree at most 4 (such a polynomial that vanishes there is x_1 Q on
    the face x_1 = 0, by induction on n, and Q of degree at most 3
    vanishes on the shifted points with z_1 >= 1, by induction on the
    degree), so the identity holds on all of R^n if it holds there.

    The one exact reader (interval._exact) puts all of F's data over one
    power of two, D, and F(X / Q) for integers X and Q has the numerators
    D**2 Q (a X + Q c) + C (B X + Q b)**2 over D**3 Q**2, for a, c, B, b
    and C the data times D; S moves and negates numerators
    (LinearReversor.act on the point intervals [X, X])."""
    S = fwd.reversor
    a, c, B, b, C, p = _exact(*(getattr(fwd, k) for k in "AcBbC"))
    D = 1 << -p
    D2, D3 = D * D, D * D * D

    def sf(X, Q):  # the numerators of S F(X / Q), over D**3 Q**2
        FX = D2 * Q * (X @ a.T + Q * c) + (X @ B.T + Q * b) ** 2 @ C.T
        return S.act(FX, FX)[0]

    n = fwd.dim
    Z = np.array([[pick.count(i) for i in range(n)]  # z_i: how often i is picked
                  for pick in itertools.combinations_with_replacement(range(n + 1), 4)],
                 dtype=object)
    # S F(Z) is over D**3, so S F S F(Z) is over D**3 (D**3)**2
    moved = sf(sf(Z, 1), D3) != Z * D3 ** 3
    if moved.any():
        z = Z[moved.any(axis=1)][0]
        raise DomainError(f"the reversor does not reverse map {fwd.name!r}: "
                          f"S o F o S o F moves the point {[int(v) for v in z]}")


def _reversor_inverse(fwd: MapSystem) -> MapSystem:
    """The map S o F o S of a map F with reversor S, named by the rule
    X <-> X-inverse, with the reversor S; it inverts F where S reverses F
    (_prove_reversor).

    S F(S z) = S A S z + S c + S C (B S z + b)**2 is the quadratic map with
    the data (S A S, S c, B S, b, S C). S is a signed permutation, so each
    entry of those products is one entry of F's data, moved and perhaps
    negated, plus exact zeros: the inverse's data is exact, and that of the
    inverse's inverse is F's. For a diagonal S its kernels give, bit for
    bit, S.act o F o S.act and S DF(S z) S.
    """
    P, name = fwd.reversor.matrix, fwd.name
    name = name.removesuffix("-inverse") if name.endswith("-inverse") else f"{name}-inverse"
    return MapSystem(name, P @ fwd.A @ P, P @ fwd.c, fwd.B @ P, fwd.b, P @ fwd.C, fwd.reversor)


# --- quadratic maps: F(z) = A z + c + C (B z + b)**2 ---

_NU = 2.0 ** -500  # added to the shift's magnitude, see _quadratic_eval

# The kernel matrices of a quadratic map, each over the rows of
# X = [1; l_1; h_1; ...; l_n; h_n; d_1**2; g_1**2; ...], S = [1; s_lo,1;
# s_hi,1; ...] or W = [Z; 1; s'] (see _quadratic_eval): shift (2m, 1 + 2n)
# gives S after its first row, which is 1, from X's first rows; value
# (2n, 1 + 2n + 2m) the lower, then the upper bounds of F from X; jacobian
# (2n*n, 1 + 2m) those of DF from S; sigma (m, n + 1) s~ from W's first
# rows; magnitude (n, n + 1 + m) e from W with s' squared; jac_magnitude
# (n*n, 1 + m) e_J from W's last rows; constants is
# interval._constants(n, m).
_Quadratic = namedtuple("_Quadratic",
                        "shift value jacobian sigma magnitude jac_magnitude constants")


def _shift(q, X, W=None):
    """The operands of both kernels for cells in the rows 1..2n of X:
    W from interval._prepare (into W, if given), the shift's bounds S, and
    g = max(|s_lo|, |s_hi|) (m, B), with W's last m rows set to s' (see
    _quadratic_eval). Returns (S, g, W). S's first row is set to 1, not
    computed as a product with X, where an operand that is not finite
    would make it NaN."""
    m, n = len(q.sigma), q.sigma.shape[1] - 1
    W = _prepare(X, n, n + 1 + m, out=W)
    S = np.empty((2 * m + 1, X.shape[1]))
    S[0] = 1.0
    _columns(q.shift, X[:2 * n + 1], S[1:])
    g = np.abs(S[1::2])
    np.maximum(g, np.abs(S[2::2]), out=g)
    np.maximum(_columns(q.sigma, W[:n + 1]), g, out=W[n + 1:])
    return S, g, W


def _quadratic_eval(q, lo, hi):
    """Enclosures of F(z) = A z + c + C (B z + b)**2 over a batch of cells
    [lo, hi] (B, n), for the kernel matrices q of a map (MapSystem.kernel).

    Bounds. The cells are copied to the columns of X = [1; l_1; h_1; ...;
    l_n; h_n], each lower bound's row next to its upper bound's. With M+
    and M- the positive and negative parts of a matrix M, one product gives
    both bounds of the shift sigma = B z + b over each cell,
    s_lo = b + B+ l + B- h and s_hi = b + B+ h + B- l. With
    d = max(s_lo, -s_hi, 0) and g = max(|s_lo|, |s_hi|), d**2 <= sigma**2
    <= g**2 over the cell, and

        L = c + A+ l + A- h + C+ d**2 + C- g**2 <= F(z)
          <= c + A+ h + A- l + C+ g**2 + C- d**2 = U,

    one product of the `value` matrix with X, d**2 and g**2 appended. The
    coefficients of L and U are interleaved like X's rows, so their nonzero
    terms come in the same order, and a product that sums each row in
    column order gives a point cell L = U.
    This is the tight square of each shift coordinate; for F it is as tight
    as the hull of the four products w (1 - w') wherever w avoids [0, 1],
    and tighter where it does not.

    Error bound. With u, eta and gamma_k as in interval.py, a dot product
    of length k, in any order and with or without fused multiply-adds, is
    off by at most gamma_k times the sum of its terms' magnitudes plus
    k eta. The shift's products have length p = 2n + 1, F's q = 2n + 2m + 1.
    Let Z = max(|l|, |h|) and

        s = |B| Z + |b| + nu,   nu = 2**-500,

    which bounds |s_lo| and |s_hi|, and makes every underflow of the shift
    and the squares negligible (eta <= u nu, eta/2 <= 2**-22 u nu**2). The
    computed shift is off by at most gamma_p s. max, negation and abs are
    exact, and d and g are 1-Lipschitz in (s_lo, s_hi) and at most s, so
    the rounded squares are off from the exact ones by at most

        a2 s**2,   a2 = gamma_p (2 + gamma_p) + u (1 + gamma_p)**2 + 2**-22 u,

    and are at most a1 s**2, a1 = (1 + u)(1 + gamma_p)**2 + 2**-22 u. So the
    computed L~ is off from L by at most
    R = gamma_q (|c| + |A| Z + a1 |C| s**2) + a2 |C| s**2 + q eta, and
    |L~| <= (1 + gamma_q)(|c| + |A| Z + a1 |C| s**2) + q eta, so that with
    E = |c| + |A| Z + |C| s**2

        R + u |L~| <= G E + (1 + u) q eta,
        G = (gamma_q + u (1 + gamma_q)) a1 + a2.

    Radius. E is evaluated in round-to-nearest, as e = fl(|A| Z + |c| +
    |C| s'**2) with s~ = fl(|B| Z + (|b| + nu)), the constant rounded once
    when the map is built, and s' = max(s~, g~), which can only raise e.
    All terms are nonnegative, so each rounding loses at most a factor
    1 - u: s~ >= (1 - u)**(n + 2) s (its n eta/2 of underflow is below
    u nu), s~**2 is normal, and e >= (1 - u)**(3n + m + 6) E - (n + m) eta/2.
    The radius r = fl(fl(gamma e) + floor) then has

        (1 - u) r >= (1 - u)**(3n + m + 9) gamma E + (1 - u)**2 (floor - eta/2)
                     - gamma (n + m) eta/2,

    which is at least G E + (1 + u) q eta under the first two conditions
    of interval._constants for m > 0. For m = 0 there are no squares, and
    this is interval._linear_eval without a center and a matrix radius,
    under its conditions.

    Widening. fl(L~ - r) is off by at most u |L~ - r| <= u (|L~| + r), so
    fl(L~ - r) <= L~ - (1 - u) r + u |L~| <= L, and fl(U~ + r) >= U is the
    mirror image: [fl(L~ - r), fl(U~ + r)] encloses F over the cell, with
    no outward step.

    Non-finite values. An output whose e is above _BIG or NaN is
    [-inf, +inf]. Below _BIG nothing overflowed: each term of L~ and U~ is
    at most the matching term of e (a computed square is at most s'**2),
    so every intermediate is at most (1 + gamma_q) e / (1 - u)**(n + m + 1)
    < MAX, and so is each widened end. A cell coordinate that is
    not finite, and a shift or square that overflowed, is an operand that
    is not finite (in X, or in W as s' = max(s~, g~)), and _enclose makes
    [-inf, +inf] of the outputs it reaches: for F, every output of a cell
    with a coordinate that is not finite.
    """
    return _quadratic_rows(q, _to_rows(lo, hi, q.value.shape[1]))


def _quadratic_rows(q, X, W=None, out=None):
    """_quadratic_eval on cells in the rows 1..2n of X (1 + 2n + 2m, B);
    W (n + 1 + m, B) and out (2n, B) are the destinations of the operand W
    and of the bounds (interval._enclose), if given. A chart chain passes
    the rows 1..2n of the next step's X as out."""
    n = q.sigma.shape[1] - 1
    S, g, W = _shift(q, X, W)
    np.square(np.maximum(np.maximum(S[1::2], -S[2::2]), 0.0), out=X[2 * n + 1::2])  # d**2
    np.square(g, out=X[2 * n + 2::2])
    np.square(W[n + 1:], out=W[n + 1:])
    return _enclose(q.value, X, q.magnitude, W, *q.constants[:3], out)


def _quadratic_jac(q, lo, hi):
    """Enclosures of DF(z) = A + 2 C diag(B z + b) B over a batch of cells
    [lo, hi] (B, n), as (B, n, n) lo and hi.

    Entry (i, j) is A_ij + sum_k P_kij sigma_k with P_kij = 2 C_ik B_kj,
    linear in the shift, so one product of the `jacobian` matrix, rows
    [A | P+ | P-] and [A | P- | P+] interleaved like S, with S gives its
    bounds. P~ = fl(2 C_ik B_kj) is rounded once when the map is built,
    and is off by at most u |P~| + eta/2, and by 0 where C_ik or B_kj is 0.

    Error bound. In the notation of _quadratic_eval, and with q_J = 2m + 1,
    the product is off by at most
    gamma_qJ (|A| + |P~| (1 + gamma_p) s) + q_J eta, the shift's error adds
    at most |P~| gamma_p s, and P's rounding at most u Pi s, for
    Pi = |P~| + 2**-1022 where C_ik and B_kj are both nonzero and Pi = 0
    elsewhere (eta/2 = u 2**-1022). With the widening's u |J~|, and
    E_J = |A| + Pi s, that is at most G_J E_J + (1 + u) q_J eta, where

        G_J = (gamma_qJ + u (1 + gamma_qJ))(1 + gamma_p) + gamma_p + u.

    E_J is evaluated as e_J = fl(|A| + fl(Pi) s'), each term passing at
    most n + m + 4 roundings, so e_J >= (1 - u)**(n + m + 4) E_J - m eta/2,
    and r_J = fl(fl(gamma_J e_J) + floor_J) covers G_J E_J + (1 + u) q_J eta
    under the last two conditions of interval._constants, as in
    _quadratic_eval.
    Entries are [-inf, +inf] as there (_enclose). S's first row is set to
    exactly 1 (_shift), so on a cell with a coordinate that is not finite
    an entry is [-inf, +inf] only where some P_kij is nonzero, and A_ij
    widened by r_J elsewhere. For m = 0 the product is A times 1, exact,
    and the Jacobian is A, on every cell.
    """
    nb, n = lo.shape
    S, _, W = _shift(q, _to_rows(lo, hi, 2 * n + 1))
    # copied to C order: the chain's products read each cell's matrix whole
    return tuple(np.ascontiguousarray(a).reshape(nb, n, n)
                 for a in _enclose(q.jacobian, S, q.jac_magnitude, W[n:], *q.constants[3:]))


def _quadratic(A, c, B, b, C) -> _Quadratic:
    """The kernel matrices of F(z) = A z + c + C (B z + b)**2, for checked
    data (MapSystem)."""
    n, m = len(c), len(b)
    P = np.einsum("ik,kj->ijk", 2.0 * C, B).reshape(n * n, m)
    inexact = np.einsum("ik,kj->ijk", C != 0, B != 0).reshape(n * n, m)
    (Al, Ah), (Bl, Bh), (Cl, Ch), (Pl, Ph) = (_split(M) for M in (A, B, C, P))
    shift = np.stack((np.c_[b, Bl], np.c_[b, Bh]), axis=1).reshape(2 * m, 2 * n + 1)
    Pi = np.where(inexact, np.abs(P) + 2.0 ** -1022, 0.0)
    return _Quadratic(shift,
                      np.block([[c[:, None], Al, Cl], [c[:, None], Ah, Ch]]),
                      np.block([[A.reshape(-1, 1), Pl], [A.reshape(-1, 1), Ph]]),
                      np.c_[np.abs(B), np.abs(b) + _NU], np.c_[np.abs(A), np.abs(c), np.abs(C)],
                      np.c_[np.abs(A).reshape(-1, 1), Pi], _constants(n, m))


# F with its squares completed: B z + b = x + y - 1/2
_F_DATA = dict(A=np.array([[0, -1, -2, -1], [1, 0, 1, -2], [2, -1, 0, -1], [1, 2, 1, 0]]) / 2,
               c=[17 / 8] * 4, B=[[1, 0, 1, 0], [0, 1, 0, 1]], b=[-0.5] * 2,
               C=[[-0.5, 0], [0, -0.5], [-0.5, 0], [0, -0.5]])


def reversible_quadratic_map() -> MapSystem:
    """The shipped 4-d reversible instance, registered as "F-quadratic-4d";
    its inverse S o F o S (require_inverse) is registered as
    "F-quadratic-4d-inverse"."""
    return MapSystem("F-quadratic-4d", **_F_DATA, reversor=coordinate_reflection(4, (0, 1)))


def linear_map_system(matrix, name="linear", reversor=None) -> MapSystem:
    """MapSystem for z -> A z, the quadratic map with c = 0 and no squares
    (m = 0); mainly for toy coverings and tests. Its inverse, as any map's,
    comes from its reversor (MapSystem.require_inverse)."""
    n = len(matrix)
    # c = 0, and B, b and C empty: no squares
    return MapSystem(name, matrix, *(np.zeros(shape) for shape in (n, (0, n), 0, (n, 0))), reversor)


_NAMES = ("F", "F-quadratic-4d", "F-inverse", "F-quadratic-4d-inverse")


def map_by_name(name: str) -> MapSystem:
    """The registered map `name`: F, or its inverse S o F o S, each under
    two names; any other name raises DomainError."""
    if name not in _NAMES:
        raise DomainError(f"unknown map {name!r}; known: {sorted(_NAMES)}")
    F = reversible_quadratic_map()
    return F.require_inverse() if name.endswith("-inverse") else F
