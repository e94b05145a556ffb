"""The concrete reversible map family and the MapSystem abstraction.

The shipped instance is the 4-d map

    F(x, y) = (-y + g(x+y), x + g(x+y)),      g = f/2,
    f(w1, w2) = (w1(1-w1) + 4 - w2,  w2(1-w2) + 4 + w1),

with reversing symmetry S(x1, x2, y1, y2) = (-x1, -x2, y1, y2), so that
S o F o S o F = Id. Since S is an involution this already gives the inverse,
F^{-1} = S o F o S, so F is written once (a vectorized batch over (B, n)
lo/hi arrays, and a batch Jacobian) and its inverse is derived from it. A
map has no separate point variant: a point is a cell of zero width, and
`MapSystem.image` evaluates points through the batch.

The batch evaluation rounds once per output: each output endpoint is
evaluated in round-to-nearest on a contiguous transposed copy of the cells
and widened by an a-priori radius, also in round-to-nearest, with no
outward step: the radius covers the endpoint's rounding error and the one
rounding of the widening itself (see `_F_batch` for the derivation). The
batch Jacobian stays stepwise, one outward rounding per `iadd`/`isub`, on
(B, 2) arrays that fill a constant template of its +-1/2 entries.

This module evaluates maps and keeps no orbits: the covering checks walk
their own along batches of chart cells, and the degree computation along
the point cell at the source center, through the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .hset import LinearReversor, coordinate_reflection
from .interval import (
    DomainError,
    affine_batch,
    iadd,
    isub,
)


class MissingInverseError(Exception):
    """The operation needs an inverse evaluator that this map does not provide."""


@dataclass
class MapSystem:
    """Evaluatable map with derivative and optional inverse: a map is
    given by its interval batch and its batch Jacobian, and `image`
    evaluates float points through the batch.

    The bundled maps are built from module-level functions, bound to their
    data with functools.partial, so they pickle by value, inverse link and
    reversor included, and worker processes run them as they are. A map built
    from closures or lambdas does not pickle; covering checks refuse to run
    it on more than one worker process.

    eval_batch and jac_batch must treat each row of a batch on its own: a
    row's result may not depend on the other rows or on the batch size. The
    mean-value cell engine stacks each cell's midpoint with the cells in one
    eval_batch call, and verdicts and counts are independent of the thread
    count and the batch size only under this rule.
    """

    name: str
    dim: int
    eval_batch: Callable  # (lo, hi) -> (lo, hi), arrays (B, dim)
    jac_batch: Callable  # (lo, hi) -> (Jlo, Jhi), arrays (B, dim, dim)
    inverse: Optional["MapSystem"] = None
    reversor: Optional[LinearReversor] = None

    def image(self, z) -> np.ndarray:
        """Float images of the points z, (n,) or (B, n): the midpoints
        0.5*lo + 0.5*hi of eval_batch on the points as cells of zero width.
        They are not enclosures but values for orbits, residuals and plots;
        for F and the linear maps, whose batches widen the round-to-nearest
        value by a radius, they are that value up to rounding."""
        cells = np.atleast_2d(np.asarray(z, dtype=float))
        lo, hi = self.eval_batch(cells, cells)
        return (0.5 * lo + 0.5 * hi).reshape(np.shape(z))

    def require_inverse(self) -> "MapSystem":
        if self.inverse is None:
            raise MissingInverseError(f"map {self.name!r} has no inverse evaluator")
        return self.inverse


def _reversor_inverse(fwd: MapSystem, name: str) -> MapSystem:
    """The inverse S o F o S of a map F with reversing symmetry S, named
    `name`, and linked with F as each other's inverse.

    S is applied as exact sign flips, so it must be a signed diagonal:
    negating a coordinate negates and swaps its bounds, and Jacobian entry
    (i, j) is negated, with its bounds swapped, where s_i s_j = -1. Any other
    linear S would round on intervals, so it raises DomainError.
    """
    S = fwd.reversor
    s = np.diag(S.matrix)
    if not np.array_equal(S.matrix, np.diag(s)):
        raise DomainError(f"reversor of {fwd.name!r} is not a signed diagonal")
    neg = s < 0
    neg_jac = neg[:, None] != neg[None, :]
    inv = MapSystem(name, fwd.dim, partial(_conjugate_batch, neg, neg, fwd.eval_batch),
                    partial(_conjugate_batch, neg, neg_jac, fwd.jac_batch),
                    inverse=fwd, reversor=S)
    fwd.inverse = inv
    return inv


def _flip(mask, lo, hi):
    return np.where(mask, -hi, lo), np.where(mask, -lo, hi)


def _conjugate_batch(neg_in, neg_out, f, lo, hi):
    return _flip(neg_out, *f(*_flip(neg_in, lo, hi)))


# --- the 4-d reversible map F ---

# The gamma of _F_batch: 9u meets gamma (1 - u)**2 >= (gamma_7 + eta/2) / (1 - u)**7 + u,
# which 8u misses.
_F_GAMMA = 9 * 2.0 ** -53


def _F_batch(lo, hi):
    """Enclosures of F over a batch of cells, each output endpoint
    evaluated in round-to-nearest and widened by a radius that covers its
    rounding error and the rounding of the widening, with no outward step.

    The cells are copied to C-contiguous (4, B) arrays, rows x1, x2, y1,
    y2, so every operation runs on contiguous rows, and the results are
    returned as (B, 4) transposed views. With w = x + y, each output
    endpoint is an expression in the input endpoints: the lower end of the
    first output is

        L = ((P1_lo + 4) - w2_hi) * 0.5 - y1_hi,   w2_hi = x2_hi + y2_hi,

    where P1_lo is the min of the four products w1 * (1 - w1') over the
    endpoints w1, w1' of w1 (the inf-sup hull of w1 * (1 - w1)); the other
    endpoints and outputs follow F's formula the same way. In exact
    arithmetic L is a lower bound of the first output over the cell.

    Error bound. With u = 2**-53, eta = 2**-1074 and gamma_k as in
    interval.py, a rounded +, - or * returns (a o b)(1 + d) + e with
    |d| <= u, |e| <= eta/2, and e = 0 for + and -; scaling by 0.5 has d = 0
    but is not exact for subnormals, so it has |e| <= eta/2 too. Let X_i,
    Y_i be the largest magnitudes of the cell's x_i, y_i and
    W_i = X_i + Y_i, which bounds |w_i|. If two operands are off by at most
    gamma_j A and gamma_k B from exact values bounded by A and B, their
    rounded sum or difference is off by at most gamma_(max(j,k)+1) (A + B),
    and their rounded product by gamma_(j+k+1) A B + eta/2 (Higham, lemma
    3.3); min and max do not increase an error. Step by step, w is off by
    gamma_1 W, 1 - w by gamma_2 (1 + W), the products and their hull by
    gamma_4 W(1 + W) + eta/2, and L by at most gamma_7 E + eta, where

        E1 = ((W1 (1 + W1) + 4) + W2) * 0.5 + Y1

    (outputs 3 and 4 add X instead of Y, and outputs 2 and 4 swap W1 and
    W2), the underflow terms summing to less than eta. As E >= 2, that is
    at most (gamma_7 + eta/2) E.

    E is itself evaluated in round-to-nearest, from X and Y (_F_magnitude).
    All its terms are nonnegative and no step underflows (W (1 + W) is at
    least W, and the halved value at least 4), so each rounded step loses at
    most a factor 1 - u, and these factors compound as the errors above do:
    the computed e >= (1 - u)**7 E. One more rounding gives the radius
    r = fl(_F_GAMMA * e) >= (1 - u) _F_GAMMA e.

    Widening. The computed endpoint L~ is widened in round-to-nearest:
    fl(L~ - r) is off by at most u |L~ - r| <= u (|L~| + r), and |L~| <= e
    (see below), so fl(L~ - r) <= L~ - (1 - u) r + u e. This is a lower
    bound of the output once (1 - u) r >= (gamma_7 + eta/2) E + u e. With
    e >= (1 - u)**7 E that holds when

        _F_GAMMA (1 - u)**2 >= (gamma_7 + eta/2) / (1 - u)**7 + u,

    which 9u meets and 8u does not; the upper end fl(U~ + r) is the mirror
    image. Neither end overflows towards the other side, and one that
    overflows outward is -inf or +inf, still a bound.

    Non-finite values. Rounding to nearest is monotone and
    |a +- b| <= |a| + |b|, so every intermediate of L is at most the
    matching intermediate of e in magnitude: where r is finite no step
    overflowed. Where r is not finite (an inf or NaN input, or an overflow),
    that output is [-inf, +inf]. An overflow of w1 (1 - w1) leaves outputs
    2 and 4 finite, as their bounds do not contain W1 (1 + W1).
    """
    lo, hi = lo.T.copy(), hi.T.copy()
    wl = lo[:2] + lo[2:]
    wh = hi[:2] + hi[2:]
    al = 1.0 - wh
    ah = 1.0 - wl
    c1, c2, c3 = wl * al, wl * ah, wh * al
    gl = np.minimum(c1, c2)
    gh = np.maximum(c1, c2, out=c1)
    np.minimum(gl, c3, out=gl)
    np.maximum(gh, c3, out=gh)
    c4 = np.multiply(wh, ah, out=c3)
    np.minimum(gl, c4, out=gl)
    np.maximum(gh, c4, out=gh)
    # g = f(w) / 2, f = (w1(1 - w1) + 4 - w2, w2(1 - w2) + 4 + w1)
    gl += 4.0
    gh += 4.0
    gl[0] -= wh[1]
    gh[0] -= wl[1]
    gl[1] += wl[0]
    gh[1] += wh[0]
    gl *= 0.5
    gh *= 0.5
    # F = (-y + g, x + g)
    out_lo = np.empty_like(lo)
    out_hi = np.empty_like(hi)
    np.subtract(gl, hi[2:], out=out_lo[:2])
    np.add(gl, lo[:2], out=out_lo[2:])
    np.subtract(gh, lo[2:], out=out_hi[:2])
    np.add(gh, hi[:2], out=out_hi[2:])
    r = _F_magnitude(lo, hi)
    r *= _F_GAMMA
    out_lo -= r
    out_hi += r
    bad = ~np.isfinite(r)
    if bad.any():
        out_lo[bad] = -np.inf
        out_hi[bad] = np.inf
    return out_lo.T, out_hi.T


def _F_magnitude(lo, hi):
    """The magnitude bound e of each output of _F_batch, evaluated in
    round-to-nearest, for cells given as (4, B) arrays, rows x1, x2, y1, y2
    (see _F_batch)."""
    m = np.abs(lo)
    np.maximum(m, np.abs(hi), out=m)
    w = m[:2] + m[2:]
    g = w + 1.0
    g *= w
    g += 4.0
    g += w[::-1]
    g *= 0.5
    e = np.empty_like(m)
    np.add(g, m[2:], out=e[:2])
    np.add(g, m[:2], out=e[2:])
    return e


# DF's constant entries +-1/2, flattened row by row, and the diagonals of its
# 2 x 2 blocks Dg, Dg - I, I + Dg and Dg as slices of that flat row
_DF_TEMPLATE = np.array([[0.0, -0.5, 0.0, -0.5], [0.5, 0.0, 0.5, 0.0]] * 2).ravel()
_DF_DIAGONALS = (slice(0, 6, 5), slice(2, 8, 5), slice(8, 14, 5), slice(10, 16, 5))


def _F_jac_batch(lo, hi):
    """DF = [[Dg, Dg - I], [I + Dg, Dg]] with Dg at w = x + y, where
    Dg = [[1/2 - w1, -1/2], [1/2, 1/2 - w2]].

    w and a = 1/2 - w are each rounded outward once, on (B, 2) arrays, and
    a - 1 and a + 1 once more; their enclosures fill the block diagonals
    of a constant template of DF's +-1/2 entries."""
    nb = lo.shape[0]
    w_lo, w_hi = iadd(lo[:, :2], hi[:, :2], lo[:, 2:], hi[:, 2:])
    al, ah = isub(0.5, 0.5, w_lo, w_hi)
    ml, mh = iadd(al, ah, -1.0, -1.0)
    pl, ph = iadd(al, ah, 1.0, 1.0)
    out = []
    for diagonals in ((al, ml, pl, al), (ah, mh, ph, ah)):
        j = np.empty((nb, 16))
        j[:] = _DF_TEMPLATE
        for slots, d in zip(_DF_DIAGONALS, diagonals):
            j[:, slots] = d
        out.append(j.reshape(nb, 4, 4))
    return tuple(out)


def reversible_quadratic_map() -> MapSystem:
    """The shipped 4-d reversible instance, registered as "F-quadratic-4d";
    its inverse S o F o S is registered as "F-quadratic-4d-inverse"."""
    fwd = MapSystem(
        name="F-quadratic-4d",
        dim=4,
        eval_batch=_F_batch,
        jac_batch=_F_jac_batch,
        reversor=coordinate_reflection(4, (0, 1)),
    )
    _reversor_inverse(fwd, "F-quadratic-4d-inverse")
    return fwd


def _linear_jac(A, lo, hi):
    j = np.broadcast_to(A, (lo.shape[0],) + A.shape)
    return j.copy(), j.copy()


def _linear_only(A: np.ndarray, name: str, reversor=None) -> MapSystem:
    n = A.shape[0]
    return MapSystem(name, n, partial(affine_batch, A, np.zeros(n)), partial(_linear_jac, A),
                     reversor=reversor)


def linear_map_system(matrix, inverse_matrix=None, name="linear", reversor=None) -> MapSystem:
    """MapSystem for z -> A z; mainly for toy coverings and tests."""
    m = _linear_only(np.asarray(matrix, dtype=float), name, reversor)
    if inverse_matrix is not None:
        m.inverse = _linear_only(np.asarray(inverse_matrix, dtype=float), name + "-inverse")
        m.inverse.inverse = m
    return m


_REGISTRY = {
    "F": reversible_quadratic_map,
    "F-quadratic-4d": reversible_quadratic_map,
    "F-inverse": lambda: reversible_quadratic_map().inverse,
    "F-quadratic-4d-inverse": lambda: reversible_quadratic_map().inverse,
}


def map_by_name(name: str) -> MapSystem:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown map {name!r}; known: {sorted(_REGISTRY)}")
