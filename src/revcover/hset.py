"""Affine h-sets: charts, transposes, symmetric images, fixed-space disks, wall grids.

An h-set is a parallelepiped M([-1,1]^n) + x under the maximum norm, with the
first u columns of M spanning the nominally unstable directions and the last s
columns the stable ones. The chart c(v) = M^{-1}(v - x) maps the support onto
the unit cube; a verified enclosure of M^{-1} is certified at construction
by Rump's residual test (`interval.imat_inverse`; S. M. Rump, "Verification
methods", Acta Numerica 19, 2010): with X = fl(inv(M)) and the exact
residual R0 = I - X M of norm rho < 1, it is X + R0 X -+ rho^2 ||X|| / (1 - rho).
An h-set holds its data and no box methods: both its charts, v -> M v + x
and c on the verified inverse, are evaluated on lo/hi arrays by the one
linear-step kernel (`interval._linear_eval`), with one rounding analysis:
in `supports_disjoint` through `interval.affine_batch` and
`interval.imat_vec_batch`, and in a covering check through the kernels
that `covering._CellEngine` builds once per check.

The transpose and the reversor image of an h-set do not certify again.
Their direction matrix is M' = D M P, with D the identity or the reversor S
and P the permutation that swaps the unstable and stable column blocks. A
reversor is a signed permutation (LinearReversor), so D M is computed
exactly in floating point and M' is exactly D M P. As S is an involution,
inv(M') = P^T inv(M) D, and on the certified enclosure of inv(M) that is a
permutation of rows and columns and a negation of some columns, all exact
(S's action on the rows, LinearReversor.act, and a row permutation).
The image therefore encloses the exact inverse of the stored M' whenever the
source's enclosure does, and it cannot fail where a fresh proof might.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .interval import (
    DomainError,
    IMatrix,
    SingularMatrixError,
    _centered_image,
    affine_batch,
    imat_inverse,
    imat_vec_batch,
)


@dataclass(frozen=True)
class LinearReversor:
    """Linear involution S (S @ S = identity) that is a signed permutation:
    each row and each column holds one entry +1 or -1 and zeros elsewhere.

    Every product with S then moves or negates entries without rounding, so
    S(|N|), the fixed-space checks and the h-sets' derived inverses are
    exact. A general float involution is refused: its products round, and a
    rounded image of an h-set is not S(|N|). S's permutation `perm` and the
    mask `neg` of its negative entries are read off the matrix once; `act`
    applies S to intervals with them. Equality and the hash are those of
    the matrix, as for HSet.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise DomainError("reversor matrix must be square")
        nonzero = m != 0.0
        if not (np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1)
                and np.all(np.abs(m[nonzero]) == 1.0)):
            raise DomainError("reversor is not a signed permutation")
        if not np.array_equal(m @ m, np.eye(n)):
            raise DomainError("reversor is not an exact involution")
        # (S x)_i = sign_i x_perm(i); an involutive signed permutation is
        # symmetric, so column j too holds sign_j in row perm(j)
        perm = np.argmax(nonzero, axis=1)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "neg", m[np.arange(n), perm] < 0.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def act(self, lo, hi):
        """The image of the intervals [lo, hi] under S along the last axis,
        exact: each coordinate is moved, and a negated one has its bounds
        negated and swapped. On a cell batch that is S x for each cell; on
        each row of a matrix X it is X S, as S is symmetric."""
        lo, hi = lo[..., self.perm], hi[..., self.perm]
        return np.where(self.neg, -hi, lo), np.where(self.neg, -lo, hi)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)

    def fixes(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return np.array_equal(self.matrix @ x, x)

    def __eq__(self, other):
        if not isinstance(other, LinearReversor):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which == does not tell apart
        return hash((self.matrix + 0.0).tobytes())


def coordinate_reflection(n: int, negated: tuple[int, ...]) -> LinearReversor:
    """Reversor negating the listed coordinates, e.g. (0, 1) for a 4-d map."""
    d = np.ones(n)
    d[list(negated)] = -1.0
    return LinearReversor(np.diag(d))


class HSet:
    """Affine h-set with a certified inverse chart.

    Equality compares (center, direction columns, u, s); the name and any
    recorded decimal sources are metadata.
    """

    __slots__ = ("name", "center", "matrix", "u", "s", "inv_matrix", "decimal_source")

    def __init__(self, name: str, center, matrix, u: int, s: int, decimal_source=None):
        _fill(self, name, center, matrix, u, s, None, decimal_source)

    def __setattr__(self, *a):
        raise AttributeError("HSet is immutable")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def __eq__(self, other):
        if not isinstance(other, HSet):
            return NotImplemented
        return (
            self.u == other.u
            and self.s == other.s
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which == does not tell apart
        return hash(((self.center + 0.0).tobytes(), (self.matrix + 0.0).tobytes(),
                     self.u, self.s))

    def __repr__(self):
        return f"HSet({self.name!r}, dim={self.dim}, u={self.u}, s={self.s})"


def _fill(N: HSet, name, center, matrix, u, s, inv, decimal_source) -> None:
    """Validate and set N's fields; inv is None for a freshly certified
    inverse, or the exact image of a source's certified one (_swapped)."""
    center = np.asarray(center, dtype=float).copy()
    matrix = np.asarray(matrix, dtype=float).copy()
    n = center.shape[0]
    if u < 0 or s < 0 or u + s != n:
        raise DomainError(f"u + s must equal the dimension ({u}+{s} != {n})")
    if matrix.shape != (n, n):
        raise DomainError("direction matrix must be n x n")
    if not (np.isfinite(center).all() and np.isfinite(matrix).all()):
        raise DomainError("center and direction matrix must be finite")
    center.flags.writeable = False
    matrix.flags.writeable = False
    object.__setattr__(N, "name", str(name))
    object.__setattr__(N, "center", center)
    object.__setattr__(N, "matrix", matrix)
    object.__setattr__(N, "u", int(u))
    object.__setattr__(N, "s", int(s))
    # raises SingularMatrixError when no verified inverse exists
    object.__setattr__(N, "inv_matrix", imat_inverse(matrix) if inv is None else inv)
    object.__setattr__(N, "decimal_source", decimal_source)


def _swapped(N: HSet, name: str, center, S: LinearReversor | None = None) -> HSet:
    """The h-set with directions D M P and center `center`, for D = S (or
    the identity) and P the swap of the unstable and stable column blocks,
    its inverse taken from N's as P^T inv(M) D (see the module docstring):
    inv(M) S is S's exact action on the rows of inv(M) (LinearReversor.act),
    and row j of P^T X is row perm[j] of X.
    """
    perm = np.r_[N.u : N.dim, 0 : N.u]
    m, lo, hi = N.matrix, N.inv_matrix.lo, N.inv_matrix.hi
    if S is not None:
        m, (lo, hi) = S.matrix @ m, S.act(lo, hi)
    T = HSet.__new__(HSet)
    _fill(T, name, center, m[:, perm], N.s, N.u, IMatrix(lo[perm], hi[perm]), None)
    return T


def transpose(N: HSet) -> HSet:
    """Same support, unstable and stable roles swapped (column blocks
    permuted). Its inverse is N's with the rows permuted likewise: exact,
    so no residual test runs."""
    return _swapped(N, f"{N.name}^T", N.center)


def sym_image(S: LinearReversor, N: HSet) -> HSet:
    """Transposed symmetric image: support S(|N|), directions S M with the
    unstable and stable column blocks swapped. S is a signed permutation, so
    S M is exact and its inverse is N's with its columns permuted and
    negated as S's say, and its rows block-swapped: no residual test runs."""
    if S.dim != N.dim:
        raise DomainError("reversor dimension mismatch")
    return _swapped(N, canonical_sym_name(N.name), S.apply(N.center), S)


def canonical_sym_name(name: str) -> str:
    """The name of the symmetric transposed image of the h-set `name`:
    "S^T*" and the name, or the name without that prefix if it has it,
    as the image of an image is the h-set itself. The one place that
    spells the naming rule."""
    prefix = "S^T*"
    if name.startswith(prefix):
        return name[len(prefix) :]
    return prefix + name


@dataclass
class DiskCheck:
    ok: bool
    detail: str


def fix_disk_check(S: LinearReversor, N: HSet) -> DiskCheck:
    """Certify that the canonical diagonal disk b(p,q) = M (p,q,p,q) + x lies
    in the reversor's fixed space.

    Needs S(x) = x exactly and S(u_j) = s_j columnwise exactly; then
    S(b(p,q)) = b(p,q) algebraically, and the disk is simultaneously a
    horizontal and a vertical disk of N (its chart image is the diagonal
    (p,q,p,q), linearly homotopic to either core). No numerics required:
    S is a signed permutation, so S x and S M are exact.
    """
    if N.u != N.s:
        return DiskCheck(False, f"u={N.u} differs from s={N.s}")
    if not S.fixes(N.center):
        return DiskCheck(False, "center is not fixed by the reversor")
    su = S.matrix @ N.matrix[:, : N.u]
    for j in range(N.u):
        if not np.array_equal(su[:, j], N.matrix[:, N.u + j]):
            return DiskCheck(False, f"unstable column {j} does not map onto stable column {j}")
    return DiskCheck(True, "diagonal disk lies in the reversor's fixed space")


def _facet_cells_arrays(n: int, axes, resolution: int):
    """Initial grid cells on the facets {coord_axis = -1} and {coord_axis = +1}
    of the chart cube [-1, 1]^n for each listed axis, as (lo, hi) arrays of
    shape (cells, n), facet by facet.

    Each facet is split into resolution parts along every free coordinate;
    closed cells share facets, so the union covers the wall. The exit wall
    takes the unstable axes, the whole boundary all n axes.
    """
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    t = np.linspace(-1.0, 1.0, resolution + 1)
    los, his = [], []
    nfree = n - 1
    ncells = resolution**nfree
    for axis in axes:
        free = [i for i in range(n) if i != axis]
        idx = np.unravel_index(np.arange(ncells), (resolution,) * nfree) if nfree else ()
        for sign in (-1.0, 1.0):
            lo = np.empty((ncells, n))
            hi = np.empty((ncells, n))
            lo[:, axis] = sign
            hi[:, axis] = sign
            for j, c in enumerate(free):
                lo[:, c] = t[idx[j]]
                hi[:, c] = t[idx[j] + 1]
            los.append(lo)
            his.append(hi)
    return np.concatenate(los), np.concatenate(his)


def supports_disjoint(N: HSet, M: HSet) -> bool:
    """True only with a rigorous separation proof; False means inconclusive.

    Tries a separating ambient coordinate of the two supports' enclosing
    boxes M [-1, 1]^n + x first. Then it encloses each support in the
    other's chart, as p + T [-1, 1]^n with p the chart image of the source
    center and T = inv(M_dst) M_src, and looks for a chart coordinate clear
    of [-1, 1]. The source center, shifted by the target center, and the
    source's columns are the rows of one product with the target inverse,
    and p + T [-1, 1]^n is enclosed with one widening (_centered_image).
    """
    if N.dim != M.dim:
        raise DomainError("ambient dimension mismatch")
    cube = -np.ones((1, N.dim)), np.ones((1, N.dim))
    (alo, ahi), (blo, bhi) = (affine_batch(h.matrix, h.center, *cube) for h in (N, M))
    if np.any(ahi < blo) or np.any(bhi < alo):
        return True
    for src, dst in ((N, M), (M, N)):
        rows = np.vstack((src.center, src.matrix.T))
        shift = np.vstack((dst.center, np.zeros_like(src.matrix)))
        lo, hi = imat_vec_batch(dst.inv_matrix.lo, dst.inv_matrix.hi, rows, rows, shift)
        clo, chi = _centered_image(lo[:1], hi[:1], lo[None, 1:].transpose(0, 2, 1),
                                   hi[None, 1:].transpose(0, 2, 1), cube[1])
        if np.any(chi < -1.0) or np.any(clo > 1.0):
            return True
    return False


# --- file format: one JSON object per file, decimal strings preserved ---

def hset_to_dict(N: HSet) -> dict:
    return {
        "name": N.name,
        "center": [repr(float(x)) for x in N.center],
        "matrix": [[repr(float(x)) for x in row] for row in N.matrix],
        "u": N.u,
        "s": N.s,
    }


def hset_from_dict(d: dict) -> HSet:
    """The h-set of a file's JSON object. A malformed object, a center that
    is not an array or a matrix that is not an array of arrays, an entry
    that is neither a string nor a number (a bool is not a number), a name
    that is not a JSON string, u or s that is not a JSON integer, or a
    direction matrix without a verified inverse, raises DomainError."""
    try:
        if not (type(d["center"]) is list and type(d["matrix"]) is list
                and all(type(row) is list for row in d["matrix"])):
            raise DomainError("the center must be an array and the matrix an array of arrays")
        for x in (*d["center"], *(x for row in d["matrix"] for x in row)):
            if type(x) not in (str, int, float):  # not a bool, null, array or object
                raise DomainError(f"h-set entries must be numbers or strings, got {x!r}")
        center = [float(x) for x in d["center"]]
        matrix = [[float(x) for x in row] for row in d["matrix"]]
        source = {
            "center": [str(x) for x in d["center"]],
            "matrix": [[str(x) for x in row] for row in d["matrix"]],
        }
        name, u, s = d["name"], d["u"], d["s"]
        if type(name) is not str:
            raise DomainError(f"the name must be a string, got {name!r}")
        if not (type(u) is int and type(s) is int):  # not a float, str or bool
            raise DomainError(f"u and s must be integers, got {u!r} and {s!r}")
        return HSet(name, center, matrix, u, s, decimal_source=source)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"malformed h-set object: {e}") from e
    except SingularMatrixError as e:
        raise DomainError(f"h-set {d['name']!r} has no verified inverse: {e}") from e


def save_hset(N: HSet, path) -> None:
    _dump_json(path, hset_to_dict(N))


def _dump_json(path, value) -> None:
    """Write the JSON value to the file at path, the one JSON format of the
    package's files: indented by 2, keys sorted, one trailing newline."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    """The JSON value in the file at path. A file that is not UTF-8 or not
    JSON (UnicodeDecodeError and JSONDecodeError are both ValueErrors)
    raises DomainError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise DomainError(f"not valid JSON: {e}") from e


def load_hset(path) -> HSet:
    return hset_from_dict(_load_json(path))
