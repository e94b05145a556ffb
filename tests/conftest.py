import math
from fractions import Fraction

import numpy as np
import pytest

from revcover import covering
from revcover.campaign import INSTANCE_DATA, CampaignConfig, build_proof_data, run_campaign
from revcover.dynamics import reversible_quadratic_map
from revcover.interval import IMatrix, _exact, imat_vec_batch, imatmul_batch


def float_sweep(N, mapsys, k, M, rng, npts=10_000):
    """Independent nonrigorous oracle: sample the exit wall and the full
    boundary of N, push the points through map^k, and return the worst
    unstable and stable max-norms in M's chart.

    For a true covering the exit-wall images have unstable norm > 1 and the
    boundary images have stable norm < 1; a violation under a verified
    certificate is a bug.
    """
    n = N.dim

    def push(points):
        for _ in range(k):
            points = mapsys.image(points)
        return np.linalg.solve(M.matrix, (points - M.center).T).T

    wall = rng.uniform(-1, 1, size=(npts, n))
    wall[np.arange(npts), rng.integers(0, N.u, size=npts)] = rng.choice([-1.0, 1.0], size=npts)
    bnd = rng.uniform(-1, 1, size=(npts, n))
    bnd[np.arange(npts), rng.integers(0, n, size=npts)] = rng.choice([-1.0, 1.0], size=npts)
    wall_img = push(wall @ N.matrix.T + N.center)
    bnd_img = push(bnd @ N.matrix.T + N.center)
    exit_min = float(np.min(np.max(np.abs(wall_img[:, : M.u]), axis=1)))
    entry_max = float(np.max(np.max(np.abs(bnd_img[:, M.u :]), axis=1)))
    return exit_min, entry_max


def encloses(lo, hi, exact):
    """lo <= exact <= hi elementwise, for float bounds and exact Fraction
    values; an infinite bound encloses only on its own side, so a value past
    the float range needs an infinite bound there, and NaN encloses nothing."""
    for l, h, v in zip(np.ravel(lo).tolist(), np.ravel(hi).tolist(), exact):
        if not (l == -math.inf or (math.isfinite(l) and Fraction(l) <= v)):
            return False
        if not (h == math.inf or (math.isfinite(h) and v <= Fraction(h))):
            return False
    return True


def exact_inverse(A):
    """The inverse of a float matrix in exact rational arithmetic."""
    n = len(A)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(A.tolist())]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


# Boxes and interval matrices are (lo, hi) pairs of arrays; a point is a
# box of zero width, (x, x).

def cube(center, radius):
    """The box of the given center and radius in the max norm."""
    c = np.asarray(center, dtype=float)
    return c - radius, c + radius


def sample(box, rng, m):
    """m member points of the box, shape (m, n); endpoints included via clipping."""
    lo, hi = box
    u = rng.uniform(0.0, 1.0, size=(m, len(lo)))
    return np.clip(lo + u * (hi - lo), lo, hi)


def contains(X, x):
    """The box or matrix X, a (lo, hi) pair or an IMatrix, contains the
    point or point matrix x."""
    lo, hi = (X.lo, X.hi) if isinstance(X, IMatrix) else X
    x = np.asarray(x, dtype=float)
    return bool(np.all(lo <= x) and np.all(x <= hi))


def contains_box(a, b):
    return contains(a, b[0]) and contains(a, b[1])


def matmul(A, B):
    """The interval product of the matrices A (n, m) and B (m, k), (lo, hi)
    pairs: imatmul_batch on a batch of one."""
    lo, hi = imatmul_batch(A[0][None], A[1][None], B[0][None], B[1][None])
    return lo[0], hi[0]


def matvec(A, v):
    """The interval product of the matrix A and the box v: matmul with v as
    a column."""
    lo, hi = matmul(A, (v[0][:, None], v[1][:, None]))
    return lo[:, 0], hi[:, 0]


def eval_box(mapsys, b):
    """The map's enclosure of the image of the box b."""
    lo, hi = mapsys.eval_batch(b[0][None, :], b[1][None, :])
    return lo[0], hi[0]


def chart(N, v):
    """The h-set N's chart c(v) = M^{-1}(v - x) of the box v, rigorous: the
    chart's linear step on the verified inverse, with the center
    subtracted (imat_vec_batch)."""
    lo, hi = imat_vec_batch(N.inv_matrix.lo, N.inv_matrix.hi, v[0][None], v[1][None], N.center)
    return lo[0], hi[0]


def exact_affine(A, B, c=None):
    """c + A @ B in exact arithmetic, for finite float arrays A (N, n, m),
    B (N, m, k) and c (N, n, k) or none: an object array X of Python ints
    and an exponent e with c + A @ B == X * 2**e (interval._exact writes
    each float as an integer times a power of two)."""
    a, p = _exact(A)
    b, q = _exact(B)
    X, e = a @ b, p + q
    if c is not None:
        z, r = _exact(c)
        f = min(e, r)
        X, e = X * (1 << (e - f)) + z * (1 << (r - f)), f
    return X, e


def outside(lo, hi, X, e):
    """The number of entries of the exact values X * 2**e (exact_affine)
    that lie outside the finite float bounds [lo, hi] of their shape."""
    ends = _exact(lo, hi)
    f = min(e, ends[2])
    lo, hi = (k * (1 << (ends[2] - f)) for k in ends[:2])
    X = X * (1 << (e - f))
    return int(np.sum((X < lo) | (X > hi)))


def reversibility_residual(mapsys, z):
    """Float max-norm of (S o F o S o F)(z) - z."""
    S = mapsys.reversor.apply
    z = np.asarray(z, dtype=float)
    return float(np.max(np.abs(S(mapsys.image(S(mapsys.image(z)))) - z)))


def reversibility_encloses_identity(mapsys, b):
    """The enclosure of (S o F o S o F)(b) contains b."""
    S = (mapsys.reversor.matrix,) * 2
    return contains_box(matvec(S, eval_box(mapsys, matvec(S, eval_box(mapsys, b)))), b)


def fixed_point_equations_residual(P):
    """Residuals of the two fixed-point equations at a symmetric point
    (x1 = x2 = 0): y1^2 + (y2+1)^2 = 9 and (y1+1)^2 - y2^2 = 1."""
    y1, y2 = np.asarray(P, dtype=float)[2:]
    return y1**2 + (y2 + 1) ** 2 - 9.0, (y1 + 1) ** 2 - y2**2 - 1.0


def frame_vectors():
    """The instance's frame vectors by name, parsed from INSTANCE_DATA: the
    unstable u1_P1, u2_P1, u1_P2 and u2_P2, and their stable partners s1_P1,
    ..., the images under the reversor."""
    S = reversible_quadratic_map().reversor
    u = {k: np.array([float(x) for x in v]) for k, v in INSTANCE_DATA["eigenvectors"].items()}
    return {**u, **{"s" + k[1:]: S.apply(v) for k, v in u.items()}}


@pytest.fixture(scope="session")
def data():
    return build_proof_data()


@pytest.fixture(scope="session")
def campaign():
    """One full campaign run shared by the suite (report, graph)."""
    return run_campaign(CampaignConfig())


@pytest.fixture()
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture(autouse=True)
def _no_shared_pool_across_tests():
    """Shuts the process's worker pool down after each test, so a pool that
    one test patched in never serves the next."""
    yield
    covering._shutdown_pool()
