import math
from fractions import Fraction

import numpy as np
import pytest

from revcover import covering
from revcover.campaign import CampaignConfig, build_proof_data, run_campaign


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
            points = np.stack([mapsys.eval_point(z) for z in points])
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
