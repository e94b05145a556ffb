"""Map evaluation, derivative, inverse, orbits and reversibility identities."""

import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest

from revcover.dynamics import (
    MapSystem,
    MissingInverseError,
    _reversor_inverse,
    linear_map_system,
    map_by_name,
    reversible_quadratic_map,
)
from revcover.campaign import INSTANCE_DATA, RELATIONS, _q1_candidate_point
from revcover.covering import compute_degree
from revcover.hset import HSet, LinearReversor, sym_image, transpose
from revcover.interval import DomainError

from conftest import (
    chart,
    contains,
    contains_box,
    cube,
    encloses,
    eval_box,
    exact_inverse,
    fixed_point_equations_residual,
    frame_vectors,
    reversibility_encloses_identity,
    reversibility_residual,
    sample,
)


def _jac(mapsys, b):
    """The map's Jacobian enclosure over one box, a (lo, hi) pair."""
    jl, jh = mapsys.jac_batch(b[0][None, :], b[1][None, :])
    return jl[0], jh[0]


def _jac_mid(mapsys, z):
    """The midpoint of the map's Jacobian enclosure at the point z."""
    jl, jh = _jac(mapsys, (z, z))
    return 0.5 * (jl + jh)


def _f_box(b):
    """The enclosure of f over the box b of w, read off F's: at y = 0,
    w = x and the first two outputs of F are g(w) = f(w)/2."""
    F = reversible_quadratic_map()
    lo, hi = eval_box(F, tuple(np.concatenate([a, [0.0, 0.0]]) for a in b))
    return 2 * lo[:2], 2 * hi[:2]


def test_f_values():
    """f(0, 0) = (4, 4) and f(1, 1) = (3, 5), read off F's image at y = 0."""
    F = reversible_quadratic_map()
    for w, f in (([0.0, 0.0], [4.0, 4.0]), ([1.0, 1.0], [3.0, 5.0])):
        assert np.array_equal(2 * F.image(w + [0.0, 0.0])[:2], f)
        assert contains(_f_box((np.array(w), np.array(w))), f)


def test_f_interval_contains_samples(rng):
    box = np.zeros(2), np.ones(2)
    img = _f_box(box)
    for p in sample(box, rng, 100):
        assert encloses(*img, [2 * v for v in _g(*map(Fraction, p.tolist()))])


def test_F_at_origin():
    F = reversible_quadratic_map()
    assert np.array_equal(F.image(np.zeros(4)), [2.0, 2.0, 2.0, 2.0])
    assert contains(eval_box(F, (np.zeros(4),) * 2), [2, 2, 2, 2])


def _F_float(z):
    """F at the points z (B, 4) in float arithmetic, the formula written out
    in the order of operations of F's own evaluation."""
    x, y = z[:, :2], z[:, 2:]
    w = x + y
    g = 0.5 * np.stack([w[:, 0] * (1 - w[:, 0]) + 4 - w[:, 1],
                        w[:, 1] * (1 - w[:, 1]) + 4 + w[:, 0]], axis=1)
    return np.concatenate([-y + g, x + g], axis=1)


def test_image_matches_the_float_formula(data, rng):
    """F.image and F.inverse.image (S F S) are the float formula's values bit
    for bit along each map's 10-step orbits from both Q1 candidates. At
    seeded random points they lie in eval_batch's enclosure and within a few
    ulps of the formula."""
    F = data.mapsys
    s = np.diag(data.reversor.matrix)
    q = np.stack([_q1_candidate_point(data.hset("N1").center, frame_vectors(), terms)
                  for terms in INSTANCE_DATA["q1_candidates"].values()])
    z = rng.uniform(-5, 5, size=(20_000, 4))
    for m, formula in ((F, _F_float), (F.inverse, lambda p: s * _F_float(s * p))):
        orbit = q
        for _ in range(10):
            step = m.image(orbit)
            assert np.array_equal(step.view(np.int64), formula(orbit).view(np.int64))
            orbit = step
        img, want = m.image(z), formula(z)
        lo, hi = m.eval_batch(z, z)
        assert np.all(lo <= img) and np.all(img <= hi)
        assert np.all(np.abs(img - want) <= 4 * np.spacing(np.abs(want)))


def test_fixed_points_nearly_fixed(data):
    F = data.mapsys
    for P in (data.hset("N1").center, data.hset("N2").center):
        assert np.max(np.abs(F.image(P) - P)) < 1e-10


def test_inverse_round_trip_boxes(rng):
    F = reversible_quadratic_map()
    for _ in range(1000):
        z = rng.uniform(-5, 5, size=4)
        img = eval_box(F.inverse, eval_box(F, (z, z)))
        assert contains(img, z)


def test_inverse_consistency_on_small_boxes(rng):
    F = reversible_quadratic_map()
    for _ in range(100):
        c = rng.uniform(-3, 3, size=4)
        box = cube(c, 1e-3)
        assert contains_box(eval_box(F.inverse, eval_box(F, box)), box)


def test_derivative_at_origin():
    # Df(0) = [[1,-1],[1,1]]; DF(0) assembles from its half
    J = _jac(reversible_quadratic_map(), (np.zeros(4),) * 2)
    expected = np.array(
        [
            [0.5, -0.5, -0.5, -0.5],
            [0.5, 0.5, 0.5, -0.5],
            [1.5, -0.5, 0.5, -0.5],
            [0.5, 1.5, 0.5, 0.5],
        ]
    )
    assert contains(J, expected)
    assert float(np.max(J[1] - J[0])) < 1e-14


def test_derivative_finite_differences(rng):
    F = reversible_quadratic_map()
    h = 1e-6
    for _ in range(100):
        z = rng.uniform(-3, 3, size=4)
        J = _jac_mid(F, z)
        fd = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, j] = (F.image(z + e) - F.image(z - e)) / (2 * h)
        assert np.max(np.abs(J - fd)) < 1e-5


def test_inverse_derivative_matches_matrix_inverse(rng):
    F = reversible_quadratic_map()
    for _ in range(50):
        z = rng.uniform(-2, 2, size=4)
        w = F.image(z)
        J = _jac_mid(F, z)
        Ji = _jac_mid(F.inverse, w)
        assert np.max(np.abs(Ji @ J - np.eye(4))) < 1e-9


def test_interval_jacobian_contains_members(rng):
    F = reversible_quadratic_map()
    for _ in range(30):
        c = rng.uniform(-2, 2, size=4)
        box = cube(c, 0.1)
        J = _jac(F, box)
        for p in sample(box, rng, 30):
            assert contains(J, _jac_mid(F, p))


def test_q_point_orbit_constraints(data):
    F = data.mapsys
    Q1 = data.hset("H1").center
    box = Q1, Q1
    for _ in range(10):
        box = eval_box(F, box)
    assert np.max(np.abs(0.5 * (box[0] + box[1]) - data.hset("N2").center)) < 0.001
    back = F.inverse.image(Q1)
    assert np.max(np.abs(back - data.hset("N1").center)) < 0.006
    # the backward image lies in the support of the first anchor set
    lo, hi = chart(data.hset("N1"), (back, back))
    assert np.all(lo >= -1.0) and np.all(hi <= 1.0)


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@pytest.mark.parametrize("relation", [*RELATIONS, "cross-check"],
                         ids=[f"{a}-{b}-{k}" for a, b, k, _ in RELATIONS] + ["cross-check"])
def test_orbit_derivative_product(data, relation):
    """The chart derivative of each campaign relation, and of the
    cross-check's transposed relation under F^-1, encloses the exact chain
    inv(M_M) DF(z_{k-1}) ... DF(z_0) M_N along the exact orbit z_0 = x_N,
    and the exact unstable block's determinant sign is the certified w."""
    if relation == "cross-check":
        S = data.reversor
        N = transpose(sym_image(S, data.hset("H2")))
        M = transpose(sym_image(S, data.hset("H3")))
        mapsys, k, w, exact_map, inverse = data.mapsys.inverse, 1, None, _exact_F_inverse, True
    else:
        a, b, k, w = relation
        N, M = data.hset(a), data.hset(b)
        mapsys, exact_map, inverse = data.mapsys, _exact_F, False
    degree = compute_degree(N, mapsys, k, M)
    z = [Fraction(x) for x in N.center.tolist()]
    acc = [[Fraction(v) for v in row] for row in N.matrix.tolist()]
    for _ in range(k):
        acc = _matmul(_exact_jacobian(z, inverse), acc)
        z = exact_map(*z)
    exact = _matmul(exact_inverse(M.matrix), acc)
    D = degree.chart_derivative
    assert encloses(D.lo, D.hi, [v for row in exact for v in row])
    assert N.u == 2
    det = exact[0][0] * exact[1][1] - exact[0][1] * exact[1][0]
    assert det != 0 and (1 if det > 0 else -1) == degree.w
    assert w is None or degree.w == w


def test_enclosure_blowup_reported():
    """A center orbit that overflows is a DomainError, not a degree."""
    N = HSet("far", np.array([1e200, 0.0, 0.0, 0.0]), np.eye(4), 2, 2)
    with pytest.raises(DomainError, match="left the representable range at step 1"):
        compute_degree(N, reversible_quadratic_map(), 400, N)


def test_reversibility_at_origin():
    F = reversible_quadratic_map()
    assert reversibility_residual(F, np.zeros(4)) < 1e-12


def test_reversibility_sweep(rng):
    F = reversible_quadratic_map()
    worst = 0.0
    for _ in range(10_000):
        z = rng.uniform(-5, 5, size=4)
        worst = max(worst, reversibility_residual(F, z))
    assert worst < 1e-9


def test_reversibility_interval_identity(rng):
    F = reversible_quadratic_map()
    assert reversibility_encloses_identity(F, cube(np.zeros(4), 1.0))
    for _ in range(100):
        c = rng.uniform(-3, 3, size=4)
        assert reversibility_encloses_identity(F, cube(c, 0.05))


def test_fixed_point_equations(data):
    for name in ("N1", "N2"):
        r1, r2 = fixed_point_equations_residual(data.hset(name).center)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9
    r1, r2 = fixed_point_equations_residual([0.0, 0.0, 3.0, -1.0])
    assert r1 == 0.0 and r2 == 14.0


def test_linear_map_system(rng):
    A = np.diag([3.0, 1.0 / 3.0])
    m = linear_map_system(A, np.diag([1.0 / 3.0, 3.0]), name="toy")
    z = rng.uniform(-1, 1, size=2)
    assert np.allclose(m.image(z), A @ z)
    assert m.inverse.inverse is m
    assert (m.name, m.inverse.name) == ("toy", "toy-inverse")
    assert np.allclose(m.inverse.image(m.image(z)), z)


def test_map_registry():
    F = map_by_name("F")
    assert F.name == "F-quadratic-4d"
    assert F.inverse.inverse is F
    for name in ("F-inverse", "F-quadratic-4d-inverse"):
        inv = map_by_name(name)
        assert inv.name == "F-quadratic-4d-inverse"
        assert inv.inverse.inverse is inv
    with pytest.raises(KeyError):
        map_by_name("unknown-map")
    bare = linear_map_system(np.eye(2))
    with pytest.raises(MissingInverseError):
        bare.require_inverse()


def _same_kernels(a, b, rng):
    """a and b agree bit for bit on random points, cells and Jacobians."""
    z = rng.uniform(-2, 2, size=(8, a.dim))
    lo, hi = z - rng.uniform(0, 0.1, size=z.shape), z + rng.uniform(0, 0.1, size=z.shape)
    assert np.array_equal(a.image(z), b.image(z))
    for x, y in zip(a.eval_batch(lo, hi), b.eval_batch(lo, hi)):
        assert np.array_equal(x, y)
    for x, y in zip(a.jac_batch(lo, hi), b.jac_batch(lo, hi)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("which", ["F", "F-inverse", "linear"])
def test_maps_pickle_by_value(which, rng):
    """The bundled maps pickle as themselves: the copy's kernels match the
    original's bit for bit, and the inverse links and reversor survive."""
    if which == "linear":
        A = np.array([[2.0, 0.5], [0.0, 0.5]])
        m = linear_map_system(A, np.linalg.inv(A), name="toy")
    else:
        m = map_by_name(which)
    c = pickle.loads(pickle.dumps(m))
    assert c is not m and c.name == m.name
    assert c.inverse.inverse is c
    assert c.inverse.name == m.inverse.name
    if m.reversor is not None:
        assert np.array_equal(c.reversor.matrix, m.reversor.matrix)
    _same_kernels(c, m, rng)
    _same_kernels(c.inverse, m.inverse, rng)


def _signed_permutation_image(S, lo, hi):
    """The exact image of the intervals [lo, hi] under the signed
    permutation S along the last axis, from the matrix: with S = P - Q for
    its positive and negative parts, S [lo, hi] = [P lo - Q hi, P hi - Q lo],
    every sum a single product with an exact zero added."""
    P, Q = np.maximum(S.matrix, 0.0), np.maximum(-S.matrix, 0.0)
    return lo @ P.T - hi @ Q.T, hi @ P.T - lo @ Q.T


def _swap_cases():
    """A 2-d swap with A = diag(2, 1/2), so that S A S = inv(A) exactly, and
    a 4-d signed permutation x1 <-> -y1 under F's kernels."""
    swap = LinearReversor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    A = np.diag([2.0, 0.5])
    F = reversible_quadratic_map()
    signed = LinearReversor(np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                      [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    return [linear_map_system(A, reversor=swap),
            MapSystem("F-signed", 4, F.eval_batch, F.jac_batch, reversor=signed)]


@pytest.mark.parametrize("case", [0, 1], ids=["swap-2d", "signed-4d"])
def test_reversor_inverse_of_signed_permutations_is_exact(case, rng):
    """S o F o S takes values S F(S x) and Jacobian S DF(S x) S, bit for bit
    as the matrix products with S's positive and negative parts give them,
    for a reversor that is not diagonal; for the swap, S A S is inv(A)."""
    fwd = _swap_cases()[case]
    S = fwd.reversor
    inv = _reversor_inverse(fwd, "conjugate")
    assert inv.inverse is fwd and fwd.inverse is inv
    z = rng.uniform(-2, 2, size=(16, fwd.dim))
    r = rng.uniform(0, 0.1, size=z.shape)
    r[:4] = 0.0  # point cells too
    lo, hi = z - r, z + r
    vlo, vhi = inv.eval_batch(lo, hi)
    wlo, whi = _signed_permutation_image(S, *fwd.eval_batch(*_signed_permutation_image(S, lo, hi)))
    assert np.array_equal(vlo, wlo) and np.array_equal(vhi, whi)
    jlo, jhi = inv.jac_batch(lo, hi)
    glo, ghi = fwd.jac_batch(*_signed_permutation_image(S, lo, hi))
    # S G S: S on the rows of each G^T (G S), then on the rows of (G S)^T
    glo, ghi = _signed_permutation_image(S, glo, ghi)
    glo, ghi = _signed_permutation_image(S, glo.transpose(0, 2, 1), ghi.transpose(0, 2, 1))
    assert np.array_equal(jlo, glo.transpose(0, 2, 1))
    assert np.array_equal(jhi, ghi.transpose(0, 2, 1))
    if case == 0:
        assert np.array_equal(jlo, np.broadcast_to(np.diag([0.5, 2.0]), jlo.shape))
        assert np.array_equal(jhi, jlo)
        exact = z[:4] * [0.5, 2.0]  # inv(A) z, exact for powers of two
        assert np.all(vlo[:4] <= exact) and np.all(exact <= vhi[:4])


# --- exact reference formulas, independent of revcover.dynamics ---

HALF = Fraction(1, 2)


def _g(w1, w2):
    return (w1 * (1 - w1) + 4 - w2) * HALF, (w2 * (1 - w2) + 4 + w1) * HALF


def _exact_F(x1, x2, y1, y2):
    g1, g2 = _g(x1 + y1, x2 + y2)
    return [-y1 + g1, -y2 + g2, x1 + g1, x2 + g2]


def _exact_F_inverse(X1, X2, Y1, Y2):
    # closed form: x + y = Y - X, so x = Y - g(Y - X) and y = g(Y - X) - X
    g1, g2 = _g(Y1 - X1, Y2 - X2)
    return [Y1 - g1, Y2 - g2, g1 - X1, g2 - X2]


def _exact_jacobian(z, inverse):
    """DF = [[Dg, Dg - I], [Dg + I, Dg]] at w = x + y; differentiating the
    closed form gives D(F^-1) = [[Dg, I - Dg], [-(Dg + I), Dg]] at w = Y - X,
    where Dg = [[1/2 - w1, -1/2], [1/2, 1/2 - w2]]."""
    x, y = z[:2], z[2:]
    w = [y[i] - x[i] for i in range(2)] if inverse else [x[i] + y[i] for i in range(2)]
    sign = -1 if inverse else 1
    Dg = [[HALF - w[0], -HALF], [HALF, HALF - w[1]]]
    eye = [[1, 0], [0, 1]]
    top = [Dg[i] + [sign * (Dg[i][j] - eye[i][j]) for j in range(2)] for i in range(2)]
    bottom = [[sign * (Dg[i][j] + eye[i][j]) for j in range(2)] + Dg[i] for i in range(2)]
    return top + bottom


def test_map_kernels_exact_oracle(rng):
    """eval_batch and jac_batch of F and F^-1 enclose the exact values at the
    corners and at interior points of random cells, with zero-width cells and
    widths down to 1e-12, and image is within rounding of them. The F^-1
    reference is the closed-form inverse, not the reversor conjugate the map
    system uses."""
    F = reversible_quadratic_map()
    nb = 60
    lo = rng.uniform(-3, 3, size=(nb, 4))
    width = 10.0 ** rng.uniform(-12, 0, size=(nb, 4))
    width[rng.uniform(size=(nb, 4)) < 0.2] = 0.0
    width[:5] = 0.0
    hi = lo + width
    corners = np.array(list(itertools.product((False, True), repeat=4)))
    for m, exact, inverse in ((F, _exact_F, False), (F.inverse, _exact_F_inverse, True)):
        elo, ehi = m.eval_batch(lo, hi)
        jlo, jhi = m.jac_batch(lo, hi)
        for i in range(nb):
            inner = np.clip(lo[i] + rng.uniform(size=(4, 4)) * width[i], lo[i], hi[i])
            for p in np.concatenate([np.where(corners, hi[i], lo[i]), inner]):
                z = [Fraction(x) for x in p.tolist()]
                value = exact(*z)
                assert encloses(elo[i], ehi[i], value)
                assert np.allclose(m.image(p), [float(v) for v in value],
                                   rtol=1e-14, atol=1e-13)
                J = _exact_jacobian(z, inverse)
                assert encloses(jlo[i], jhi[i], [v for row in J for v in row])
