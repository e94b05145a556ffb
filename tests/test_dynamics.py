"""Map evaluation, derivative, inverse, orbits and reversibility identities."""

import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest

from revcover.dynamics import (
    _F_DATA,
    MapSystem,
    _reversor_inverse,
    linear_map_system,
    map_by_name,
    reversible_quadratic_map,
)
from revcover.campaign import INSTANCE_DATA, RELATIONS
from revcover.covering import compute_degree
from revcover.hset import HSet, LinearReversor, coordinate_reflection, sym_image, transpose
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
    """F at the points z (B, 4) in float arithmetic: its completed square
    c + A z + C (B z + b)**2, each coordinate summed in the order of
    operations of F's own evaluation, the constant first and then the
    nonzero terms column by column (the shift B z + b likewise)."""
    A, c, B, b, C = (np.asarray(_F_DATA[k], dtype=float) for k in "AcBbC")

    def rows(M, x, const):
        out = np.empty((len(x), len(M)))
        for i, row in enumerate(M):
            acc = np.full(len(x), const[i])
            for j in np.flatnonzero(row):
                acc = acc + row[j] * x[:, j]
            out[:, i] = acc
        return out

    s = rows(B, z, b)
    return rows(np.hstack([A, C]), np.hstack([z, s * s]), c)


# Two readings of the paper's Q1 formula: the instance's same-frame one, and
# the mixed-frame one, u1_P2 in place of u2_P1, whose forward orbit reaches
# 1e25 in ten steps (the large values of test_image_matches_the_float_formula)
Q1_READINGS = (INSTANCE_DATA["Q1"],
               [["u1_P1", "0.0330092432"], ["u1_P2", "-0.048949"], ["s1_P1", "0.0004931"]])


def test_image_matches_the_float_formula(data, rng):
    """F.image and F.require_inverse().image (S F S) are the float formula's values bit
    for bit along each map's 10-step orbits from both readings of Q1, each
    summed as P1 + t1 + t2 + t3 from the left. At seeded random points they
    lie in eval_batch's enclosure and within a few ulps of the formula."""
    F = data.mapsys
    s = np.diag(data.reversor.matrix)
    vectors = frame_vectors()
    q = np.stack([sum((float(c) * vectors[v] for v, c in terms), data.hset("N1").center)
                  for terms in Q1_READINGS])
    z = rng.uniform(-5, 5, size=(20_000, 4))
    for m, formula in ((F, _F_float), (F.require_inverse(), lambda p: s * _F_float(s * p))):
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
        img = eval_box(F.require_inverse(), eval_box(F, (z, z)))
        assert contains(img, z)


def test_inverse_consistency_on_small_boxes(rng):
    F = reversible_quadratic_map()
    for _ in range(100):
        c = rng.uniform(-3, 3, size=4)
        box = cube(c, 1e-3)
        assert contains_box(eval_box(F.require_inverse(), eval_box(F, box)), box)


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
        Ji = _jac_mid(F.require_inverse(), w)
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
    back = F.require_inverse().image(Q1)
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
        mapsys, k, w = data.mapsys.require_inverse(), 1, None
        exact_map, inverse = _exact_F_inverse, True
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


SWAP = LinearReversor(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _same_data(a, b):
    """a and b hold the same data, bit for bit, and the same reversor."""
    assert a.reversor == b.reversor
    for k in "AcBbC":
        assert getattr(a, k).tobytes() == getattr(b, k).tobytes()


def test_linear_map_system(rng):
    """z -> A z, and with the swap for A = diag(4, 1/4) its inverse
    S A S = inv(A), named by the rule X <-> X-inverse; the inverse's
    inverse has the map's data."""
    A = np.diag([4.0, 0.25])
    m = linear_map_system(A, name="toy", reversor=SWAP)
    z = rng.uniform(-1, 1, size=2)
    assert np.allclose(m.image(z), A @ z)
    inv = m.require_inverse()
    assert (m.name, inv.name, inv.require_inverse().name) == ("toy", "toy-inverse", "toy")
    assert np.array_equal(inv.A, np.diag([0.25, 4.0]))
    _same_data(inv.require_inverse(), m)
    assert np.allclose(inv.image(m.image(z)), z)


def test_map_registry():
    """F and its inverse under two names each, the inverse derived by
    require_inverse; the inverse's inverse has F's data."""
    F = map_by_name("F")
    assert F.name == "F-quadratic-4d"
    for name in ("F-inverse", "F-quadratic-4d-inverse"):
        inv = map_by_name(name)
        assert inv.name == "F-quadratic-4d-inverse"
        _same_data(inv, F.require_inverse())
        assert inv.require_inverse().name == "F-quadratic-4d"
        _same_data(inv.require_inverse(), F)
    with pytest.raises(DomainError):
        map_by_name("unknown-map")
    bare = linear_map_system(np.eye(2))
    with pytest.raises(DomainError):
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


def _pickled_case(which):
    if which == "linear":
        return linear_map_system(np.diag([4.0, 0.25]), name="toy", reversor=SWAP)
    return map_by_name(which)


@pytest.mark.parametrize("which", ["F", "F-inverse", "linear"])
def test_maps_pickle_by_value(which, rng):
    """The maps pickle as themselves: the copy has the original's name,
    data and reversor, its kernels match the original's bit for bit, and
    so do those of the inverse that require_inverse derives from it."""
    m = _pickled_case(which)
    c = pickle.loads(pickle.dumps(m))
    assert c is not m and c.name == m.name
    _same_data(c, m)
    _same_kernels(c, m, rng)
    assert c.require_inverse().name == m.require_inverse().name
    _same_kernels(c.require_inverse(), m.require_inverse(), rng)


@pytest.mark.parametrize("which", ["F", "F-inverse", "linear"])
def test_pickled_map_holds_its_data_only(which):
    """A map pickles its name, data and reversor, and neither its derived
    kernel nor an inverse: the pickle of F is under 1,400 bytes (1,066
    with numpy 2)."""
    m = _pickled_case(which)
    assert m.__getstate__().keys() == {"name", "A", "c", "B", "b", "C", "reversor"}
    assert len(pickle.dumps(m)) < 1400


def test_unpickled_map_arrays_are_read_only():
    """Unpickling checks the data as the constructor does: the copy's arrays,
    and those of the inverse derived from it, are read-only, and a state
    with malformed data raises DomainError."""
    c = pickle.loads(pickle.dumps(reversible_quadratic_map()))
    for g in (c, c.require_inverse()):
        for k in "AcBbC":
            assert not getattr(g, k).flags.writeable
    with pytest.raises(ValueError):
        c.A[0, 0] = 1.0
    state = c.__getstate__()
    state["A"] = np.eye(3)
    with pytest.raises(DomainError):
        MapSystem.__new__(MapSystem).__setstate__(state)


def test_unpickled_map_derives_the_same_kernel():
    """The kernel that unpickling derives is the original's, matrix for
    matrix and bit for bit, for F and for the inverse derived from it."""
    F = reversible_quadratic_map()
    c = pickle.loads(pickle.dumps(F))
    for g, h in ((c, F), (c.require_inverse(), F.require_inverse())):
        assert g.kernel is not h.kernel and g.kernel._fields == h.kernel._fields
        for x, y in zip(g.kernel, h.kernel):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _swap_cases():
    """A 2-d swap with A = diag(2, 1/2), so that S A S = inv(A) exactly, and
    F's data under a 4-d signed permutation x1 <-> -y1."""
    signed = LinearReversor(np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                      [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    return [linear_map_system(np.diag([2.0, 0.5]), reversor=SWAP),
            MapSystem("F-signed", **_F_DATA, reversor=signed)]


def _fractions(M):
    """The entries of M as Fractions, a list of rows (a vector is one row)."""
    return [[Fraction(x) for x in row] for row in np.atleast_2d(M).tolist()]


def _data(m):
    return {k: getattr(m, k) for k in "AcBbC"}


def _conjugated(m):
    """The data (S A S, S c, B S, b, S C) of m and its reversor S, in
    Fractions."""
    P, d = _fractions(m.reversor.matrix), {k: _fractions(v) for k, v in _data(m).items()}
    # c and b are rows here, so S c is c S, as S is symmetric
    return {"A": _matmul(_matmul(P, d["A"]), P), "c": _matmul(d["c"], P),
            "B": _matmul(d["B"], P), "b": d["b"], "C": _matmul(P, d["C"])}


@pytest.mark.parametrize("case", [0, 1], ids=["swap-2d", "signed-4d"])
def test_reversor_inverse_of_signed_permutations_is_exact(case, rng):
    """S o F o S is the quadratic map with the data (S A S, S c, B S, b, S C),
    exactly, for reversors that are not diagonal, and its kernels enclose
    the exact values S F(S z) and Jacobians S DF(S z) S, computed in
    Fractions from F's data; for the swap, S A S is inv(A). It is named
    X-inverse, and conjugating it again gives F's data and name back."""
    fwd = _swap_cases()[case]
    S = fwd.reversor
    inv = _reversor_inverse(fwd)
    assert inv.reversor is S and inv.name == f"{fwd.name}-inverse"
    want = _conjugated(fwd)
    for k in "AcBbC":
        assert _fractions(getattr(inv, k)) == want[k]
    back = _reversor_inverse(inv)
    assert back.name == fwd.name
    _same_data(back, fwd)
    P = _fractions(S.matrix)

    def exact(z):
        value, J = _exact_form(_data(fwd), _matmul([z], P)[0])
        return _matmul([value], P)[0], _matmul(_matmul(P, J), P)

    _assert_kernels_enclose(inv, exact, rng)
    if case == 0:
        assert np.array_equal(inv.A, np.diag([0.5, 2.0]))


@pytest.mark.parametrize("case", ["F", "henon"])
def test_reversor_inverse_inverts_exactly(case, rng):
    """F^-1(F(z)) = z and F(F^-1(z)) = z in exact arithmetic from the two
    maps' data, at random rational points, for F and a Henon map with the
    swap reversor."""
    if case == "F":
        fwd = reversible_quadratic_map()
    else:
        fwd = MapSystem("henon", **_henon(1.4), reversor=SWAP)
    inv = fwd.require_inverse()
    for _ in range(50):
        z = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-1000, 1000, fwd.dim),
                                                         rng.integers(1, 1000, fwd.dim))]
        for a, b in ((fwd, inv), (inv, fwd)):
            assert _exact_form(_data(b), _exact_form(_data(a), z)[0])[0] == z


def test_require_inverse_refuses_a_reflection_that_does_not_reverse():
    """F with x1 alone negated is refused: S o F o S o F moves a point of
    the unisolvent set."""
    m = MapSystem("F-x1", **_F_DATA, reversor=coordinate_reflection(4, (0,)))
    with pytest.raises(DomainError, match="does not reverse map 'F-x1'"):
        m.require_inverse()


def test_require_inverse_refuses_data_one_ulp_off(rng):
    """F with c[0] one ulp above 17/8 is refused under F's own reversor,
    although at 1,000 random float points S o F o S o F is the identity to
    within test_reversibility_sweep's 1e-9: the exact proof sees what the
    samples cannot."""
    c = np.array(_F_DATA["c"])
    c[0] = np.nextafter(17 / 8, 3)
    m = MapSystem("F-ulp", **{**_F_DATA, "c": c}, reversor=coordinate_reflection(4, (0, 1)))
    assert max(reversibility_residual(m, z) for z in rng.uniform(-5, 5, size=(1000, 4))) < 1e-9
    with pytest.raises(DomainError, match="does not reverse map 'F-ulp'"):
        m.require_inverse()


@pytest.mark.parametrize("case", ["henon", "swap-2d"])
def test_require_inverse_accepts_exact_reversors(case):
    """The Henon map and the 2-d toy diag(2, 1/2), each with the swap, pass
    the proof, and each inverse has the data (S A S, S c, B S, b, S C)
    exactly, and the reversor S."""
    fwd = MapSystem("henon", **_henon(1.4), reversor=SWAP) if case == "henon" else _swap_cases()[0]
    inv = fwd.require_inverse()
    assert inv.reversor == fwd.reversor
    want = _conjugated(fwd)
    for k in "AcBbC":
        assert _fractions(getattr(inv, k)) == want[k]


def test_diagonal_reversor_inverse_is_the_conjugation_bit_for_bit(rng):
    """For F's diagonal reversor, the kernels of S o F o S from its data
    give bit for bit S.act o F o S.act and S DF(S z) S, the conjugation of
    F's own kernels, on cells, point cells and cells that are not finite:
    the inverse's bounds, and the pins that follow from them, are those of
    the conjugated map."""
    F = reversible_quadratic_map()
    S, inv = F.reversor, F.require_inverse()
    z = rng.uniform(-3, 3, size=(400, 4))
    r = rng.uniform(0, 0.2, size=z.shape)
    r[:50] = 0.0
    lo, hi = z - r, z + r
    lo[50:55, 0], hi[55:60, 2], lo[60:65, 3] = -np.inf, np.inf, np.nan
    with np.errstate(invalid="ignore"):
        got = [*inv.eval_batch(lo, hi), *inv.jac_batch(lo, hi)]
        vlo, vhi = S.act(*F.eval_batch(*S.act(lo, hi)))
        glo, ghi = F.jac_batch(*S.act(lo, hi))
    # S G S: S on the rows of each G^T (G S), then on the rows of (G S)^T
    for _ in range(2):
        glo, ghi = (a.transpose(0, 2, 1) for a in S.act(glo, ghi))
    for g, w in zip(got, (vlo, vhi, glo, ghi)):
        assert g.tobytes() == w.tobytes()


def test_map_is_its_data(rng):
    """A map holds read-only copies of its data and derives its kernel from
    them: a map made by dataclasses.replace derives its own kernel; maps
    compare by identity."""
    from dataclasses import replace

    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    m = linear_map_system(A)
    A[0, 0] = 5.0
    assert m.A[0, 0] == 2.0 and not m.A.flags.writeable
    shifted = replace(m, c=[1.0, -1.0])
    assert shifted.kernel is not m.kernel
    z = rng.uniform(-1, 1, size=(5, 2))
    assert np.allclose(shifted.image(z), m.image(z) + [1.0, -1.0])
    F = reversible_quadratic_map()
    assert F == F and F != reversible_quadratic_map()


@pytest.mark.parametrize("kernel", ["eval_batch", "jac_batch", "image"])
def test_cells_of_another_width_are_refused(kernel):
    """Cells whose width is not the map's dimension, or whose lower and
    upper bounds differ in shape, raise DomainError in every kernel."""
    F = reversible_quadratic_map()
    f = getattr(F, kernel)
    three, four = np.zeros((2, 3)), np.zeros((2, 4))
    cases = [(three,), (np.zeros(3),)] if kernel == "image" else [
        (three, three), (four, three), (np.zeros(4), np.zeros(4))]
    for args in cases:
        with pytest.raises(DomainError, match="'F-quadratic-4d' takes cells of shape"):
            f(*args)


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


def _exact_form(data, z):
    """A z + c + C (B z + b)**2 and A + 2 C diag(B z + b) B at the point z
    (Fractions) in exact arithmetic, for the float data of a quadratic map;
    the Jacobian as a list of rows."""
    A, c, B, b, C = ([[Fraction(x) for x in row] for row in np.atleast_2d(data[k]).tolist()]
                     for k in "AcBbC")
    s = [b[0][k] + sum(x * v for x, v in zip(B[k], z)) for k in range(len(B))]
    value = [c[0][i] + sum(x * v for x, v in zip(A[i], z))
             + sum(x * sk * sk for x, sk in zip(C[i], s)) for i in range(len(z))]
    jac = [[A[i][j] + 2 * sum(C[i][k] * s[k] * B[k][j] for k in range(len(s)))
            for j in range(len(z))] for i in range(len(z))]
    return value, jac


def test_F_data_is_F(rng):
    """F's five arrays reproduce F and its Jacobian (the closed formulas
    below) exactly, at 100 random rational points: two quadratic maps that
    agree at that many generic points are the same map."""
    for _ in range(100):
        z = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-1000, 1000, 4),
                                                         rng.integers(1, 1000, 4))]
        value, jac = _exact_form(_F_DATA, z)
        assert value == _exact_F(*z)
        assert jac == _exact_jacobian(z, False)


def _assert_kernels_enclose(m, exact, rng, nb=60):
    """eval_batch and jac_batch of m enclose exact(z) = (value, Jacobian
    rows) at the corners and at interior points of random cells, with
    zero-width cells and widths down to 1e-12, and image is within rounding
    of the value."""
    n = m.dim
    lo = rng.uniform(-3, 3, size=(nb, n))
    width = 10.0 ** rng.uniform(-12, 0, size=(nb, n))
    width[rng.uniform(size=(nb, n)) < 0.2] = 0.0
    width[:5] = 0.0
    hi = lo + width
    corners = np.array(list(itertools.product((False, True), repeat=n)))
    elo, ehi = m.eval_batch(lo, hi)
    jlo, jhi = m.jac_batch(lo, hi)
    for i in range(nb):
        inner = np.clip(lo[i] + rng.uniform(size=(4, n)) * width[i], lo[i], hi[i])
        for p in np.concatenate([np.where(corners, hi[i], lo[i]), inner]):
            value, J = exact([Fraction(x) for x in p.tolist()])
            assert encloses(elo[i], ehi[i], value)
            assert np.allclose(m.image(p), [float(v) for v in value], rtol=1e-14, atol=1e-13)
            assert encloses(jlo[i], jhi[i], [v for row in J for v in row])


def test_map_kernels_exact_oracle(rng):
    """eval_batch and jac_batch of F and F^-1 enclose the exact values at the
    corners and at interior points of random cells, with zero-width cells and
    widths down to 1e-12, and image is within rounding of them. The F^-1
    reference is the closed-form inverse, not the reversor conjugate the map
    system uses."""
    F = reversible_quadratic_map()
    for m, exact, inverse in ((F, _exact_F, False), (F.require_inverse(), _exact_F_inverse, True)):
        _assert_kernels_enclose(m, lambda z: (exact(*z), _exact_jacobian(z, inverse)), rng)


def _henon(a):
    """The area-preserving Henon map (x, y) -> (y, -x + a - y**2) as data."""
    return dict(A=[[0.0, 1.0], [-1.0, 0.0]], c=[0.0, a], B=[[0.0, 1.0]], b=[0.0],
                C=[[0.0], [-1.0]])


@pytest.mark.parametrize("a", [0.3, 1.4])
def test_henon_kernels_enclose_the_exact_map(a, rng):
    """A 2-d quadratic map from its five arrays, with the swap reversor: its
    kernels enclose the exact map and Jacobian, and those of S o H o S
    (require_inverse) the closed-form inverse (X, Y) -> (a - X**2 - Y, X)
    and its Jacobian [[-2X, -1], [1, 0]]."""
    H = MapSystem("henon", **_henon(a), reversor=SWAP)
    inv = H.require_inverse()
    A = Fraction(a)
    _assert_kernels_enclose(H, lambda z: _exact_form(_henon(a), z), rng)
    _assert_kernels_enclose(inv, lambda z: ([A - z[0] ** 2 - z[1], z[0]],
                                            [[-2 * z[0], -1], [1, 0]]), rng)
    # the reversor inverts H: S H S H is the identity on points, up to rounding
    z = rng.uniform(-1, 1, size=(100, 2))
    assert np.allclose(inv.image(H.image(z)), z, atol=1e-13)


def test_kernels_cover_coefficients_that_underflow():
    """A Jacobian coefficient 2 C B that underflows to 0 in floating point
    is still covered: F(x) = 1e-200 (1e-200 x)**2 has DF(x) = 2e-400 x, which
    is 2e-100 at x = 1e300, far above the rounding error of the value."""
    data = dict(A=[[0.0]], c=[0.0], B=[[1e-200]], b=[0.0], C=[[1e-200]])
    m = MapSystem("tiny", **data)
    z = np.array([[1e300], [-1e300], [1.0], [0.0]])
    lo, hi = z * (1 - 2 ** -40), z * (1 + 2 ** -40)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    elo, ehi = m.eval_batch(lo, hi)
    jlo, jhi = m.jac_batch(lo, hi)
    for i in range(len(z)):
        for v in (lo[i, 0], hi[i, 0]):
            value, J = _exact_form(data, [Fraction(v)])
            assert encloses(elo[i], ehi[i], value)
            assert encloses(jlo[i], jhi[i], [J[0][0]])


@pytest.mark.parametrize("bounds", [(np.inf, np.inf), (-np.inf, np.inf), (np.nan, np.nan)],
                         ids=["inf", "whole-line", "nan"])
def test_jacobian_on_a_cell_that_is_not_finite(bounds):
    """S's row of ones is set to 1, not computed as 1*1 + 0*x (dynamics._shift),
    so a coordinate that is not finite reaches a Jacobian entry only through
    a nonzero P_kij = 2 C_ik B_kj: a linear map's Jacobian is exactly A on
    such a cell, and F's entries with no nonzero P_kij enclose DF_ij = A_ij.
    The others are [-inf, +inf]: the shift's product takes 0 * x as NaN,
    in every shift of the cell."""
    L = linear_map_system([[2.0, 1.0], [0.0, 3.0]])
    for z in ([bounds[0], 0.0], [0.0, bounds[1]]):
        jlo, jhi = L.jac_batch(np.array([[bounds[0], z[1]]]), np.array([[bounds[1], z[1]]]))
        assert np.array_equal(jlo[0], [[2.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(jhi[0], [[2.0, 1.0], [0.0, 3.0]])
    F = reversible_quadratic_map()
    lo, hi = np.zeros((1, 4)), np.zeros((1, 4))
    lo[0, 0], hi[0, 0] = bounds
    with np.errstate(invalid="ignore"):
        jlo, jhi = F.jac_batch(lo, hi)
    B, C = (np.asarray(_F_DATA[k]) for k in "BC")
    reached = (C != 0).astype(int) @ (B != 0) > 0
    exact = _exact_form(_F_DATA, [Fraction(0)] * 4)[1]
    for i, j in itertools.product(range(4), repeat=2):
        if reached[i, j]:
            assert (jlo[0, i, j], jhi[0, i, j]) == (-np.inf, np.inf)
        else:
            assert np.isfinite([jlo[0, i, j], jhi[0, i, j]]).all()
            assert jlo[0, i, j] <= exact[i][j] <= jhi[0, i, j]


def test_shift_rounded_above_its_magnitude_bound_widens_the_bound():
    """s' = max(s~, g~) (dynamics._shift): the shift of the point cell
    (z1, z2) = (0.75 * 2**458, 2**512 - 2**459) for B z + b = z1 + z2 + b,
    b = 2**457, rounds up to 2**512, whose square overflows, while its
    rounded magnitude bound s~ stays one ulp below, with a finite square.
    With s~ alone the magnitude bound e of F(z) = (B z + b)**2 / 2 would be
    finite, below _BIG, while the bounds' square is inf, and the kernel
    would return [inf, inf]; with s' the bound is infinite, and the output
    [-inf, inf] encloses the exact, finite value."""
    from revcover import dynamics

    data = dict(A=np.zeros((2, 2)), c=np.zeros(2), B=[[1.0, 1.0]], b=[2.0 ** 457],
                C=[[0.5], [0.5]])
    m = MapSystem("near-sqrt-max", **data)
    q = m.kernel
    z = np.array([[0.75 * 2.0 ** 458, 2.0 ** 512 - 2.0 ** 459]])
    g = dynamics._shift(q, dynamics._to_rows(z, z, q.value.shape[1]))[1]
    s = dynamics._columns(q.sigma, np.array([[z[0, 0]], [z[0, 1]], [1.0]]))
    assert g[0, 0] == 2.0 ** 512 > s[0, 0] == z[0, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = m.eval_batch(z, z)
    assert encloses(lo[0], hi[0], _exact_form(data, [Fraction(v) for v in z[0]])[0])


@pytest.mark.parametrize("field, value", [
    ("A", np.ones((4, 3))), ("c", np.ones(3)), ("B", np.ones((2, 3))), ("b", np.ones(3)),
    ("C", np.ones((4, 3))), ("c", [1.0, np.inf, 0.0, 0.0]),
    ("reversor", LinearReversor(np.eye(3))), ("reversor", np.diag([-1.0, -1.0, 1.0, 1.0])),
    ("name", 5),
], ids=["A-not-square", "c-length", "B-columns", "b-length", "C-shape", "not-finite",
        "reversor-dimension", "reversor-type", "name-not-str"])
def test_quadratic_map_rejects_malformed_data(field, value):
    """User data is checked: the name's type, each shape, finiteness and the
    reversor's type and dimension, each a DomainError that names what is
    wrong."""
    args = {"name": "bad", **_F_DATA, "reversor": LinearReversor(np.diag([-1.0, -1.0, 1.0, 1.0]))}
    args[field] = value
    with pytest.raises(DomainError, match=f"^(the )?{field} "):
        MapSystem(**args)
