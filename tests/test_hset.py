"""H-set charts, transposes, symmetric images, wall grids and the file format."""

import json

import numpy as np
import pytest

from revcover.cli import main
from revcover.hset import (
    HSet,
    LinearReversor,
    _facet_cells_arrays,
    coordinate_reflection,
    fix_disk_check,
    hset_from_dict,
    hset_to_dict,
    load_hset,
    save_hset,
    supports_disjoint,
    sym_image,
    transpose,
)
from revcover.interval import DomainError, SingularMatrixError, affine_batch

from conftest import chart, contains, contains_box, cube, encloses, exact_inverse, frame_vectors


def unit_hset(n=4, u=2):
    return HSet("I", np.zeros(n), np.eye(n), u, n - u)


def chart_inverse(N, w):
    """c^{-1}(w) = M w + x of the box w, rigorous."""
    lo, hi = affine_batch(N.matrix, N.center, w[0][None], w[1][None])
    return lo[0], hi[0]


def support_box(N):
    """Ambient axis-aligned enclosure of the support M([-1,1]^n) + x."""
    return chart_inverse(N, cube(np.zeros(N.dim), 1.0))


def test_unit_cube_support():
    N = unit_hset()
    s = support_box(N)
    assert contains_box(s, cube(np.zeros(4), 1.0))
    assert float(np.max(np.abs(s[0] + 1))) < 1e-14 and float(np.max(np.abs(s[1] - 1))) < 1e-14


def test_instance_hsets_match_frame_data(data):
    N1 = data.hset("N1")
    assert N1.center[2] == -2.9288690017630725
    assert np.array_equal(
        N1.matrix[:, 0], 0.012 * frame_vectors()["u1_P1"]
    )
    N2 = data.hset("N2")
    assert np.array_equal(N2.matrix[:, 1], 0.31 * frame_vectors()["u2_P2"])
    assert N1.u == N1.s == 2


def test_singular_directions_rejected():
    with pytest.raises(SingularMatrixError):
        HSet("bad", np.zeros(2), np.array([[1.0, 2.0], [2.0, 4.0]]), 1, 1)


def test_singular_hset_file_is_domain_error(tmp_path):
    """A file's matrix without a verified inverse is an input error."""
    d = {"name": "Z", "center": ["0", "0"], "matrix": [["1", "1"], ["1", "1"]],
         "u": 1, "s": 1}
    with pytest.raises(DomainError, match="no verified inverse"):
        hset_from_dict(d)
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(d))
    with pytest.raises(DomainError, match="no verified inverse"):
        load_hset(path)


def test_dimension_validation():
    with pytest.raises(DomainError):
        HSet("bad", np.zeros(3), np.eye(3), 1, 1)


def test_chart_round_trip(data, rng):
    for name in ("N1", "H2"):
        N = data.hset(name)
        pts = rng.uniform(-1, 1, size=(1000, 4)) @ N.matrix.T + N.center
        for v in pts[:50]:
            w = chart(N, (v, v))
            back = chart_inverse(N, w)
            assert contains(back, v)
        # vectorized membership for the rest
        charts = np.linalg.solve(N.matrix, (pts - N.center).T).T
        assert np.all(np.abs(charts) <= 1 + 1e-9)


def test_transpose_involution():
    N = unit_hset()
    assert transpose(transpose(N)) == N


def test_transpose_swaps_blocks(data):
    N = data.hset("N1")
    T = transpose(N)
    assert T.u == N.s and T.s == N.u
    assert np.array_equal(T.matrix[:, : T.u], N.matrix[:, N.u :])
    assert np.array_equal(T.matrix[:, T.u :], N.matrix[:, : N.u])


def test_transpose_exit_is_entry(data, rng):
    """A point on the entry wall of N lies on the exit wall of its transpose."""
    N = data.hset("N1")
    T = transpose(N)
    for _ in range(200):
        p = rng.uniform(-1, 1, size=2)
        q = rng.uniform(-1, 1, size=2)
        q[rng.integers(0, 2)] = rng.choice([-1.0, 1.0])  # stable boundary
        pq = np.concatenate([p, q])
        lo, hi = chart(T, chart_inverse(N, (pq, pq)))
        # unstable block of the transpose chart is the old stable block
        assert np.max(hi[: T.u]) >= 1.0 - 1e-12 or np.min(lo[: T.u]) <= -1.0 + 1e-12


def test_sym_image_instance(data):
    S = data.reversor
    N1 = data.hset("N1")
    assert sym_image(S, N1) == N1
    H1 = data.hset("H1")
    img = sym_image(S, H1)
    assert np.array_equal(img.center, S.apply(H1.center))
    assert img.center[0] == -H1.center[0] and img.center[2] == H1.center[2]
    assert img.u == H1.s and img.s == H1.u


def test_sym_image_involution(rng):
    S = coordinate_reflection(4, (0, 1))
    M = rng.normal(size=(4, 4)) + 3 * np.eye(4)
    N = HSet("X", rng.normal(size=4), M, 2, 2)
    assert sym_image(S, sym_image(S, N)) == N


def test_hash_agrees_with_eq_on_signed_zeros():
    """H-sets equal under == hash alike, also where they differ only in the
    sign of a zero, so a set keeps one of them."""
    I = np.eye(2)
    a = HSet("a", [0.0, 0.0], I, 1, 1)
    b = HSet("b", [-0.0, 0.0], I, 1, 1)
    c = HSet("c", [0.0, 0.0], [[1.0, -0.0], [0.0, 1.0]], 1, 1)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1


def test_st_symmetric_checks(data):
    S = data.reversor
    assert fix_disk_check(S, data.hset("N1")).ok
    assert fix_disk_check(S, data.hset("N2")).ok
    assert not fix_disk_check(S, data.hset("H1")).ok  # center off the fixed space


def test_st_symmetric_implies_field_equality(rng):
    S = coordinate_reflection(4, (0, 1))
    for _ in range(20):
        U = rng.normal(size=(4, 2))
        M = np.column_stack([U, S.matrix @ U])
        center = np.array([0.0, 0.0, *rng.normal(size=2)])
        try:
            N = HSet("sym", center, M, 2, 2)
        except SingularMatrixError:
            continue
        assert fix_disk_check(S, N).ok
        assert sym_image(S, N) == N


def test_reversor_validation():
    with pytest.raises(DomainError):
        LinearReversor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    S = coordinate_reflection(2, (0,))
    assert S.fixes([0.0, 3.0]) and not S.fixes([1.0, 3.0])


def test_reversor_must_be_a_signed_permutation():
    """An exact float involution that is not a signed permutation is
    refused: its image of an h-set would round (here fl(S M) stores 1.0
    where S M has 1 - 1e-17), so it would not be S(|N|)."""
    for m in ([[1.0, 0.0], [1.0, -1.0]], [[0.0, 2.0], [0.5, 0.0]], [[-1.0, 0.0], [2.0, 1.0]]):
        assert np.array_equal(np.array(m) @ np.array(m), np.eye(2))
        with pytest.raises(DomainError, match="signed permutation"):
            LinearReversor(np.array(m))
    for m in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 1.0]]):
        LinearReversor(np.array(m))
    with pytest.raises(DomainError, match="involution"):
        LinearReversor(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # a signed rotation


def test_reversor_equality_and_hash():
    """Reversors compare and hash by their matrix, as h-sets do: equal ones
    are equal and hash equal, also where a zero is signed, and reversors of
    another matrix or dimension are unequal."""
    S = coordinate_reflection(4, (0, 1))
    same = LinearReversor(np.diag([-1.0, -1.0, 1.0, 1.0]) * np.where(np.eye(4), 1.0, -0.0))
    assert S == coordinate_reflection(4, (0, 1)) == same and not S != same
    assert hash(S) == hash(coordinate_reflection(4, (0, 1))) == hash(same)
    assert len({S, same, coordinate_reflection(4, (0, 1))}) == 1
    for other in (coordinate_reflection(4, (0,)), coordinate_reflection(2, (0, 1)),
                  LinearReversor(np.array([[0.0, 1.0], [1.0, 0.0]]))):
        assert S != other and not S == other
    assert S != "S" and S != S.matrix.tolist()


# --- derived inverses: exact images of the source's certified inverse ---

# the shipped reflection and a signed permutation that is not diagonal,
# x1 <-> -y1 (both involutions)
REFLECTION = coordinate_reflection(4, (0, 1))
SWAP = LinearReversor(np.array([[0.0, 0.0, -1.0, 0.0],
                                [0.0, 1.0, 0.0, 0.0],
                                [-1.0, 0.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0, 1.0]]))


def _assert_encloses_exact_inverse(N):
    exact = [v for row in exact_inverse(N.matrix) for v in row]
    assert encloses(N.inv_matrix.lo, N.inv_matrix.hi, exact), N.name


def _assert_same_inverse(A, B):
    for a, b in ((A.inv_matrix.lo, B.inv_matrix.lo), (A.inv_matrix.hi, B.inv_matrix.hi)):
        assert a.tobytes() == b.tobytes()


def _derived_hsets(N):
    return [transpose(N)] + [f(S, N) for S in (REFLECTION, SWAP)
                             for f in (sym_image, lambda S, N: transpose(sym_image(S, N)))]


def test_derived_inverses_enclose_exact_inverses(data, rng):
    """transpose(N) and sym_image(S, N) take N's certified inverse, permuted
    and negated: it must contain the exact rational inverse of the matrix
    they store. Over the five campaign h-sets and random well-conditioned
    4x4 matrices of every split u + s = 4."""
    sources = list(data.hsets.values())
    for i in range(40):
        M = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-2, 2, size=4) + 4 * np.eye(4)
        sources.append(HSet(f"R{i}", rng.normal(size=4), M, 1 + i % 3, 3 - i % 3))
    for N in sources:
        _assert_encloses_exact_inverse(N)
        for T in _derived_hsets(N):
            assert (T.u, T.s) in ((N.s, N.u), (N.u, N.s))
            _assert_encloses_exact_inverse(T)


def test_derived_inverses_round_trip_bit_for_bit(data, rng):
    """Transposing twice, or taking the reversor image twice, gives back N's
    inverse bit for bit (the permutations and negations undo each other)."""
    sources = list(data.hsets.values())
    sources.append(HSet("R", rng.normal(size=4), rng.normal(size=(4, 4)) + 3 * np.eye(4), 1, 3))
    for N in sources:
        _assert_same_inverse(transpose(transpose(N)), N)
        for S in (REFLECTION, SWAP):
            twice = sym_image(S, sym_image(S, N))
            assert twice == N
            _assert_same_inverse(twice, N)


# --- wall grids: the initial cells of the exit (u pinned axes) and entry
# (all n axes) checks ---

def wall_points(rng, m, pinned, n=4):
    """m random chart points, each on a facet of one of the first `pinned` axes."""
    x = rng.uniform(-1, 1, size=(m, n))
    x[np.arange(m), rng.integers(0, pinned, size=m)] = rng.choice([-1.0, 1.0], size=m)
    return x


def covered(lo, hi, pts):
    """Whether each point lies in some closed cell."""
    inside = (lo[None] <= pts[:, None]) & (pts[:, None] <= hi[None])
    return inside.all(axis=2).any(axis=1)


def facets(lo, hi):
    """The (axis, sign) facets the cells lie on: coordinates pinned at +-1."""
    cell, axis = np.nonzero((lo == hi) & (np.abs(lo) == 1.0))
    return set(zip(axis.tolist(), lo[cell, axis].astype(int).tolist()))


def test_exit_grid_1d_point_cells():
    lo, hi = _facet_cells_arrays(1, range(1), 1)
    assert lo.shape == hi.shape == (2, 1)
    assert sorted(lo[:, 0].tolist()) == [-1.0, 1.0]
    assert np.array_equal(lo, hi)


def test_exit_grid_coverage(rng):
    lo, hi = _facet_cells_arrays(4, range(2), 3)
    assert len(lo) == 2 * 2 * 3**3
    # every cell lies on the exit wall and in the chart cube
    assert np.all(((lo == hi) & (np.abs(lo) == 1.0))[:, :2].any(axis=1))
    assert np.all(lo >= -1.0) and np.all(hi <= 1.0) and np.all(lo <= hi)
    assert covered(lo, hi, wall_points(rng, 10_000, 2)).all()


def test_exit_grid_refinement_keeps_coverage(rng):
    pts = wall_points(rng, 2000, 2)
    for resolution in (1, 4):
        lo, hi = _facet_cells_arrays(4, range(2), resolution)
        assert covered(lo, hi, pts).all()


def test_boundary_grid_square():
    lo, hi = _facet_cells_arrays(2, range(2), 1)
    assert len(lo) == 4
    assert facets(lo, hi) == {(0, -1), (0, 1), (1, -1), (1, 1)}


def test_boundary_grid_coverage_4d(rng):
    lo, hi = _facet_cells_arrays(4, range(4), 2)
    assert len(facets(lo, hi)) == 8
    assert covered(lo, hi, wall_points(rng, 10_000, 4)).all()


def test_boundary_contains_exit_facets():
    exit_cells = np.hstack(_facet_cells_arrays(4, range(2), 2))
    bnd_cells = np.hstack(_facet_cells_arrays(4, range(4), 2))
    assert {tuple(c) for c in exit_cells.tolist()} <= {tuple(c) for c in bnd_cells.tolist()}


def test_supports_disjoint_examples(data):
    a = HSet("A", np.zeros(4), np.eye(4), 2, 2)
    b = HSet("B", np.array([10.0, 0, 0, 0]), np.eye(4), 2, 2)
    assert supports_disjoint(a, b)
    assert not supports_disjoint(a, a)
    assert supports_disjoint(data.hset("N1"), data.hset("N2"))


def test_supports_disjoint_needs_chart_argument():
    """Overlapping ambient enclosures but separated in chart coordinates."""
    R = np.array([[1.0, 1.0], [-1.0, 1.0]])  # rotated squares |v|_1 <= 2
    a = HSet("A", np.zeros(2), R, 1, 1)
    b = HSet("B", np.array([2.5, 2.0]), R, 1, 1)  # 1-norm distance 4.5 > 4
    (alo, ahi), (blo, bhi) = support_box(a), support_box(b)
    assert np.all(ahi > blo) and np.all(bhi > alo)  # ambient boxes overlap
    assert supports_disjoint(a, b)


def test_supports_disjoint_is_sound(rng):
    """Where supports_disjoint proves two random planar supports disjoint,
    no sampled point of either lies in the other's chart cube."""
    proved = 0
    for _ in range(300):
        a, b = (HSet("X", rng.normal(size=2), rng.normal(size=(2, 2)), 1, 1) for _ in range(2))
        if supports_disjoint(a, b):
            proved += 1
            for src, dst in ((a, b), (b, a)):
                pts = rng.uniform(-1, 1, size=(500, 2)) @ src.matrix.T + src.center
                w = np.linalg.solve(dst.matrix, (pts - dst.center).T)
                assert np.all(np.max(np.abs(w), axis=0) > 1.0)
    assert 0 < proved < 300


def test_file_round_trip(tmp_path, data):
    N = data.hset("H3")
    path = tmp_path / "h3.json"
    save_hset(N, path)
    loaded = load_hset(path)
    assert loaded == N
    assert loaded.name == N.name
    assert loaded.decimal_source is not None


def test_file_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DomainError):
        load_hset(p)
    with pytest.raises(DomainError):
        hset_from_dict({"name": "x", "center": ["0", "0"], "matrix": [["1"]], "u": 1, "s": 1})


@pytest.mark.parametrize("u, s", [(1.7, 1.2), (True, 1), (1, 1.0), ("1", "1")])
def test_file_u_and_s_must_be_integers(tmp_path, capsys, u, s):
    """u and s are JSON integers: a float, a bool or a string is an input
    error (exit 3), not truncated to an int."""
    d = {"name": "Z", "center": ["0", "0"], "matrix": [["1", "0"], ["0", "1"]], "u": u, "s": s}
    with pytest.raises(DomainError, match="integers"):
        hset_from_dict(d)
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "--from", str(path), "--to", str(path)]) == 3
    assert "integers" in capsys.readouterr().err


@pytest.mark.parametrize("name", [[1, 2], 7, None, {"n": "Z"}, True])
def test_file_name_must_be_a_string(tmp_path, capsys, name):
    """The name is a JSON string: any other value is an input error (exit
    3), not turned into a name by str()."""
    d = {"name": name, "center": ["0", "0"], "matrix": [["1", "0"], ["0", "1"]], "u": 1, "s": 1}
    with pytest.raises(DomainError, match="string"):
        hset_from_dict(d)
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "--from", str(path), "--to", str(path)]) == 3
    assert "string" in capsys.readouterr().err


@pytest.mark.parametrize("center, matrix, match", [
    ("00", ["10", "01"], "array"),  # strings are not read one character at a time
    (["0", "0"], ["10", "01"], "array"),
    ({"0": 0}, [["1", "0"], ["0", "1"]], "array"),
    ([True, False], [[True, 0], [0, 1]], "numbers or strings"),
    ([0, 0], [[1, False], [0, 1]], "numbers or strings"),
    ([0, None], [[1, 0], [0, 1]], "numbers or strings"),
    ([0, 0], [[1, [0]], [0, 1]], "numbers or strings"),
    ([0, 0], [[10**400, 0], [0, 1]], "too large"),
])
def test_file_entries_are_typed(tmp_path, capsys, center, matrix, match):
    """The center is an array and the matrix an array of arrays, whose
    entries are strings or numbers; a bool, a null, a nested array or an
    integer beyond the double range is an input error (exit 3)."""
    d = {"name": "Z", "center": center, "matrix": matrix, "u": 1, "s": 1}
    with pytest.raises(DomainError, match=match):
        hset_from_dict(d)
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "--from", str(path), "--to", str(path)]) == 3
    err = capsys.readouterr().err
    assert match in err and len(err.splitlines()) == 1


def test_file_entries_may_mix_numbers_and_strings():
    """A JSON integer, a JSON float and a decimal string are all read."""
    N = hset_from_dict({"name": "Z", "center": [0, "0.5"], "matrix": [[1, 0.0], ["0", "2"]],
                        "u": 1, "s": 1})
    assert N.center.tolist() == [0.0, 0.5] and N.matrix.tolist() == [[1.0, 0.0], [0.0, 2.0]]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["center", "matrix"])
def test_nonfinite_center_or_matrix_rejected(tmp_path, capsys, data, field, value):
    """An h-set with a NaN or infinite center or direction entry is malformed:
    HSet raises DomainError, and `verify` reads such a file as an input
    error (exit 3), not as an inconclusive relation (exit 2)."""
    d = hset_to_dict(data.hset("N1"))
    if field == "center":
        d["center"][2] = value
    else:
        d["matrix"][1][3] = value
    center = np.array(d["center"], dtype=float)
    matrix = np.array(d["matrix"], dtype=float)
    with pytest.raises(DomainError, match="finite"):
        HSet("bad", center, matrix, 2, 2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "--from", str(path), "--to", "N2"]) == 3
    assert "finite" in capsys.readouterr().err
