"""Covering verification: degrees, boundary checks, toy oracles, determinism."""

import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from revcover import covering
from revcover.campaign import RELATIONS, CampaignConfig
from revcover.covering import (
    INCONCLUSIVE,
    REFUTED,
    VERDICTS,
    VERIFIED,
    VerifyConfig,
    check_entry_condition,
    check_exit_condition,
    combine,
    compute_degree,
    verify_backcover,
    verify_cover,
)
from revcover.dynamics import linear_map_system, reversible_quadratic_map
from revcover.hset import HSet, sym_image, transpose
from revcover.interval import DomainError, IMatrix, affine_batch

from conftest import encloses, exact_inverse, float_sweep
from test_dynamics import SWAP, _exact_F

MV = VerifyConfig(mean_value=True)


def toy_hset(n=2, u=1, name="T"):
    return HSet(name, np.zeros(n), np.eye(n), u, n - u)


def expansion_map(factors):
    return linear_map_system(np.diag(np.asarray(factors, dtype=float)), name="toy")


def reversible_toy(a):
    """z -> diag(a, 1/a) z for a power of two a: the swap S reverses it
    exactly, as S A S = diag(1/a, a) = inv(A)."""
    return linear_map_system(np.diag([a, 1 / a]), name="toy", reversor=SWAP)


# --- degree ---

def test_degree_identity_map():
    N = toy_hset(4, 2)
    d = compute_degree(N, linear_map_system(np.eye(4)), 1, N)
    assert d.w == 1


def test_degree_orientation_flip():
    N = toy_hset(2, 1)
    assert compute_degree(N, expansion_map([3, 1 / 3]), 1, N).w == 1
    assert compute_degree(N, expansion_map([-3, 1 / 3]), 1, N).w == -1


def test_degree_requires_matching_dims():
    with pytest.raises(DomainError):
        compute_degree(toy_hset(2, 1), linear_map_system(np.eye(2)), 1, toy_hset(2, 2))


def test_degree_with_overflowing_derivative_is_inconclusive():
    """Under z -> 1e200 z the center orbit of 0 stays at 0, but the chart
    derivative of two iterates is 1e400 I, past the float range: the
    degree is refused, and the certificate is inconclusive, not verified."""
    N = toy_hset(2, 1)
    mapsys = linear_map_system(1e200 * np.eye(2))
    with pytest.raises(DomainError, match="the chart derivative at the source center is not "
                                          "finite"):
        compute_degree(N, mapsys, 2, N)
    cert = verify_cover(N, mapsys, 2, N, VerifyConfig())
    assert cert.status == INCONCLUSIVE and cert.w is None and cert.boxes == 0
    assert cert.failure == ("degree computation failed: the chart derivative at the source "
                            "center is not finite")


@pytest.mark.parametrize("case", ["dims", "map-dim", "u", "k"])
def test_mismatched_relation_is_domain_error(case):
    """verify_cover and verify_backcover refuse a relation that cannot be
    checked, before the degree: it is an input error, not a failed degree."""
    N4, F = toy_hset(4, 2), reversible_quadratic_map()
    N, M, k = {
        "dims": (N4, toy_hset(2, 1), 1),
        "map-dim": (toy_hset(2, 1), toy_hset(2, 1), 1),
        "u": (N4, toy_hset(4, 1), 1),
        "k": (N4, N4, 0),
    }[case]
    with pytest.raises(DomainError):
        compute_degree(N, F, k, M)
    for fn in (verify_cover, verify_backcover):
        with pytest.raises(DomainError):
            fn(N, F, k, M, MV)


@pytest.mark.parametrize("case", ["k", "dims"])
@pytest.mark.parametrize("cfg", [VerifyConfig(), MV], ids=["plain", "mean-value"])
def test_checks_refuse_mismatched_relation_given_a_degree(data, case, cfg):
    """A degree passed in does not stand for the relation: the exit and the
    entry check refuse k = 0 and a source of another dimension with
    DomainError, in both evaluation modes, before any cell is evaluated."""
    N1, F = data.hset("N1"), data.mapsys
    degree = compute_degree(N1, F, 1, N1)
    N, k = {"k": (N1, 0), "dims": (toy_hset(2, 1), 1)}[case]
    for check in (check_exit_condition, check_entry_condition):
        with pytest.raises(DomainError):
            check(N, F, k, N1, cfg, degree)


def test_instance_degrees(data):
    for a, b, k, w in RELATIONS:
        assert compute_degree(data.hset(a), data.mapsys, k, data.hset(b)).w == w


# --- exit / entry checks on toys ---

def test_exit_linear_expansion_verified():
    N = toy_hset(2, 1)
    res = check_exit_condition(N, expansion_map([3, 1 / 3]), 1, N, VerifyConfig())
    assert res.verdict == VERIFIED


def test_exit_identity_inconclusive():
    N = toy_hset(2, 1)
    cfg = VerifyConfig(max_depth=8, budget=5000)
    res = check_exit_condition(N, linear_map_system(np.eye(2)), 1, N, cfg)
    assert res.verdict == INCONCLUSIVE
    assert res.worst_cell is not None


def test_entry_contraction_verified():
    N = toy_hset(2, 1)
    res = check_entry_condition(N, expansion_map([3, 1 / 3]), 1, N, VerifyConfig())
    assert res.verdict == VERIFIED


def test_entry_stable_expansion_refuted():
    N = toy_hset(2, 1)
    res = check_entry_condition(N, expansion_map([3, 2.0]), 1, N, VerifyConfig())
    assert res.verdict == REFUTED
    assert res.stats.refuted_cells >= 1


# --- the one verdict rule ---

def test_combine_is_the_old_rules():
    """combine on every subset of the three verdicts, with and without a
    string that is not a verdict, gives the exit code that
    ProofReport.exit_code's four branches gave for relations of those
    statuses (checks passing), and, for a nonempty set, the status that
    verify_cover's own expression gave. No verdicts at all are all
    verified."""
    def exit_code_rule(statuses):
        if all(s == VERIFIED for s in statuses):
            return 0
        if any(s == REFUTED for s in statuses):
            return 1
        if any(s != VERIFIED for s in statuses):
            return 2
        return 1

    def verify_cover_rule(verdicts):
        return (REFUTED if REFUTED in verdicts
                else VERIFIED if verdicts == {VERIFIED} else INCONCLUSIVE)

    assert VERDICTS == (VERIFIED, REFUTED, INCONCLUSIVE)
    for size in range(len(VERDICTS) + 1):
        for subset in itertools.combinations(VERDICTS, size):
            for verdicts in (set(subset), {*subset, "not-a-verdict"}):
                combined = combine(sorted(verdicts))
                assert VERDICTS.index(combined) == exit_code_rule(verdicts), verdicts
                if verdicts:
                    assert combined == verify_cover_rule(verdicts), verdicts
    assert combine([]) == VERIFIED and combine(iter([VERIFIED] * 3)) == VERIFIED


# --- the meaning of "refuted" ---

def _sampled_chart_images(N, mapsys, k, M, cell, rng, count=1000):
    """The float chart images in M of `count` points of the source chart
    cell `cell` (a worst_cell record) under map^k: not rigorous, an
    oracle independent of the cell engine."""
    x = rng.uniform(cell["chart_lo"], cell["chart_hi"], size=(count, N.dim))
    y = x @ N.matrix.T + N.center
    for _ in range(k):
        y = mapsys.image(y)
    return np.linalg.solve(M.matrix, (y - M.center).T).T


@pytest.mark.parametrize("mean_value", [False, True])
def test_refuted_entry_cell_violates_the_entry_condition(data, rng, mean_value):
    """N1 => N2 at a fixed grid: every one of the 64 entry roots is
    refuted, and every sampled point of the worst cell maps outside the
    target's open stable cube, each stable coordinate at |v_s| >= 1.80."""
    N, M = data.hset("N1"), data.hset("N2")
    cert = verify_cover(N, data.mapsys, 1, M, VerifyConfig(max_depth=0, mean_value=mean_value))
    entry = cert.checks["entry"]
    assert cert.status == entry["verdict"] == REFUTED
    assert entry["boxes"] == entry["refuted_cells"] == 64
    v = _sampled_chart_images(N, data.mapsys, 1, M, entry["worst_cell"], rng)
    assert np.all(np.abs(v[:, M.u:]).max(axis=1) >= 1.0)  # the condition fails at each
    assert np.abs(v[:, M.u:]).min() >= 1.80


def test_refuted_exit_cell_violates_the_exit_condition(rng):
    """Under the contraction z -> z / 2 the exit wall of the unit h-set T
    maps inside T's unstable cube: all 4 exit roots are refuted, and no
    sampled point of the worst cell maps clear of the cube."""
    T = toy_hset(2, 1)
    mapsys = linear_map_system(np.diag([0.5, 0.5]))
    cert = verify_cover(T, mapsys, 1, T, VerifyConfig())
    exit_ = cert.checks["exit"]
    assert cert.status == exit_["verdict"] == REFUTED
    assert exit_["boxes"] == exit_["refuted_cells"] == 4
    v = _sampled_chart_images(T, mapsys, 1, T, exit_["worst_cell"], rng)
    assert np.all(np.abs(v[:, :T.u]).max(axis=1) <= 1.0)


# --- full verification on toys (with the independent float oracle) ---

def test_verify_cover_toy_positive(rng):
    N = toy_hset(2, 1)
    m = expansion_map([3, 1 / 3])
    cert = verify_cover(N, m, 1, N, VerifyConfig())
    assert cert.verified and cert.w == 1
    exit_min, entry_max = float_sweep(N, m, 1, N, rng)
    assert exit_min > 1.0 and entry_max < 1.0


def test_verify_cover_toy_orientation(rng):
    N = toy_hset(2, 1)
    m = expansion_map([-3, 1 / 3])
    cert = verify_cover(N, m, 1, N, VerifyConfig())
    assert cert.verified and cert.w == -1
    exit_min, entry_max = float_sweep(N, m, 1, N, rng)
    assert exit_min > 1.0 and entry_max < 1.0


def test_verify_cover_identity_fails():
    N = toy_hset(2, 1)
    cert = verify_cover(N, linear_map_system(np.eye(2)), 1, N,
                        VerifyConfig(max_depth=8, budget=5000))
    assert not cert.verified
    assert cert.status in (INCONCLUSIVE, REFUTED)


def test_verify_cover_4d_toy():
    N = toy_hset(4, 2)
    m = expansion_map([2.5, -2.5, 0.2, 0.3])
    cert = verify_cover(N, m, 1, N, VerifyConfig())
    assert cert.verified and cert.w == -1


def test_verify_backcover_toy():
    """Backcovering of the reversible expansion toy: the inverse contracts
    the formerly unstable direction, so the transposed relation verifies,
    with w = -1 where the toy reverses orientation."""
    N = toy_hset(2, 1)
    for a, w in ((4.0, 1), (-4.0, -1)):
        cert = verify_backcover(N, reversible_toy(a), 1, N, VerifyConfig())
        assert cert.verified and cert.direction == "back" and cert.w == w
        assert cert.checks["transposed_equivalent"]["map"] == "toy-inverse"


def test_verify_backcover_needs_inverse():
    """A map without a reversor has no inverse, and neither has diag(3, 1/3)
    under the swap, as 3 * fl(1/3) != 1: require_inverse and
    verify_backcover both raise DomainError."""
    N = toy_hset(2, 1)
    for reversor, message in ((None, "has no reversor"), (SWAP, "does not reverse")):
        m = linear_map_system(np.diag([3.0, 1 / 3]), reversor=reversor)
        with pytest.raises(DomainError, match=message):
            m.require_inverse()
        with pytest.raises(DomainError, match=message):
            verify_backcover(N, m, 1, N, VerifyConfig())


def test_identity_has_no_backcovering():
    """No backcovering T <= T holds under the identity. An inverse cannot be
    handed in (the second argument of linear_map_system is the name), and
    the inverse that the swap proves, the identity, does not verify."""
    T = toy_hset(2, 1)
    with pytest.raises(DomainError, match="name must be a str"):
        linear_map_system(np.eye(2), np.diag([0.25, 4.0]))
    cert = verify_backcover(T, linear_map_system(np.eye(2), reversor=SWAP), 1, T,
                            VerifyConfig(max_depth=8, budget=4000))
    assert cert.status != VERIFIED


def test_pure_contraction_no_unstable():
    """u = 0: the exit set is empty, the image must land strictly inside."""
    N = HSet("C", np.zeros(2), np.eye(2), 0, 2)
    cert = verify_cover(N, expansion_map([0.3, 0.3]), 1, N, VerifyConfig())
    assert cert.verified and cert.w == 1
    cert = verify_cover(N, expansion_map([0.3, 2.0]), 1, N, VerifyConfig())
    assert not cert.verified


def test_pure_expansion_no_stable():
    """s = 0: there is no entry condition to check."""
    N = HSet("E", np.zeros(1), np.eye(1), 1, 0)
    cert = verify_cover(N, expansion_map([3.0]), 1, N, VerifyConfig())
    assert cert.verified and cert.w == 1


@pytest.mark.parametrize("u, check", [(0, check_exit_condition), (2, check_entry_condition)])
def test_empty_wall_is_verified_with_empty_statistics(u, check):
    """The exit wall of an h-set with u = 0, and the entry wall of one with
    s = 0, are empty: their check is verified without a box, even under a
    map under which the other check does not verify."""
    N = HSet("Z", np.zeros(2), np.eye(2), u, 2 - u)
    res = check(N, linear_map_system(np.eye(2)), 1, N, VerifyConfig())
    assert res.verdict == VERIFIED and res.worst_cell is None
    assert asdict(res.stats) == {"boxes": 0, "max_depth": 0, "refuted_cells": 0,
                                 "exhausted_subtrees": 0}


# --- instance relations ---

def test_instance_relation_mean_value(data):
    F = data.mapsys
    cert = verify_cover(data.hset("H1"), F, 4, data.hset("H2"), MV)
    assert cert.verified and cert.w == -1


def test_instance_relation_plain_mode(data):
    """Plain stepwise evaluation (the default mode) on the self-covering of
    the large h-set; this is the grid-method cost profile."""
    F = data.mapsys
    cert = verify_cover(data.hset("N2"), F, 1, data.hset("N2"),
                        VerifyConfig(mean_value=False, budget=2_000_000))
    assert cert.verified and cert.w == -1
    assert cert.boxes > 10_000  # plain mode pays a real grid cost


def test_plain_box_counts_are_pinned(data):
    """Plain N2=>N2, H3=>N2 and N1=>N1 at the default settings take exactly
    these boxes and depths (exit, entry), at threads 1 and 2. The count
    depends on every enclosure of the plain path (the affine chart, F and
    the target's shifted inverse) and on the bisection axis, so a kernel or
    refinement change that widens, tightens or splits a cell differently
    shows here rather than only in the benchmark. H3=>N2's exit check
    refines through the linear image of the chart derivative, which
    N2=>N2's barely reaches; every entry root of N1=>N1 bisects a full tree
    down to depth 14."""
    pins = (("N2", "N2", -1, (1_202, 195_692), (7, 12)),
            ("H3", "N2", -1, (45_252, 329_564), (12, 15)),
            ("N1", "N1", 1, (6_112, 1_783_958), (7, 14)))
    for threads in (1, 2):
        total = 0
        for src, dst, w, boxes, depths in pins:
            cert = verify_cover(data.hset(src), data.mapsys, 1, data.hset(dst),
                                VerifyConfig(threads=threads))
            assert cert.verified and cert.w == w
            assert tuple(cert.checks[c]["boxes"] for c in ("exit", "entry")) == boxes
            assert tuple(cert.checks[c]["max_depth"] for c in ("exit", "entry")) == depths
            assert cert.boxes == sum(boxes)  # N1=>N1: 1,790,070
            total += cert.boxes
        assert total == 2_361_780  # the plain-grid benchmark's pass


def test_instance_float_sweep_oracle(data, rng):
    """Necessary-condition spot check behind the verified certificates."""
    F = data.mapsys
    for (a, b, k) in (("N1", "N1", 1), ("H2", "H3", 1)):
        exit_min, entry_max = float_sweep(data.hset(a), F, k, data.hset(b), rng)
        assert exit_min > 1.0
        assert entry_max < 1.0


def test_verify_rejected_relation(data):
    """No covering from N1 straight into N2: the image is far away."""
    F = data.mapsys
    cert = verify_cover(data.hset("N1"), F, 1, data.hset("N2"),
                        VerifyConfig(mean_value=True, max_depth=6, budget=50_000))
    assert cert.status in (REFUTED, INCONCLUSIVE)


# --- refinement behavior, budget, determinism ---

def test_monotone_refinement(data):
    """Raising the depth cap does not change the verdict or the box count:
    passing cells are never refined."""
    F = data.mapsys
    c1 = verify_cover(data.hset("N1"), F, 1, data.hset("N1"),
                      VerifyConfig(mean_value=True, max_depth=20))
    c2 = verify_cover(data.hset("N1"), F, 1, data.hset("N1"),
                      VerifyConfig(mean_value=True, max_depth=21))
    assert c1.verified and c2.verified
    assert c1.boxes == c2.boxes and c1.max_depth == c2.max_depth


def _halved(lo, hi):
    """Every cell of [lo, hi] halved along its first widest coordinate, as
    one root's level is: all left halves, then all right halves."""
    from revcover.covering import _bisect_cells, _widest

    n = len(lo)
    return _bisect_cells(lo, hi, np.zeros(n, dtype=int), np.arange(n), _widest(hi - lo)[0])[:2]


def test_passing_cell_children_pass(data):
    from revcover.covering import _CellEngine

    F = data.mapsys
    N = data.hset("N2")
    deg = compute_degree(N, F, 1, N)
    engine = _CellEngine(N, F, 1, N, True, deg.chart_derivative)
    lo = np.array([[1.0, -0.5, -0.5, -0.5]])
    hi = np.array([[1.0, 0.0, 0.0, 0.0]])
    passed, _ = engine.classify(lo, hi, 0)  # the entry test
    if passed[0]:
        clo, chi = _halved(lo, hi)
        cpassed, _ = engine.classify(clo, chi, 0)
        assert cpassed.all()


def _exact_affine(A, x, b):
    """A x + b, exactly, for entries that are floats or Fractions."""
    return [sum(Fraction(a) * Fraction(v) for a, v in zip(row, x)) + Fraction(c)
            for row, c in zip(A, b)]


@pytest.mark.parametrize("src, dst, k", [("H1", "H2", 4), ("N2", "N2", 1)])
def test_chart_image_encloses_sampled_points(data, rng, src, dst, k):
    """Both enclosures of the chart map over a cell, plain and centered,
    contain the float image and the exact rational image (F iterated k
    times on Fractions, then the exact inverse) of every sampled member
    point: corners and interior points of grid cells and of their
    bisections."""
    from revcover.covering import _CellEngine
    from revcover.hset import _facet_cells_arrays

    F, N, M = data.mapsys, data.hset(src), data.hset(dst)
    deg = compute_degree(N, F, k, M)
    engines = [_CellEngine(N, F, k, M, mean_value, deg.chart_derivative)
               for mean_value in (False, True)]
    lo, hi = _facet_cells_arrays(N.dim, range(N.dim), 2)
    cells = [(lo, hi)]
    for _ in range(3):
        cells.append(_halved(*cells[-1]))
    lo, hi = (np.concatenate(c) for c in zip(*cells))
    pick = rng.choice(len(lo), size=24, replace=False)
    lo, hi = lo[pick], hi[pick]
    images = [e._chart_image(lo, hi) for e in engines]
    inv = exact_inverse(M.matrix)
    corners = np.array(list(itertools.product((False, True), repeat=N.dim)))
    for i in range(len(lo)):
        inner = lo[i] + rng.uniform(size=(4, N.dim)) * (hi[i] - lo[i])
        for p in np.concatenate([np.where(corners, hi[i], lo[i]), inner]):
            z = N.matrix @ p + N.center
            for _ in range(k):
                z = F.image(z)
            y = np.linalg.solve(M.matrix, z - M.center)
            for clo, chi in images:
                assert np.all(clo[i] <= y) and np.all(y <= chi[i])
            z = _exact_affine(N.matrix.tolist(), p.tolist(), N.center.tolist())
            for _ in range(k):
                z = _exact_F(*z)
            d = [v - Fraction(c) for v, c in zip(z, M.center.tolist())]
            exact = _exact_affine(inv, d, [0] * N.dim)
            for clo, chi in images:
                assert encloses(clo[i], chi[i], exact)


@pytest.mark.parametrize("src, dst", [("H3", "N2"), ("N2", "N2")])
def test_engine_split_matrices_are_bit_for_bit(data, src, dst):
    """The engine builds the kernels of the target chart and of the exit
    check's linear map once; its plain chart image and its linear image are
    bit for bit those of imat_vec_batch on the unsplit matrices. The linear
    map keeps only the unstable rows, the ones the exit check reads."""
    from revcover.covering import _CellEngine
    from revcover.hset import _facet_cells_arrays
    from revcover.interval import _linear_eval, imat_vec_batch

    F, N, M = data.mapsys, data.hset(src), data.hset(dst)
    dfc0 = compute_degree(N, F, 1, M).chart_derivative
    engine = _CellEngine(N, F, 1, M, False, dfc0)
    lo, hi = _facet_cells_arrays(N.dim, range(N.dim), 3)
    vlo, vhi = F.eval_batch(*affine_batch(N.matrix, N.center, lo, hi))
    u = N.u
    pairs = [(engine._chart_image(lo, hi),
              imat_vec_batch(M.inv_matrix.lo, M.inv_matrix.hi, vlo, vhi, M.center)),
             (_linear_eval(engine.linear, lo[:, :u], hi[:, :u]),
              [a[:, :u] for a in imat_vec_batch(dfc0.lo[:, :u], dfc0.hi[:, :u],
                                                lo[:, :u], hi[:, :u])])]
    for got, want in pairs:
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("case", ["N1N1", "H1H2", "cross-check"])
def test_chart_images_are_row_independent(data, rng, case):
    """Every chart image is a function of its own cell: the image of a batch
    of 2,048 cells is bit for bit the concatenation of the images of its
    sub-batches, of sizes from 1 to 2,048, for plain and centered engines
    (one chart image serves both checks). The centered engine stacks each
    cell's midpoint with the cell in every kernel call, and the thread and
    batch invariance of the refinement rests on this. The batch holds grid cells of several
    depths, point cells and cells with an infinite or NaN coordinate. A
    plain image is a view of the engine's buffers, which its next call
    overwrites, so each image is copied."""
    from revcover.covering import _CellEngine
    from revcover.hset import _facet_cells_arrays

    F, S = data.mapsys, data.reversor
    N, mapsys, k, M = {
        "N1N1": (data.hset("N1"), F, 1, data.hset("N1")),
        "H1H2": (data.hset("H1"), F, 4, data.hset("H2")),
        # verify_backcover's transposed h-sets under the inverse map
        "cross-check": (transpose(sym_image(S, data.hset("H2"))), F.require_inverse(), 1,
                        transpose(sym_image(S, data.hset("H3")))),
    }[case]
    deg = compute_degree(N, mapsys, k, M)
    lo, hi = _facet_cells_arrays(N.dim, range(N.dim), 2)
    cells = [(lo, hi)]
    while sum(len(c[0]) for c in cells) < 2048:
        cells.append(_halved(*cells[-1]))
    pick = rng.permutation(2048)
    lo, hi = (np.concatenate(c)[pick] for c in zip(*cells))
    lo[:64] = hi[:64]
    lo[64:72, 1], hi[72:80, 3], lo[80:88, 0] = -np.inf, np.inf, np.nan
    sizes = [1, 1, 2, 3, 1]
    while sum(sizes) < 2048:
        sizes.append(int(rng.integers(1, 600)))
    cuts = np.cumsum(sizes)[:-1]
    for mean_value in (False, True):
        engine = _CellEngine(N, mapsys, k, M, mean_value, deg.chart_derivative)
        with np.errstate(all="ignore"):
            whole = [x.copy() for x in engine._chart_image(lo, hi)]
            parts = [[x.copy() for x in engine._chart_image(a, b)]
                     for a, b in zip(np.split(lo, cuts), np.split(hi, cuts))]
        for w, p in zip(whole, zip(*parts)):
            assert w.tobytes() == np.concatenate(p).tobytes()


@pytest.mark.parametrize("case", ["N2N2", "H1H2", "cross-check"])
def test_reused_buffers_give_the_enclosures_of_fresh_ones(data, rng, monkeypatch, case):
    """The process keeps its buffers across calls (covering._buffer): calls
    of 8,192, 1, 5 and 8,192 cells on one engine give, bit for bit, the
    chart images and the masks of engines that have never run on buffers
    that no call has filled, plain and centered, for exit cells, entry
    cells and both in one call (the exit test's linear map runs in buffers
    too). The 1-cell call takes _columns' one-column path. The cells
    include point cells and cells with an infinite or NaN coordinate.
    H1=>H2 runs four map steps on the two alternating buffers, and the
    cross-check runs the inverse map's kernel on them. The centered chain runs on fresh arrays, and
    stays that of a fresh engine too."""
    from revcover.covering import _CellEngine

    F, S = data.mapsys, data.reversor
    N, mapsys, k, M = {
        "N2N2": (data.hset("N2"), F, 1, data.hset("N2")),
        "H1H2": (data.hset("H1"), F, 4, data.hset("H2")),
        "cross-check": (transpose(sym_image(S, data.hset("H2"))), F.require_inverse(), 1,
                        transpose(sym_image(S, data.hset("H3")))),
    }[case]
    deg = compute_degree(N, mapsys, k, M)
    for mean_value in (False, True):
        def engine():
            return _CellEngine(N, mapsys, k, M, mean_value, deg.chart_derivative)

        reused = engine()
        for nb in (8192, 1, 5, 8192):
            mid = rng.uniform(-1, 1, size=(nb, N.dim))
            rad = rng.uniform(0, 0.2, size=(nb, N.dim))
            lo, hi = mid - rad, mid + rad
            if nb > 1:
                lo[0] = hi[0]
                lo[1, 1], hi[2, 3], lo[3, 0], hi[4, 2] = -np.inf, np.inf, np.nan, np.nan
            # exit cells only, entry cells only, and both in one call
            for exits in (nb, 0, nb // 2):
                with np.errstate(all="ignore"):
                    got = [x.copy() for x in reused._chart_image(lo, hi)]
                    got += reused.classify(lo, hi, exits)
                    with monkeypatch.context() as mp:
                        mp.setattr(covering, "_BUFFERS", {})
                        want = [x.copy() for x in engine()._chart_image(lo, hi)]
                    with monkeypatch.context() as mp:
                        mp.setattr(covering, "_BUFFERS", {})
                        want += engine().classify(lo, hi, exits)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()


def test_engine_pickles_without_its_buffers(data):
    """The buffers are the process's scratch space and never travel with a
    shard: an engine pickles to the same bytes before and after a classify
    call of 8,192 cells, which fills the process's buffers (covering._buffer),
    and a second engine's call reuses them instead of allocating its own."""
    import pickle

    from revcover.covering import _CellEngine

    N, M = data.hset("H3"), data.hset("N2")
    deg = compute_degree(N, data.mapsys, 1, M)
    engine, other = (_CellEngine(N, data.mapsys, 1, M, False, deg.chart_derivative)
                     for _ in range(2))
    before = pickle.dumps(engine)
    lo = np.random.default_rng(0).uniform(-1, 1, size=(8192, 4))
    engine.classify(lo, lo + 0.01, 8192)  # exit cells
    assert sum(b.nbytes for b in covering._BUFFERS.values()) > 8192 * 8 * 20
    assert pickle.dumps(engine) == before
    assert len(before) < 8192 * 8
    held = {k: id(b) for k, b in covering._BUFFERS.items()}
    other.classify(lo, lo + 0.01, 8192)
    assert {k: id(b) for k, b in covering._BUFFERS.items()} == held


@pytest.mark.parametrize("which", ["exit", "entry"])
@pytest.mark.parametrize("mean_value", [False, True])
def test_classify_nonfinite_enclosure_fails_both_masks(which, mean_value):
    """A cell whose image overflows passes neither mask: its enclosure is
    not finite (infinite, or NaN where inf meets an exact 0 of the target
    chart in an inf-sup product). The singular target inverse is no
    h-set's, so the target is a stand-in with the attributes the engine
    reads."""
    from revcover.covering import _CellEngine

    mapsys = expansion_map([1e300, 1e300])  # two iterates overflow
    lo, hi = np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]])
    for inv in (np.eye(2), np.full((2, 2), 0.5)):
        M = SimpleNamespace(center=np.zeros(2), inv_matrix=IMatrix(inv, inv))
        engine = _CellEngine(toy_hset(2, 1), mapsys, 2, M, mean_value,
                             IMatrix(np.eye(2), np.eye(2)))
        with np.errstate(all="ignore"):
            clo, chi = engine._chart_image(lo, hi)
        assert not np.isfinite(clo).any() or not np.isfinite(chi).any()
        passed, refuted = engine.classify(lo, hi, 1 if which == "exit" else 0)
        assert not passed[0] and not refuted[0]


def test_zero_width_failing_cell_retires_its_root():
    """A failing point cell bisects into copies of itself, so its root is
    retired at once: the exit wall of a 1-d h-set is two points, and under
    the identity both fail at depth 0."""
    N = HSet("P", [0.0], [[1.0]], 1, 0)
    res = check_exit_condition(N, linear_map_system(np.eye(1)), 1, N,
                               VerifyConfig(budget=100_000))
    assert res.verdict == INCONCLUSIVE
    assert (res.stats.boxes, res.stats.max_depth, res.stats.exhausted_subtrees) == (2, 0, 2)
    assert res.worst_cell["chart_lo"] == res.worst_cell["chart_hi"] == [-1.0]


def test_budget_starvation_inconclusive():
    N = toy_hset(2, 1)
    cert = verify_cover(N, linear_map_system(np.eye(2)), 1, N,
                        VerifyConfig(budget=16, max_depth=30))
    assert cert.status == INCONCLUSIVE


def test_fixed_grid_mode(data):
    """A fixed grid never refines, and fixed_grid=True is max_depth = 0:
    they give the same verdicts, boxes, depths and worst cells, on N1 => N1
    at resolutions 1 and 6 and on N2 => N2 at resolution 2, whose entry
    check the grid leaves inconclusive."""

    def run(name, resolution, **grid):
        return verify_cover(data.hset(name), data.mapsys, 1, data.hset(name),
                            VerifyConfig(resolution=resolution, mean_value=True, **grid))

    certs = {(name, res): (run(name, res, fixed_grid=True), run(name, res, max_depth=0))
             for name, res in (("N1", 1), ("N1", 6), ("N2", 2))}
    for cert, depth0 in certs.values():
        assert (depth0.status, depth0.w, depth0.boxes, depth0.max_depth) == (
            cert.status, cert.w, cert.boxes, cert.max_depth)
        assert _check_stats(depth0) == _check_stats(cert)
    fine = certs["N1", 6][0]
    assert fine.verified
    # a fixed grid never refines: box count is exactly the grid size
    assert fine.checks["exit"]["boxes"] == 2 * 2 * 6**3
    assert fine.checks["entry"]["boxes"] == 2 * 4 * 6**3
    assert certs["N1", 1][0].status in (VERIFIED, INCONCLUSIVE)
    assert certs["N2", 2][0].checks["entry"]["worst_cell"] is not None


def _check_stats(cert):
    return {which: {k: v for k, v in chk.items() if k != "wall_time_s"}
            for which, chk in cert.checks.items()}


def _count_pools(monkeypatch):
    """The worker counts of the pools made from now on, in order."""
    pools = []
    real_pool = covering._process_pool
    monkeypatch.setattr(covering, "_process_pool",
                        lambda workers: pools.append(workers) or real_pool(workers))
    return pools


def _outcome(cert):
    return cert.status, cert.w, cert.boxes, cert.max_depth, _check_stats(cert)


def test_thread_count_invariance(data, monkeypatch):
    """Threads 1 and 2 certify the campaign's backcover cross-check alike.
    The batches are small enough that parts of several roots are sharded
    over the pool, whose workers run the inverse map they receive pickled."""
    pools = _count_pools(monkeypatch)
    S = data.reversor
    args = (sym_image(S, data.hset("H3")), data.mapsys, 1, sym_image(S, data.hset("H2")))
    certs = []
    for threads in (1, 2):
        cfg = VerifyConfig(mean_value=True, threads=threads, batch_size=16)
        certs.append(verify_backcover(*args, cfg))
        assert bool(pools) == (threads > 1)
    a, b = certs
    assert a.status == b.status == VERIFIED
    assert (a.w, a.boxes, a.max_depth) == (b.w, b.boxes, b.max_depth)
    assert _check_stats(a) == _check_stats(b)


def test_spawned_workers_run_the_pickled_map(data, monkeypatch):
    """Workers started by spawn inherit nothing from the parent process: the
    inverse map S o F o S reaches them only pickled in each shard's cell
    engine, and they certify the cross-check as one process does."""
    spawn = multiprocessing.get_context("spawn")
    pools = []

    def spawn_pool(workers):
        pools.append(workers)
        return ProcessPoolExecutor(max_workers=workers, mp_context=spawn)

    monkeypatch.setattr(covering, "_process_pool", spawn_pool)
    S = data.reversor
    args = (sym_image(S, data.hset("H3")), data.mapsys, 1, sym_image(S, data.hset("H2")))
    one, two = (verify_backcover(*args, VerifyConfig(mean_value=True, threads=t, batch_size=16))
                for t in (1, 2))
    assert set(pools) == {2}
    assert len(pools) == 1  # one pool, reused by every check that shards
    assert one.status == two.status == VERIFIED
    assert (one.w, one.boxes, one.max_depth) == (two.w, two.boxes, two.max_depth)
    assert _check_stats(one) == _check_stats(two)


@pytest.mark.parametrize("case", ["identity-inconclusive", "H2H3-refuted"])
def test_failure_stats_independent_of_threads_and_batch(data, case, monkeypatch):
    """A failing check reports the same verdict, counts and worst cell for
    every thread count and batch size. The identity toy's subtrees outgrow a
    frontier part and a batch, so the part split and the process pool both
    run. A part of R roots goes to a pool of w workers as
    min(_SHARDS_PER_WORKER * w, R) round-robin shards, more than w when R
    allows, which the pool hands out as workers free up."""
    submitted = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.workers = max_workers

        def map(self, fn, payloads, **kwargs):
            payloads = list(payloads)
            submitted.append((self.workers, [p[1] for p in payloads]))
            return super().map(fn, payloads, **kwargs)

    monkeypatch.setattr(covering, "_process_pool", SpyPool)
    # the pool is capped at the cpu count: with more cpus assumed, three
    # workers on fewer cores are still three processes
    monkeypatch.setattr(covering, "cpu_count", lambda: 4)
    if case == "identity-inconclusive":
        N = toy_hset(2, 1)
        args = (N, linear_map_system(np.eye(2)), 1, N)
        base, expected = VerifyConfig(budget=100_000), INCONCLUSIVE
        failing_check, worst_cell = "exit", {
            "root": 0, "depth": 15, "check": "exit",
            "chart_lo": [-1.0, -0.416015625], "chart_hi": [-1.0, -0.415985107421875]}
    else:
        args = (data.hset("H2"), data.mapsys, 2, data.hset("H3"))
        base, expected = VerifyConfig(mean_value=True, budget=5_000), REFUTED
        failing_check, worst_cell = "entry", {
            "root": 0, "depth": 2, "check": "entry",
            "chart_lo": [-1.0, -0.5, -1.0, -1.0], "chart_hi": [-1.0, 0.0, -0.5, 0.0]}
    runs = []
    for threads in (1, 2, 3):  # 3 workers on fewer cores: still three processes
        for batch in (64, 8192):
            cert = verify_cover(*args, replace(base, threads=threads, batch_size=batch))
            runs.append((cert.status, cert.boxes, cert.max_depth, _check_stats(cert)))
    assert runs[0][0] == expected
    assert all(r == runs[0] for r in runs[1:])
    # the reported cell of the first decided root, as recorded when it retired
    assert runs[0][3][failing_check]["worst_cell"] == worst_cell
    for workers, shards in submitted:
        roots = np.concatenate(shards)
        assert workers in (2, 3)
        assert len(shards) == min(covering._SHARDS_PER_WORKER * workers, len(roots))
        assert np.array_equal(np.sort(roots), np.unique(roots))  # each root once
        assert max(map(len, shards)) - min(map(len, shards)) <= 1
    if case == "identity-inconclusive":
        assert {w for w, shards in submitted if len(shards) > w} == {2, 3}


@pytest.mark.parametrize("field, value", [
    ("resolution", 0), ("max_depth", -1), ("threads", 0), ("threads", -1),
    ("budget", 0), ("batch_size", 0), ("batch_size", -1),
    ("threads", 2.5), ("resolution", 2.5), ("budget", "abc"), ("max_depth", 6.0),
    ("threads", True), ("batch_size", 64.0), ("budget", None),
])
def test_config_rejects_out_of_range_values(field, value):
    """A batch size below 1 would leave the kernel unrun and its masks unset,
    and a thread count below 1 would be recorded as given; both are errors,
    for a relation and for the campaign alike. So is a value that is not an
    integer (a float, a string, None or a bool), which would otherwise fail
    as a TypeError inside the verification."""
    with pytest.raises(DomainError, match=field):
        VerifyConfig(**{field: value})
    if field != "batch_size":
        with pytest.raises(DomainError, match=field):
            CampaignConfig(**{field: value})


def test_budget_is_per_check(data):
    """The budget bounds each check (exit and entry each), not the relation,
    and a check it starves is inconclusive, never verified."""
    F = data.mapsys
    args = (data.hset("H1"), F, 4, data.hset("H2"))
    full = verify_cover(*args, MV)
    assert full.verified
    over_budget = False
    for budget in (100, 300, 600, 1_000):
        cert = verify_cover(*args, VerifyConfig(mean_value=True, budget=budget))
        for which in ("exit", "entry"):
            chk = cert.checks[which]
            assert chk["boxes"] <= budget
            if chk["boxes"] < full.checks[which]["boxes"]:
                assert chk["verdict"] == INCONCLUSIVE
            else:
                assert chk == full.checks[which]
        over_budget |= cert.boxes > budget
        if cert.status != VERIFIED:
            assert cert.status == INCONCLUSIVE
    assert over_budget  # a relation may spend up to twice the budget


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["verified", "refuted", "starved"])
def test_joint_checks_equal_separate_ones(data, case, threads):
    """The exit and entry checks run as one refinement give, field for
    field, the results of check_exit_condition and check_entry_condition,
    each of which refines its own wall alone: verdict, counts, depth and
    worst cell. In the starved case the checks' roots have different
    allowances (200 boxes over 32 exit and 64 entry roots, 6 and 3 each),
    and both checks run out of them. At batch size 64 and two threads the
    joint frontier is sharded over the pool from its first level, in shards
    that mix exit and entry roots."""
    F = data.mapsys
    args, cfg, verdicts = {
        "verified": ((data.hset("H2"), F, 1, data.hset("H3")), MV, (VERIFIED, VERIFIED)),
        "refuted": ((data.hset("H2"), F, 2, data.hset("H3")),
                    VerifyConfig(mean_value=True, budget=5_000), (VERIFIED, REFUTED)),
        "starved": ((data.hset("H1"), F, 4, data.hset("H2")),
                    VerifyConfig(mean_value=True, budget=200), (INCONCLUSIVE, INCONCLUSIVE)),
    }[case]
    cfg = replace(cfg, threads=threads, batch_size=64)
    degree = compute_degree(*args)
    joint = covering._run_checks(*args, cfg, ("exit", "entry"), degree)
    assert joint == {"exit": check_exit_condition(*args, cfg, degree),
                     "entry": check_entry_condition(*args, cfg, degree)}
    assert (joint["exit"].verdict, joint["entry"].verdict) == verdicts


def test_both_checks_share_each_kernel_call(data, monkeypatch):
    """verify_cover evaluates each level of both checks in one classify
    call: mean-value H2=>H3 takes 7 calls, each the exit check's level and
    the entry check's level together, where the two checks alone take 7
    calls each."""
    sizes = []
    real_classify = covering._CellEngine.classify

    def classify(self, lo, hi, exits):
        sizes.append((exits, len(lo) - exits))
        return real_classify(self, lo, hi, exits)

    monkeypatch.setattr(covering._CellEngine, "classify", classify)
    args = (data.hset("H2"), data.mapsys, 1, data.hset("H3"))
    calls = []
    for run in (check_exit_condition, check_entry_condition, verify_cover):
        sizes.clear()
        run(*args, MV)
        calls.append(list(sizes))
    exit_calls, entry_calls, joint = calls
    assert len(exit_calls) == len(entry_calls) == len(joint) == 7
    assert [e for e, _ in exit_calls] == [e for e, _ in joint]
    assert [n for _, n in entry_calls] == [n for _, n in joint]


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    """A thread count above os.cpu_count() starts only cpu_count workers;
    the recorder in place of the pool starts no process."""
    made = []

    class Recorder:
        _broken = False

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(covering, "cpu_count", lambda: 2)
    monkeypatch.setattr(covering, "_process_pool",
                        lambda workers: made.append(workers) or Recorder())
    covering._worker_pool(64)
    covering._worker_pool(64)  # the same capped count reuses the pool
    assert made == [2]


def test_small_frontier_stays_in_process(data, monkeypatch):
    """threads > 1 starts no worker pool for a frontier within one batch."""
    def no_pool(*a, **k):
        raise AssertionError("pool started for a small frontier")

    monkeypatch.setattr(covering, "_process_pool", no_pool)
    cert = verify_cover(data.hset("H2"), data.mapsys, 1, data.hset("H3"),
                        VerifyConfig(mean_value=True, threads=2))
    assert cert.verified


def _fresh_python(script):
    """Runs script in a fresh interpreter that imports revcover from this
    source tree."""
    src = os.path.dirname(os.path.dirname(covering.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_single_process_run_never_loads_the_pool():
    """The process pool is imported only when a check first shards: a fresh
    interpreter that builds the instance and certifies a relation at
    threads = 1 has loaded neither multiprocessing nor the pool module."""
    script = (
        "import sys\n"
        "from revcover.campaign import build_proof_data\n"
        "from revcover.covering import VerifyConfig, verify_cover\n"
        "d = build_proof_data()\n"
        "cert = verify_cover(d.hset('N1'), d.mapsys, 1, d.hset('N1'),\n"
        "                    VerifyConfig(mean_value=True, threads=1))\n"
        "assert cert.verified\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def _sharded_identity(threads):
    """The identity toy's failing exit and entry checks: their subtrees
    outgrow a batch, so threads > 1 shards them over the pool."""
    N = toy_hset(2, 1)
    return verify_cover(N, linear_map_system(np.eye(2)), 1, N,
                        VerifyConfig(budget=2_000, batch_size=64, threads=threads))


def test_one_pool_serves_every_check(data, monkeypatch):
    """plain-grid's N2=>N2 and H3=>N2 at threads 2 shard their checks over
    one pool, made once, and certify as one process does."""
    pools = _count_pools(monkeypatch)
    runs = {threads: [_outcome(verify_cover(data.hset(src), data.mapsys, 1, data.hset("N2"),
                                            VerifyConfig(threads=threads)))
                      for src in ("N2", "H3")]
            for threads in (1, 2)}
    assert pools == [2]
    assert runs[1] == runs[2]
    assert [r[:2] for r in runs[1]] == [(VERIFIED, -1)] * 2


def test_pool_replaced_after_a_worker_dies(monkeypatch):
    """A worker killed between checks breaks the pool; the next check gets
    a new pool and certifies as one process does."""
    pools = _count_pools(monkeypatch)
    one = _outcome(_sharded_identity(1))
    assert one[0] == INCONCLUSIVE
    assert _outcome(_sharded_identity(2)) == one
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    os.kill(workers[0].pid, signal.SIGKILL)
    # the pool's manager thread sees the death and ends the other worker
    deadline = time.monotonic() + 60
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, "the broken pool kept a worker"
        time.sleep(0.01)
    assert _outcome(_sharded_identity(2)) == one
    assert pools == [2, 2]


def test_pool_replaced_after_a_shard_raises(monkeypatch):
    """A shard that raises in a worker ends the check with its exception and
    discards the pool, pending shards included; the next check gets a new
    pool and certifies as one process does."""
    pools = _count_pools(monkeypatch)
    one = _outcome(_sharded_identity(1))
    parent = os.getpid()
    real_classify = covering._CellEngine.classify

    def classify(self, lo, hi, exits):
        if os.getpid() != parent:
            raise RuntimeError("shard failed")
        return real_classify(self, lo, hi, exits)

    with monkeypatch.context() as m:
        m.setattr(covering._CellEngine, "classify", classify)
        with pytest.raises(RuntimeError, match="shard failed"):
            _sharded_identity(2)  # its workers are forked with the failing classify
    assert multiprocessing.active_children() == []
    assert _outcome(_sharded_identity(2)) == one
    assert pools == [2, 2]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pool does not fork its workers")
def test_workers_forked_while_no_pool_thread_runs(monkeypatch):
    """A pool is replaced only after the old one's threads have stopped, so
    each worker is forked from a process running no thread but its own
    (Python 3.12+ warns that a fork beside other threads may deadlock)."""
    monkeypatch.setattr(covering, "cpu_count", lambda: 4)  # three workers are three
    threads = threading.active_count()
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(threading.active_count()) or real_fork())
    for workers in (2, 2, 3, 2):
        _sharded_identity(workers)
    assert forks == [threads] * 7  # 2 + 0 (reused) + 3 + 2 workers


def test_workers_end_with_the_interpreter():
    """A fresh interpreter that certifies on two workers exits cleanly: the
    pool is shut down by an exit hook, before the interpreter clears its
    modules (a pool collected after that prints an ignored AttributeError),
    so nothing is printed to stderr and no worker is left running."""
    script = (
        "import atexit, multiprocessing, sys\n"
        "import numpy as np\n"
        "from revcover import covering\n"
        "from revcover.covering import VerifyConfig, verify_cover\n"
        "# runs after every exit hook registered later, the pool's included\n"
        "atexit.register(lambda: covering._POOL and print('pool left', file=sys.stderr))\n"
        "from revcover.dynamics import linear_map_system\n"
        "from revcover.hset import HSet\n"
        "N = HSet('T', np.zeros(2), np.eye(2), 1, 1)\n"
        "verify_cover(N, linear_map_system(np.eye(2)), 1, N,\n"
        "             VerifyConfig(budget=2_000, batch_size=64, threads=2))\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n"
    )
    proc = _fresh_python(script)
    assert (proc.returncode, proc.stderr) == (0, "")
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_certificate_serialization_round_trip(data):
    """A certificate's dict survives a JSON round trip unchanged."""
    F = data.mapsys
    cert = verify_cover(data.hset("N1"), F, 1, data.hset("H1"), MV)
    d = cert.to_dict()
    back = json.loads(json.dumps(d))
    assert back == d
    assert cert.verified and back["status"] == VERIFIED and back["w"] == 1


def _without_wall_times(d):
    """d with every `wall_time_s` dropped, each checked to be a float
    rounded to 6 places first."""
    if not isinstance(d, dict):
        return d
    t = d.get("wall_time_s")
    assert t is None or (isinstance(t, float) and round(t, 6) == t)
    return {k: _without_wall_times(v) for k, v in d.items() if k != "wall_time_s"}


def test_certificate_dicts_are_pinned(data):
    """The full dicts of the certificates that a campaign report does not
    hold: an inconclusive relation with its worst cells, a degree failure
    with its failure text, and a backcovering with its transposed
    equivalent."""
    T = toy_hset(2, 1)
    far = HSet("far", np.array([1e200, 0.0, 0.0, 0.0]), np.eye(4), 2, 2)
    config = {"resolution": 2, "max_depth": 40, "threads": 1, "budget": 20_000_000,
              "fixed_grid": False, "mean_value": False, "batch_size": 8192}
    head = {"schema": "revcover-certificate/1", "source": "T", "target": "T", "iters": 1}

    def check(verdict, boxes, depth, exhausted, cell=None):
        return {"verdict": verdict, "boxes": boxes, "max_depth": depth, "refuted_cells": 0,
                "exhausted_subtrees": exhausted, "worst_cell": cell}

    def cell(depth, lo, hi, which):
        return {"root": 0, "depth": depth, "chart_lo": lo, "chart_hi": hi, "check": which}

    inconclusive = verify_cover(T, linear_map_system(np.eye(2)), 1, T,
                                VerifyConfig(budget=16, max_depth=30))
    degree_failure = verify_cover(far, data.mapsys, 3, far)
    back = verify_backcover(T, reversible_toy(4.0), 1, T, VerifyConfig())
    assert [_without_wall_times(c.to_dict()) for c in (inconclusive, degree_failure, back)] == [
        {**head, "map": "linear", "direction": "direct", "w": 1, "status": INCONCLUSIVE,
         "boxes": 32, "max_depth": 2,
         "checks": {"exit": check(INCONCLUSIVE, 16, 2, 4,
                                  cell(2, [-1.0, -0.5], [-1.0, -0.25], "exit")),
                    "entry": check(INCONCLUSIVE, 16, 1, 8,
                                   cell(1, [-1.0, -0.5], [-1.0, 0.0], "entry"))},
         "config": {**config, "max_depth": 30, "budget": 16}},
        {**head, "source": "far", "target": "far", "map": "F-quadratic-4d", "iters": 3,
         "direction": "direct", "w": None, "status": INCONCLUSIVE, "boxes": 0,
         "max_depth": 0, "checks": {}, "config": config,
         "failure": "degree computation failed: center orbit left the representable "
                    "range at step 1"},
        {**head, "map": "toy", "direction": "back", "w": 1, "status": VERIFIED,
         "boxes": 12, "max_depth": 0,
         "checks": {"exit": check(VERIFIED, 4, 0, 0), "entry": check(VERIFIED, 8, 0, 0),
                    "transposed_equivalent": {"source": "T^T", "target": "T^T",
                                              "map": "toy-inverse"}},
         "config": config},
    ]
