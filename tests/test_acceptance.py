"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""

import time

import numpy as np

from revcover.campaign import RELATIONS, enumerate_words
from revcover.covering import VERIFIED, VerifyConfig, verify_backcover, verify_cover
from revcover.dynamics import linear_map_system, reversible_quadratic_map
from revcover.hset import HSet, sym_image
from revcover.interval import _centered_image, imat_inverse, imatmul_batch

from conftest import (
    contains,
    cube,
    exact_affine,
    fixed_point_equations_residual,
    float_sweep,
    matmul,
    matvec,
    outside,
    reversibility_encloses_identity,
    reversibility_residual,
    sample,
)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_full_campaign(campaign):
    """Six relations with degrees (+1,-1,+1,-1,-1,-1), symmetry, disjointness,
    fixed-space disks, exit 0, within the wall-time bound; box count reported
    next to the reference fixed-grid cost."""
    t0 = time.perf_counter()
    report, _ = campaign
    r = report.report
    statuses = [rel["status"] for rel in r["relations"]]
    degrees = [rel["w"] for rel in r["relations"]]
    ok = (
        report.exit_code == 0
        and statuses == [VERIFIED] * 6
        and degrees == [w for *_, w in RELATIONS]
        and r["disjoint"]["N1,N2"] is True
        and {k: v["ok"] for k, v in r["fix_disks"].items()} == {"N1": True, "N2": True}
        and r["totals"]["boxes"] > 0
        and r["reference_cost"]["boxes"] == 220_000_000
        and r["totals"]["wall_time_s"] < 3600.0
        and (time.perf_counter() - t0) < 3600.0
    )
    _report(
        "criterion 1: full campaign",
        ok,
        f"degrees={degrees}, boxes={r['totals']['boxes']} "
        f"(reference {r['reference_cost']['boxes']:.1e}), "
        f"wall={r['totals']['wall_time_s']}s",
    )


def test_criterion_2_constant_fidelity(data):
    F = data.mapsys
    P1, P2 = data.hset("N1").center, data.hset("N2").center
    r1 = float(np.max(np.abs(F.image(P1) - P1)))
    r2 = float(np.max(np.abs(F.image(P2) - P2)))
    e1 = max(abs(x) for x in fixed_point_equations_residual(P1))
    e2 = max(abs(x) for x in fixed_point_equations_residual(P2))
    ok = r1 < 1e-10 and r2 < 1e-10 and e1 < 1e-9 and e2 < 1e-9
    _report("criterion 2: constant fidelity", ok,
            f"|F(P1)-P1|={r1:.2e}, |F(P2)-P2|={r2:.2e}, eq residuals {e1:.2e}/{e2:.2e}")


def test_criterion_3_q_point_constraints(data):
    F = data.mapsys
    Q1 = data.hset("H1").center
    back = float(np.max(np.abs(F.require_inverse().image(Q1) - data.hset("N1").center)))
    z = Q1.copy()
    for _ in range(10):
        z = F.image(z)
    fwd = float(np.max(np.abs(z - data.hset("N2").center)))
    ok = back < 0.006 and fwd < 0.001
    _report("criterion 3: Q-point constraints", ok,
            f"|F^-1(Q1)-P1|={back:.6f} (<0.006), |F^10(Q1)-P2|={fwd:.6f} (<0.001), "
            f"Q1 the same-frame reading")


def test_criterion_4_reversibility(rng):
    F = reversible_quadratic_map()
    worst = 0.0
    for _ in range(10_000):
        z = rng.uniform(-5, 5, size=4)
        worst = max(worst, reversibility_residual(F, z))
    boxes_ok = all(
        reversibility_encloses_identity(F, cube(rng.uniform(-3, 3, size=4), 0.05))
        for _ in range(100)
    )
    ok = worst < 1e-9 and boxes_ok
    _report("criterion 4: reversibility suite", ok,
            f"max residual {worst:.2e} over 1e4 points; 100 interval boxes enclosed")


def test_criterion_5_interval_soundness(data, rng):
    checks = 0
    violations = 0

    def crosscheck(vals, lo, hi):
        nonlocal checks, violations
        checks += vals.size
        violations += int(np.sum((vals < lo) | (vals > hi)))

    # the two wide kernels, the product imatmul_batch and the centered
    # image p + T [-rad, rad], on 300 cells of 4 x 4 intervals, at 18 member
    # points each in exact arithmetic (every float is an integer times a
    # power of two)
    def members(lo, hi):
        return np.clip(lo + rng.uniform(size=lo.shape) * (hi - lo), lo, hi)

    A, B, T = (np.sort(rng.uniform(-1e3, 1e3, size=(2, 300, 4, 4)), axis=0) for _ in range(3))
    p = np.sort(rng.uniform(-1e3, 1e3, size=(2, 300, 4)), axis=0)
    rad = rng.uniform(0, 1e3, size=(300, 4))
    lo, hi = imatmul_batch(*A, *B)
    clo, chi = _centered_image(*p, *T, rad)
    for _ in range(18):
        checks += lo.size + clo.size
        violations += outside(lo, hi, *exact_affine(members(*A), members(*B)))
        X, e = exact_affine(members(*T), members(-rad, rad)[:, :, None],
                            members(*p)[:, :, None])
        violations += outside(clo, chi, X[:, :, 0], e)

    for _ in range(10):
        A = rng.normal(size=(4, 4))
        lo = rng.uniform(-2, 2, size=4)
        v = lo, lo + rng.uniform(0, 1, size=4)
        img = matvec((A, A), v)
        pts = sample(v, rng, 500)
        crosscheck(pts @ A.T, img[0][None, :], img[1][None, :])
        B = rng.normal(size=(4, 4))
        prod = matmul((A, A), (B, B))
        crosscheck(A @ B, *prod)

    resid_ok = True
    defects = []
    for name in ("N1", "N2"):
        Mat = data.hset(name).matrix
        J = imat_inverse(Mat)
        resid = matmul((J.lo, J.hi), (Mat, Mat))
        resid_ok &= contains(resid, np.eye(4))
        defect = float(max(np.max(np.abs(resid[0] - np.eye(4))),
                           np.max(np.abs(resid[1] - np.eye(4)))))
        defects.append(defect)
        resid_ok &= defect < 1e-12
    ok = checks >= 100_000 and violations == 0 and resid_ok
    _report("criterion 5: interval soundness", ok,
            f"{checks} containment checks, {violations} violations; "
            f"inverse residual defects {defects[0]:.2e}/{defects[1]:.2e}")


def test_criterion_6_toy_oracle_crosscheck(rng):
    N = HSet("T", np.zeros(2), np.eye(2), 1, 1)
    good = linear_map_system(np.diag([3.0, 1 / 3]), name="toy")
    flip = linear_map_system(np.diag([-3.0, 1 / 3]), name="toyf")
    ident = linear_map_system(np.eye(2))
    c1 = verify_cover(N, good, 1, N, VerifyConfig())
    c2 = verify_cover(N, flip, 1, N, VerifyConfig())
    c3 = verify_cover(N, ident, 1, N, VerifyConfig(max_depth=8, budget=4000))
    sweep_good = float_sweep(N, good, 1, N, rng)
    sweep_flip = float_sweep(N, flip, 1, N, rng)
    ok = (
        c1.verified and c1.w == 1
        and c2.verified and c2.w == -1
        and not c3.verified
        and sweep_good[0] > 1.0 and sweep_good[1] < 1.0
        and sweep_flip[0] > 1.0 and sweep_flip[1] < 1.0
    )
    _report("criterion 6: toy oracle cross-check", ok,
            f"w=({c1.w},{c2.w}), identity status={c3.status}, "
            f"sweeps exit/entry {sweep_good[0]:.2f}/{sweep_good[1]:.2f}")


def test_criterion_7_symbolic_dynamics(campaign):
    _, graph = campaign
    ok = all(len(enumerate_words(graph, L)) == 2**L for L in range(1, 13))
    _report("criterion 7: symbolic dynamics", ok, "2^L words for L<=12")


def test_criterion_8_symmetric_closure_consistency(campaign, data):
    report, _ = campaign
    cc = report.report["backcover_crosscheck"]
    # re-derive the direct certificate here as well, independent of the report
    S = data.reversor
    cert = verify_backcover(
        sym_image(S, data.hset("H3")), data.mapsys, 1, sym_image(S, data.hset("H2")),
        VerifyConfig(mean_value=True),
    )
    ok = (
        cc["abs_w_agrees"] is True
        and cc["direct_status"] == VERIFIED
        and cert.status == VERIFIED
        and abs(cert.w) == abs(cc["derived_w"])
    )
    _report("criterion 8: symmetric-closure consistency", ok,
            f"derived w={cc['derived_w']}, direct w={cert.w} ({cert.status})")
