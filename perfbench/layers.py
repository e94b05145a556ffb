"""Layer sweeps: cell-kernel, map and interval-kernel throughput, each checked
by member sampling against exact rational arithmetic.

The inputs are random cell batches drawn from the run's seed. A sampled member
point of a box (both corners plus interior points) is pushed through an
independent exact implementation of the same formula with ``Fraction``; the
exact value must lie inside the enclosure the kernel returned. A kernel that
gets faster by returning too narrow an enclosure then fails the run.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

from revcover.covering import VerifyConfig, check_entry_condition, compute_degree
from revcover.interval import affine_batch, imat_vec_batch, imatmul_batch, imatvec_cellwise

BATCH = 1024
DIM = 4
SAMPLED_CELLS = 32
MEMBERS_PER_CELL = 3  # two opposite corners and one interior point

# the cell-kernel sweep: entry check on the whole chart boundary, fixed grid
KERNEL_RESOLUTION = 6  # 8 facets x 6^3 = 1,728 cells
KERNEL_RELATIONS = {1: ("N2", "N2"), 4: ("H1", "H2")}
KERNEL_BATCHES = (4, 64, 1024, 8192)
KERNEL_MIN_REPS = 2
KERNEL_MIN_SECONDS = 0.3

TIMING_CHUNKS = 3
CHUNK_SECONDS = 0.08


# --- exact reference formulas (independent of revcover.dynamics) ---

def _f(w1, w2):
    return w1 * (1 - w1) + 4 - w2, w2 * (1 - w2) + 4 + w1


def _F(z):
    x1, x2, y1, y2 = z
    f1, f2 = _f(x1 + y1, x2 + y2)
    g1, g2 = f1 / 2, f2 / 2
    return [-y1 + g1, -y2 + g2, x1 + g1, x2 + g2]


def _F_inverse(z):
    X1, X2, Y1, Y2 = z
    f1, f2 = _f(Y1 - X1, Y2 - X2)
    g1, g2 = f1 / 2, f2 / 2
    return [Y1 - g1, Y2 - g2, g1 - X1, g2 - X2]


def _Dg(w1, w2):
    h = Fraction(1, 2)
    return [[h - w1, -h], [h, h - w2]]


def _blocks(a, b, c, d):
    """4x4 matrix from 2x2 blocks [[a, b], [c, d]]."""
    return [a[i] + b[i] for i in range(2)] + [c[i] + d[i] for i in range(2)]


def _plus(A, s):
    """A + s*I for a 2x2 matrix."""
    return [[A[i][j] + (s if i == j else 0) for j in range(2)] for i in range(2)]


def _neg(A):
    return [[-x for x in row] for row in A]


def _DF(z):
    x1, x2, y1, y2 = z
    Dg = _Dg(x1 + y1, x2 + y2)
    return _blocks(Dg, _plus(Dg, -1), _plus(Dg, 1), Dg)


def _DF_inverse(z):
    X1, X2, Y1, Y2 = z
    Dg = _Dg(Y1 - X1, Y2 - X2)
    return _blocks(Dg, _plus(_neg(Dg), 1), _neg(_plus(Dg, 1)), Dg)


def _matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _matmul(A, B):
    return [[sum(A[i][j] * B[j][c] for j in range(len(B))) for c in range(len(B[0]))]
            for i in range(len(A))]


def _exact(a):
    """Nested lists of exact Fractions for a float array."""
    a = np.asarray(a, dtype=float)
    return Fraction(float(a)) if a.ndim == 0 else [_exact(x) for x in a]


def _flat(a):
    if isinstance(a, list):
        for x in a:
            yield from _flat(x)
    else:
        yield a


def _inside(lo, hi, exact) -> bool:
    return all(Fraction(float(l)) <= e <= Fraction(float(h))
               for l, h, e in zip(np.ravel(lo), np.ravel(hi), _flat(exact)))


class Containment:
    """Tally of member-sampling checks: sampled members and violations."""

    def __init__(self):
        self.samples = 0
        self.violations: list[str] = []

    def check(self, kernel: str, lo, hi, exact) -> None:
        self.samples += 1
        if not _inside(lo, hi, exact):
            self.violations.append(kernel)


def _member(lo, hi, rng):
    """A random float point of the box [lo, hi] (any shape)."""
    return np.clip(lo + rng.random(lo.shape) * (hi - lo), lo, hi)


def _members(lo, hi, rng):
    """Both corners of the box, then interior points."""
    return [lo, hi] + [_member(lo, hi, rng) for _ in range(MEMBERS_PER_CELL - 2)]


def _random_cells(rng, shape, centre_scale, log_radius):
    c = rng.uniform(-centre_scale, centre_scale, size=shape)
    r = 10.0 ** rng.uniform(*log_radius, size=shape)
    return c - r, c + r


class LayerInputs:
    """The seeded cell batches fed to the map and interval kernels."""

    def __init__(self, rng):
        self.lo, self.hi = _random_cells(rng, (BATCH, DIM), 3.0, (-6, -1))
        self.M = rng.normal(size=(DIM, DIM))
        self.x = rng.normal(size=DIM)
        self.Ml, self.Mh = _random_cells(rng, (DIM, DIM), 1.0, (-6, -2))
        self.Al, self.Ah = _random_cells(rng, (BATCH, DIM, DIM), 1.0, (-6, -2))
        self.Bl, self.Bh = _random_cells(rng, (BATCH, DIM, DIM), 1.0, (-6, -2))
        self.sample = rng.choice(BATCH, size=SAMPLED_CELLS, replace=False)


def _maps(mapsys) -> dict:
    """name -> (MapSystem, exact map, exact Jacobian)."""
    return {"F": (mapsys, _F, _DF),
            "F-inverse": (mapsys.require_inverse(), _F_inverse, _DF_inverse)}


def _interval_kernels(inp: LayerInputs):
    return {
        "affine_batch": lambda: affine_batch(inp.M, inp.x, inp.lo, inp.hi),
        "imat_vec_batch": lambda: imat_vec_batch(inp.Ml, inp.Mh, inp.lo, inp.hi),
        "imatmul_batch": lambda: imatmul_batch(inp.Al, inp.Ah, inp.Bl, inp.Bh),
        "imatvec_cellwise": lambda: imatvec_cellwise(inp.Al, inp.Ah, inp.lo, inp.hi),
    }


def check_containment(mapsys, inp: LayerInputs, rng) -> Containment:
    """Member-sampling check of every map and interval kernel on the inputs."""
    tally = Containment()
    for name, (m, point, jac) in _maps(mapsys).items():
        elo, ehi = m.eval_batch(inp.lo, inp.hi)
        jlo, jhi = m.jac_batch(inp.lo, inp.hi)
        for i in inp.sample:
            for z in _members(inp.lo[i], inp.hi[i], rng):
                zq = _exact(z)
                tally.check(f"dynamics.{name}.eval_batch", elo[i], ehi[i], point(zq))
                tally.check(f"dynamics.{name}.jac_batch", jlo[i], jhi[i], jac(zq))

    out = {name: fn() for name, fn in _interval_kernels(inp).items()}
    Mq, xq = _exact(inp.M), _exact(inp.x)
    for i in inp.sample:
        for z in _members(inp.lo[i], inp.hi[i], rng):
            zq = _exact(z)
            lo, hi = out["affine_batch"]
            tally.check("interval.affine_batch", lo[i], hi[i],
                        [a + b for a, b in zip(_matvec(Mq, zq), xq)])
            lo, hi = out["imat_vec_batch"]
            tally.check("interval.imat_vec_batch", lo[i], hi[i],
                        _matvec(_exact(_member(inp.Ml, inp.Mh, rng)), zq))
            A = _exact(_member(inp.Al[i], inp.Ah[i], rng))
            lo, hi = out["imatvec_cellwise"]
            tally.check("interval.imatvec_cellwise", lo[i], hi[i], _matvec(A, zq))
        for _ in range(MEMBERS_PER_CELL):
            A = _exact(_member(inp.Al[i], inp.Ah[i], rng))
            B = _exact(_member(inp.Bl[i], inp.Bh[i], rng))
            lo, hi = out["imatmul_batch"]
            tally.check("interval.imatmul_batch", lo[i], hi[i], _matmul(A, B))
    return tally


def _rate(fn, items: int) -> float:
    """Median items/s over timing chunks; each chunk repeats fn for about
    CHUNK_SECONDS."""
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(CHUNK_SECONDS / max(time.perf_counter() - t0, 1e-6)))
    rates = []
    for _ in range(TIMING_CHUNKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        rates.append(items * reps / (time.perf_counter() - t0))
    return statistics.median(rates)


def map_and_interval_rates(mapsys, inp: LayerInputs, tracer) -> dict:
    """dynamics.*.boxes_per_s and interval.*.per_s at batch BATCH."""
    metrics = {}
    for name, (m, _, _) in _maps(mapsys).items():
        for kernel in ("eval_batch", "jac_batch"):
            fn = getattr(m, kernel)
            with tracer.span(f"dynamics.{kernel}"):
                rate = _rate(lambda: fn(inp.lo, inp.hi), BATCH)
            metrics[f"dynamics.{name}.{kernel}.boxes_per_s"] = rate
    for name, fn in _interval_kernels(inp).items():
        with tracer.span(f"interval.{name}"):
            rate = _rate(fn, BATCH)
        metrics[f"interval.{name}.per_s"] = rate
    return metrics


def kernel_sweep(data, rng, tracer) -> dict:
    """kernel.{plain,mv}.k{1,4}.b{...}.boxes_per_s -> (rate, checks timed).

    The entry check on a fixed grid sends every cell through the cell kernel
    exactly once at the given batch size. Configurations run in a seeded
    order."""
    degrees = {k: compute_degree(data.hset(s), data.mapsys, k, data.hset(d))
               for k, (s, d) in KERNEL_RELATIONS.items()}
    configs = [(mode, k, b) for mode in ("plain", "mv") for k in KERNEL_RELATIONS
               for b in KERNEL_BATCHES]
    metrics = {}
    for idx in rng.permutation(len(configs)):
        mode, k, b = configs[idx]
        src, dst = KERNEL_RELATIONS[k]
        cfg = VerifyConfig(mean_value=(mode == "mv"), fixed_grid=True,
                           resolution=KERNEL_RESOLUTION, batch_size=b)
        times, boxes = [], 0
        start = time.perf_counter()
        while len(times) < KERNEL_MIN_REPS or time.perf_counter() - start < KERNEL_MIN_SECONDS:
            with tracer.span("kernel.check_entry_condition") as s:
                res = check_entry_condition(data.hset(src), data.mapsys, k, data.hset(dst),
                                            cfg, degrees[k])
            times.append(s["end"] - s["start"])
            boxes = res.stats.boxes
        metrics[f"kernel.{mode}.k{k}.b{b}.boxes_per_s"] = (boxes / statistics.median(times),
                                                           len(times))
    return metrics
