"""Rigorous verification of covering and backcovering relations.

A relation N =(map^k)=> M is certified by three ingredients:

  * degree: the unstable block of the chart derivative at the source center
    must have a determinant enclosure of certified sign w. The derivative
    is read off the same centered Jacobian chain that the mean-value cell
    engine computes for every cell (`_CellEngine.chain`), here for the point
    cell at chart zero;
  * exit condition: every cell of a grid covering the exit wall (boundary of
    the unstable cube times the stable cube) maps, hulled with the linear
    image used by the convex homotopy, strictly clear of the target's
    unstable cube in some unstable coordinate;
  * entry condition: every cell of a grid covering the full chart boundary
    maps strictly inside the target's open stable cube.

Failing cells are bisected along their widest coordinate up to a depth cap,
within a box budget. Only the convex homotopy between the chart map and its
linearization is certified, so a failed run is "inconclusive", never a
disproof; "refuted-cell" means a cell's whole enclosure provably violates
the checked condition, so this certification strategy can never succeed for
the given h-sets.

The budget applies per check (exit and entry each), and is apportioned
evenly over the check's initial grid cells (its roots); each root's
allowance counts the root itself. Refinement runs on one level-synchronous
frontier that holds the cells of all failing roots with a root-index
column: all of a root's cells at one depth are evaluated, in level order and
up to the root's remaining allowance, before any of its deeper cells. A
root is retired by a refuted cell, else by running out of allowance, else
by a failing cell at the depth cap or of zero width (which bisection cannot
shrink), each decided within a level. Each root's outcome and counts thus
depend only on its own subtree and the config, so verdicts and statistics
are independent of the thread count and of `batch_size`, which only sizes
the kernel calls. Large frontiers are split (see `_Refinement`), which
keeps memory bounded, and are sharded by root over worker processes once
they outgrow one batch. The shards are scheduled dynamically: a part goes to
the pool as a fixed small number of shards per worker (`_SHARDS_PER_WORKER`),
and each worker takes the next shard when it finishes one, so a worker whose
roots turn out light does not sit idle while another finishes heavy ones.
A shard is the check's refinement itself, with its roots and its cells,
pickled as it is, cell engine and map included; the worker runs it and
returns its roots' rows. With more than one worker, a map that does not
pickle is refused with DomainError before any cell is evaluated.

The process keeps one worker pool (`_worker_pool`). The first check that
shards starts it, and later checks reuse it. It is replaced when the worker
count changes or a worker dies, discarded when a check is interrupted while
its shards run, and shut down at exit. Idle workers keep their memory
between checks.
"""

from __future__ import annotations

import atexit
import pickle
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .dynamics import MapSystem
from .hset import HSet, _facet_cells_arrays, transpose
from .interval import (
    DomainError,
    IMatrix,
    IndeterminateSignError,
    _imat_vec_midrad,
    _mid_rad,
    _radius_image,
    _split_matrix,
    affine_batch,
    det_sign,
    iadd,
    imatmul_batch,
)

VERIFIED = "verified"
REFUTED = "refuted-cell"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for one relation verification.

    resolution: initial subdivisions per free chart coordinate of each facet.
    max_depth: bisection depth cap for failing cells.
    threads: worker processes for cell verification (verdict-invariant).
    budget: box budget per check (exit and entry each, so a relation may
        spend up to twice it), apportioned evenly over the check's initial
        cells. The initial grid is always evaluated in full, so only a
        budget below the number of initial cells is exceeded.
    fixed_grid: disable bisection; the initial uniform grid must decide.
    mean_value: evaluate cells in centered form (point image plus interval
        Jacobian times radius) instead of plain stepwise composition.
    batch_size: cells per kernel call (verdict- and statistics-invariant);
        a call never spans more than one frontier part (_PART_CELLS).
    """

    resolution: int = 2
    max_depth: int = 40
    threads: int = 1
    budget: int = 20_000_000
    fixed_grid: bool = False
    mean_value: bool = False
    batch_size: int = 2048

    def __post_init__(self):
        for name, least in (("resolution", 1), ("max_depth", 0), ("threads", 1),
                            ("budget", 1), ("batch_size", 1)):
            value = getattr(self, name)
            if value < least:
                raise DomainError(f"invalid verification config: {name} must be >= {least}, "
                                  f"got {value}")


@dataclass
class CheckStats:
    boxes: int = 0
    max_depth: int = 0
    refuted_cells: int = 0
    exhausted_subtrees: int = 0
    wall_time: float = 0.0


@dataclass
class CheckResult:
    verdict: str
    stats: CheckStats
    worst_cell: Optional[dict] = None


@dataclass
class DegreeData:
    """The chart derivative at the source center, and the certified
    determinant sign w of its unstable block."""

    w: int
    chart_derivative: IMatrix


@dataclass
class CoveringCertificate:
    source: str
    target: str
    map: str
    iters: int
    direction: str  # "direct" | "back"
    w: Optional[int]
    status: str
    boxes: int = 0
    max_depth: int = 0
    wall_time: float = 0.0
    checks: dict = field(default_factory=dict)
    config: Optional[dict] = None
    failure: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_dict(self) -> dict:
        """The fields under the certificate schema, `wall_time` as
        "wall_time_s" (rounded to 6 places); `failure` only when there is
        one."""
        d = {"schema": "revcover-certificate/1", **asdict(self)}
        d["wall_time_s"] = round(d.pop("wall_time"), 6)
        if not self.failure:
            del d["failure"]
        return d


def _require_relation(N: HSet, mapsys: MapSystem, k: int, M: HSet) -> None:
    """Raises DomainError unless N =(map^k)=> M is a relation that can be
    checked at all: h-sets and map of one dimension, the same unstable
    dimension, and k >= 1."""
    if not N.dim == M.dim == mapsys.dim:
        raise DomainError(f"dimensions differ: h-sets {N.dim} and {M.dim}, map {mapsys.dim}")
    if N.u != M.u:
        raise DomainError("covering requires matching unstable/stable dimensions")
    if k < 1:
        raise DomainError(f"the iterate count must be >= 1, got {k}")


def compute_degree(N: HSet, mapsys: MapSystem, k: int, M: HSet) -> DegreeData:
    """Chart derivative at the source center and its certified degree.

    The derivative of c_M o map^k o c_N^{-1} at chart zero is the centered
    chain T of the point cell 0 (_CellEngine.chain): each Jacobian is taken
    over an enclosure of the exact center orbit, so T encloses the exact
    derivative. The degree is the determinant sign of its u x u block. A
    mismatched relation raises DomainError (_require_relation), and so does
    a center orbit that leaves the representable range, naming the first
    step whose image is not finite.
    """
    _require_relation(N, mapsys, k, M)
    zero = np.zeros((1, N.dim))
    # overflow to infinite bounds is sound and handled, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p, (tlo, thi) = _CellEngine(N, mapsys, k, M).chain(zero, zero, zero)
        if not all(np.isfinite(a).all() for a in (*p, tlo, thi)):
            z = (N.center[None, :],) * 2
            for step in range(1, k + 1):
                z = mapsys.eval_batch(*z)
                if not np.isfinite(z).all():
                    raise DomainError(
                        f"center orbit left the representable range at step {step}")
            raise DomainError("the chart derivative at the source center is not finite")
    u = N.u
    return DegreeData(det_sign(IMatrix(tlo[0, :u, :u], thi[0, :u, :u])),
                      IMatrix(tlo[0], thi[0]))


class _CellEngine:
    """Batch evaluator of the chart map c_M o map^k o c_N^{-1} of one
    relation N =(map^k)=> M, and of the exit or entry condition (`which`)
    on its cells.

    It keeps the arrays it reads off the two h-sets, not the h-sets, which
    a worker process cannot unpickle: N's matrix, center and unstable
    dimension, M's center, and M's inverse, split into midpoint and radius
    once, here. The exit check's linear map, the unstable columns of the
    chart `derivative`, is split likewise."""

    def __init__(self, N, mapsys, k, M, which=None, mean_value=False, derivative=None):
        self.mapsys = mapsys
        self.k = k
        self.src_matrix = N.matrix
        self.src_center = N.center
        self.u = N.u
        self.inv = _split_matrix(M.inv_matrix.lo, M.inv_matrix.hi)
        self.tgt_center = M.center
        self.linear = (_split_matrix(derivative.lo[:, :N.u], derivative.hi[:, :N.u])
                       if which == "exit" else None)
        self.which = which
        self.mean_value = mean_value

    def chain(self, mid, lo, hi):
        """The midpoint images p and the Jacobian chain T of the centered
        form, for a batch of cells [lo, hi] (B, n) with a point mid (B, n)
        in each.

        p encloses the chart image inv(M_M) (map^k(M_N mid + x_N) - x_M) of
        each midpoint, and T = inv(M_M) G_k ... G_1 M_N holds G_i, the map's
        Jacobian over the cell's (i-1)-th step image. Returns (plo, phi)
        (B, n) and (Tlo, Thi) (B, n, n). Each product is in the cheapest
        form that keeps it tight:
          * G_1 M_N: midpoint-radius, as M_N is a point (affine_batch on the
            rows of G_1);
          * G_i J for i >= 2: inf-sup, as both factors are wide
            (imatmul_batch);
          * inv(M_M) J: midpoint-radius, as the inverse is thin (on the
            columns of J).

        Rows travel together through the chain: the midpoints (as point
        cells) above the cells through M_N and through each of the k map
        steps, whose Jacobian sees the cell rows only; then the midpoint
        images, shifted by the target center, above the columns of J,
        shifted by 0, through inv(M_M). Every kernel treats each row on its
        own, so each row comes out bit for bit as it would alone.
        """
        nb, n = lo.shape
        # rows :nb are the midpoints and their images, rows nb: the cells'
        vlo, vhi = affine_batch(self.src_matrix, self.src_center,
                                np.concatenate((mid, lo)), np.concatenate((mid, hi)))
        for step in range(self.k):
            glo, ghi = self.mapsys.jac_batch(vlo[nb:], vhi[nb:])
            if step == 0:
                rows = affine_batch(self.src_matrix.T, 0.0, glo.reshape(-1, n),
                                    ghi.reshape(-1, n))
                jlo, jhi = (a.reshape(nb, n, n) for a in rows)
            else:
                jlo, jhi = imatmul_batch(glo, ghi, jlo, jhi)
            vlo, vhi = self.mapsys.eval_batch(vlo, vhi)
        # below the midpoint images, row nb + (b, j) is column j of cell b's J
        slo, shi = (np.concatenate((v[:nb], a.transpose(0, 2, 1).reshape(-1, n)))
                    for v, a in ((vlo, jlo), (vhi, jhi)))
        center = np.zeros_like(slo)
        center[:nb] = self.tgt_center
        plo, phi = _imat_vec_midrad(*self.inv, slo, shi, center)
        return (plo[:nb], phi[:nb]), tuple(a[nb:].reshape(nb, n, n).transpose(0, 2, 1)
                                           for a in (plo, phi))

    def _chart_image(self, lo, hi):
        """Enclosure of the chart map over each cell, (B, n) lo/hi.

        Plain: the cell is pushed through M_N, the k steps of the map and
        inv(M_M) in turn. Centered (mean value): with the cell inside
        mid +- rad (_mid_rad; mid lies in the cell, so the segment from it
        to any point of the cell does too), the image of the cell lies in
        p + T [-rad, rad] for the midpoint image p and the Jacobian chain T
        of `chain`. T [-rad, rad] is taken as [-s, s] with s >= |T| rad, as
        the radius is centered (_radius_image).
        """
        if not self.mean_value:
            vlo, vhi = affine_batch(self.src_matrix, self.src_center, lo, hi)
            for _ in range(self.k):
                vlo, vhi = self.mapsys.eval_batch(vlo, vhi)
            return _imat_vec_midrad(*self.inv, vlo, vhi, self.tgt_center)
        mid, rad = _mid_rad(lo, hi)
        (plo, phi), T = self.chain(mid, lo, hi)
        s = _radius_image(*T, rad)
        return iadd(plo, phi, -s, s)

    def classify(self, lo, hi):
        """Returns (passed, refuted) boolean masks for a batch of chart cells.

        Enclosures that overflow or degrade to NaN simply fail both masks and
        are refined like any other failing cell.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._classify(lo, hi)

    def _classify(self, lo, hi):
        clo, chi = self._chart_image(lo, hi)
        u = self.u
        if self.which == "exit":
            lxlo, lxhi = _imat_vec_midrad(*self.linear, lo[:, :u], hi[:, :u], 0.0)
            zlo = np.minimum(clo, lxlo)
            zhi = np.maximum(chi, lxhi)
            passed = np.zeros(len(lo), dtype=bool)
            for i in range(u):
                passed |= (zlo[:, i] > 1.0) | (zhi[:, i] < -1.0)
            # the plain image landing strictly inside the open target cube
            # violates the homotopy's t=0 condition for every cell point
            refuted = np.ones(len(lo), dtype=bool)
            for i in range(lo.shape[1]):
                refuted &= (clo[:, i] > -1.0) & (chi[:, i] < 1.0)
        else:
            passed = np.ones(len(lo), dtype=bool)
            refuted = np.zeros(len(lo), dtype=bool)
            for i in range(u, lo.shape[1]):
                passed &= (clo[:, i] > -1.0) & (chi[:, i] < 1.0)
                refuted |= (clo[:, i] >= 1.0) | (chi[:, i] <= -1.0)
        return passed, refuted & ~passed


def _runs(root):
    """The start and the length of each run of equal values of a sorted
    root column."""
    bounds = np.flatnonzero(np.concatenate(([True], root[1:] != root[:-1], [True])))
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _bisect_cells(lo, hi, root):
    """Halves each cell along its widest coordinate, for cells with a
    sorted root column. The halves and their root column come in level
    order: per root, the left halves of its cells and then their right
    halves (for a single root, all left halves and then all right halves).

    The children are gathered from their parents straight into place: the
    left half of cell j of a root whose cells start at index s goes to
    j + s, and its right sibling count(root) further on.
    """
    n = len(lo)
    r = np.arange(n)
    ax = np.argmax(hi - lo, axis=1)
    mid = 0.5 * (lo[r, ax] + hi[r, ax])
    start, count = _runs(root)
    left = r + np.repeat(start, count)
    right = left + np.repeat(count, count)
    parent = np.empty(2 * n, dtype=np.intp)
    parent[left] = r
    parent[right] = r
    clo = np.take(lo, parent, axis=0)
    chi = np.take(hi, parent, axis=0)
    chi[left, ax] = mid
    clo[right, ax] = mid
    return clo, chi, np.take(root, parent)


def _cell_record(root, depth, lo, hi, which):
    return {
        "root": int(root),
        "depth": int(depth),
        "chart_lo": [float(x) for x in lo],
        "chart_hi": [float(x) for x in hi],
        "check": which,
    }


_ACTIVE, _REFUTED, _EXHAUSTED = 0, 1, 2

# the per-root arrays of a _Refinement, which a worker returns for its shard
_PER_ROOT = ("boxes", "depth", "status", "cell_depth", "cell_lo", "cell_hi")

# A part holding more cells than this is split before it is evaluated. The
# split decides the statistics of a failing root whose level outgrows it, so
# it is a constant and not cfg.batch_size: statistics then do not depend on
# the batch size, and memory stays bounded for every batch size.
_PART_CELLS = 2048

# Shards per worker process when a part is spread over the pool. The work of
# a root cannot be foreseen when it is sharded (every failing root then holds
# the same cells), so one shard per worker can leave a worker idle while the
# other finishes the heavy roots; more shards than workers let the pool even
# the load out. Few roots per shard would shrink each level below a useful
# kernel batch, so the number is a small constant, not one shard per root.
_SHARDS_PER_WORKER = 4


def _process_pool(workers):
    """A pool of `workers` processes. The pool machinery (multiprocessing,
    and with it socket and subprocess) is imported here, when a check first
    shards, so a run that never shards does not load it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


_POOL = None  # (workers, pool): the process's worker pool, see _worker_pool


def _worker_pool(workers):
    """The process's pool of `workers` processes, shared by every check that
    shards. A pool is made only when there is none, when the worker count
    changed or when a worker died (the pool is broken); the old pool is shut
    down first, so no worker is forked while another pool's manager thread
    runs. There is no lock: checks are run from one thread."""
    global _POOL
    if _POOL is not None and (_POOL[0] != workers or _POOL[1]._broken):
        _shutdown_pool()
    if _POOL is None:
        _POOL = (workers, _process_pool(workers))
        # registered after the pool machinery's own exit hooks, so it runs
        # before them; unregister keeps it registered once
        atexit.unregister(_shutdown_pool)
        atexit.register(_shutdown_pool)
    return _POOL[1]


def _shutdown_pool():
    """Shuts the shared pool down, if there is one, and cancels the shards
    it has not started."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(cancel_futures=True)


class _Refinement:
    """Level-synchronous refinement of one check's initial cells (roots).

    A part is a set of cells of one depth, grouped by root and, within a
    root, in level order; `root` is its root-index column. Each step
    evaluates a whole level of a part and retires the roots it decides. A
    part larger than _PART_CELLS is split in two, by roots while it holds
    several and by cells once it holds one, and the first half is finished
    before the second is started. A root's outcome and counts therefore
    depend only on its own subtree and the config, whichever roots share
    its parts, whatever the batch size and however the roots are sharded
    over worker processes; so shards may finish in any order, and their
    results are merged by root.
    """

    def __init__(self, engine, n_roots, allowance, max_depth, batch_size):
        self.engine = engine
        self.allowance = allowance
        self.max_depth = max_depth
        self.batch_size = batch_size
        dim = engine.src_matrix.shape[1]
        self.boxes = np.zeros(n_roots, dtype=np.int64)
        self.depth = np.zeros(n_roots, dtype=np.int64)
        self.status = np.zeros(n_roots, dtype=np.int8)
        # the cell that retired each root, and its depth
        self.cell_depth = np.zeros(n_roots, dtype=np.int64)
        self.cell_lo = np.zeros((n_roots, dim))
        self.cell_hi = np.zeros((n_roots, dim))

    def run(self, lo, hi, root, depth, workers=1):
        """Refine a part to completion. With workers > 1, a part of several
        roots that outgrows one batch is sharded by root over the process's
        worker pool."""
        parts = [(lo, hi, root, depth)]
        while parts:
            lo, hi, root, depth = parts.pop()
            live = self.status[root] == _ACTIVE
            if not live.all():
                lo, hi, root = lo[live], hi[live], root[live]
            n = len(root)
            if n == 0:
                continue
            several = root[0] != root[-1]
            if workers > 1 and several and n > min(self.batch_size, _PART_CELLS):
                self._shard(workers, lo, hi, root, depth)
            elif n > _PART_CELLS:
                start, _ = _runs(root)
                cut = start[len(start) // 2] if several else n // 2
                parts.append((lo[cut:].copy(), hi[cut:].copy(), root[cut:].copy(), depth))
                parts.append((lo[:cut].copy(), hi[:cut].copy(), root[:cut].copy(), depth))
            else:
                nxt = self._level(lo, hi, root, depth)
                if nxt is not None:
                    parts.append((*nxt, depth + 1))

    def _level(self, lo, hi, root, depth):
        """Evaluates one level of a part: each root's cells in level order up
        to its remaining allowance. Retires a root on a refuted cell, else on
        running out of allowance, else on a failing cell at the depth cap or
        of zero width. Returns the next level of the roots still active, or
        None."""
        # root is sorted, so each root's cells are one run
        start, count = _runs(root)
        ids = root[start]
        room = self.allowance - self.boxes[ids]
        if (count <= room).all():
            elo, ehi, eroot = lo, hi, root
        else:
            rank = np.arange(len(root)) - np.repeat(start, count)
            take = rank < np.repeat(room, count)
            elo, ehi, eroot = lo[take], hi[take], root[take]
        passed = np.empty(len(eroot), dtype=bool)
        refuted = np.empty(len(eroot), dtype=bool)
        for s in range(0, len(eroot), self.batch_size):
            sl = slice(s, s + self.batch_size)
            passed[sl], refuted[sl] = self.engine.classify(elo[sl], ehi[sl])
        evaluated = np.minimum(count, room)
        self.boxes[ids] += evaluated
        reached = ids[evaluated > 0]
        self.depth[reached] = np.maximum(self.depth[reached], depth)

        self._retire(_REFUTED, np.flatnonzero(refuted), elo, ehi, eroot, depth)
        over = (count > room) & (self.status[ids] == _ACTIVE)
        # the record is the first cell the allowance left unevaluated
        self._retire(_EXHAUSTED, (start + room)[over], lo, hi, root, depth)
        failing = np.flatnonzero(~passed & (self.status[eroot] == _ACTIVE))
        if depth >= self.max_depth:
            self._retire(_EXHAUSTED, failing, elo, ehi, eroot, depth)
            return None
        flo, fhi = np.take(elo, failing, axis=0), np.take(ehi, failing, axis=0)
        froot = eroot[failing]
        # a failing point cell bisects into copies of itself: it can never pass
        point = np.all(flo == fhi, axis=1)
        if point.any():
            self._retire(_EXHAUSTED, np.flatnonzero(point), flo, fhi, froot, depth)
            keep = self.status[froot] == _ACTIVE
            flo, fhi, froot = flo[keep], fhi[keep], froot[keep]
        if froot.size == 0:
            return None
        return _bisect_cells(flo, fhi, froot)

    def _retire(self, status, idx, lo, hi, root, depth):
        """Retires the roots of the cells idx (ascending), recording each
        root's first such cell."""
        if idx.size == 0:
            return
        first = idx[_runs(root[idx])[0]]
        rids = root[first]
        self.status[rids] = status
        self.cell_depth[rids] = depth
        self.cell_lo[rids] = lo[first]
        self.cell_hi[rids] = hi[first]

    def _shard(self, workers, lo, hi, root, depth):
        """Finishes a part in worker processes, split by root into up to
        _SHARDS_PER_WORKER shards per worker, which the pool hands out one at
        a time as workers free up. If anything interrupts the shards (a
        worker's exception, a dead worker, KeyboardInterrupt), the pool is
        discarded with its pending shards, so no later check waits behind
        them.

        The pool pickles a shard's refinement when a worker is ready for it,
        possibly after earlier shards' rows were merged into it; a shard
        reads and writes only its own roots' rows, so that changes nothing.
        """
        start, count = _runs(root)
        ids = root[start]
        n_shards = min(_SHARDS_PER_WORKER * workers, len(ids))
        # the shard of each cell: its root's rank, round robin
        cell_shard = np.repeat(np.arange(len(ids)) % n_shards, count)
        shards = []
        for i in range(n_shards):
            mine = cell_shard == i
            shards.append((self, ids[i::n_shards], (lo[mine], hi[mine], root[mine], depth)))
        try:
            for shard, per_root in _worker_pool(workers).map(_worker_refine, shards):
                for name, values in zip(_PER_ROOT, per_root):
                    getattr(self, name)[shard] = values
        except BaseException:
            _shutdown_pool()
            raise


def _worker_refine(shard: tuple) -> tuple:
    """Pool worker: runs a shard, (refinement, its roots, its part), to
    completion on the worker's copy of the refinement, and returns the roots
    and their rows of the per-root arrays."""
    ref, roots, part = shard
    ref.run(*part)
    return roots, [getattr(ref, name)[roots] for name in _PER_ROOT]


def _run_check(N: HSet, mapsys: MapSystem, k: int, M: HSet, cfg: VerifyConfig,
               which: str, degree: Optional[DegreeData]) -> CheckResult:
    """The exit or entry check (`which`) of N =(map^k)=> M. A relation that
    cannot be checked raises DomainError (_require_relation), with or
    without a degree; a missing degree is computed first; an empty wall
    (u = 0 for exit, s = 0 for entry) is verified with empty statistics."""
    _require_relation(N, mapsys, k, M)
    if degree is None:
        degree = compute_degree(N, mapsys, k, M)
    if (N.u if which == "exit" else N.s) == 0:
        return CheckResult(VERIFIED, CheckStats())
    t0 = time.perf_counter()
    axes = range(N.u) if which == "exit" else range(N.dim)
    lo0, hi0 = _facet_cells_arrays(N.dim, axes, cfg.resolution)
    n_roots = len(lo0)
    engine = _CellEngine(N, mapsys, k, M, which, cfg.mean_value, degree.chart_derivative)
    ref = _Refinement(engine, n_roots, max(1, cfg.budget // n_roots),
                      0 if cfg.fixed_grid else cfg.max_depth, cfg.batch_size)
    if cfg.threads > 1:
        try:
            pickle.dumps(engine)
        except (pickle.PicklingError, AttributeError, TypeError) as e:
            raise DomainError(f"map {mapsys.name!r} does not pickle, so it cannot run on "
                              f"worker processes; use threads=1 ({e})") from e
    # the initial grid is level 0: one cell per root
    ref.run(lo0, hi0, np.arange(n_roots), 0, cfg.threads)

    stats = CheckStats(
        boxes=int(ref.boxes.sum()),
        max_depth=int(ref.depth.max()),
        refuted_cells=int(np.count_nonzero(ref.status == _REFUTED)),
        exhausted_subtrees=int(np.count_nonzero(ref.status == _EXHAUSTED)),
        wall_time=time.perf_counter() - t0,
    )
    for status, verdict in ((_REFUTED, REFUTED), (_EXHAUSTED, INCONCLUSIVE)):
        decided = np.flatnonzero(ref.status == status)
        if decided.size:
            r = decided[0]
            return CheckResult(verdict, stats, _cell_record(
                r, ref.cell_depth[r], ref.cell_lo[r], ref.cell_hi[r], which))
    return CheckResult(VERIFIED, stats)


def check_exit_condition(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                         cfg: VerifyConfig, degree: Optional[DegreeData] = None) -> CheckResult:
    """Certify that the exit wall maps clear of the target's unstable cube.

    Each cell's image is hulled with the linear image of its unstable part
    (the convex homotopy endpoint) before the test; success implies the
    homotopy never meets the target chart cube on the exit wall.
    """
    return _run_check(N, mapsys, k, M, cfg, "exit", degree)


def check_entry_condition(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                          cfg: VerifyConfig, degree: Optional[DegreeData] = None) -> CheckResult:
    """Certify that the chart boundary maps strictly inside the target's open
    stable cube. Requires the chart map to be a diffeomorphism onto its image
    (true for the shipped map and invertible affine toys); the interior then
    stays clear of the target's entry wall."""
    return _run_check(N, mapsys, k, M, cfg, "entry", degree)


def verify_cover(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                 cfg: Optional[VerifyConfig] = None) -> CoveringCertificate:
    """Full certificate for N =(map^k)=> M with the convex linear homotopy."""
    cfg = cfg or VerifyConfig()
    t0 = time.perf_counter()
    cert = CoveringCertificate(
        source=N.name, target=M.name, map=mapsys.name, iters=k,
        direction="direct", w=None, status=INCONCLUSIVE,
        config=asdict(cfg),
    )
    _require_relation(N, mapsys, k, M)
    try:
        degree = compute_degree(N, mapsys, k, M)
    except (IndeterminateSignError, DomainError) as e:
        cert.failure = f"degree computation failed: {e}"
        cert.wall_time = time.perf_counter() - t0
        return cert
    cert.w = degree.w
    results = {which: _run_check(N, mapsys, k, M, cfg, which, degree)
               for which in ("exit", "entry")}
    for which, res in results.items():
        stats = asdict(res.stats)
        wall = round(stats.pop("wall_time"), 6)
        cert.checks[which] = {"verdict": res.verdict, **stats, "wall_time_s": wall,
                              "worst_cell": res.worst_cell}
    cert.boxes = sum(res.stats.boxes for res in results.values())
    cert.max_depth = max(res.stats.max_depth for res in results.values())
    verdicts = {res.verdict for res in results.values()}
    cert.status = (REFUTED if REFUTED in verdicts
                   else VERIFIED if verdicts == {VERIFIED} else INCONCLUSIVE)
    cert.wall_time = time.perf_counter() - t0
    return cert


def verify_backcover(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                     cfg: Optional[VerifyConfig] = None) -> CoveringCertificate:
    """Certificate for the backcovering N =(map^-k)=> M, i.e. the direct
    covering of the transposed targets under the inverse map."""
    inv = mapsys.require_inverse()
    inner = verify_cover(transpose(M), inv, k, transpose(N), cfg)
    return replace(
        inner, source=N.name, target=M.name, map=mapsys.name, direction="back",
        checks={**inner.checks, "transposed_equivalent": {
            "source": inner.source, "target": inner.target, "map": inv.name}},
    )
