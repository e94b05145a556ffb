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
allowance counts the root itself. Both checks of a relation push their
cells through the same chart map, so they run as one refinement: its roots
are the exit wall's grid cells and then the whole boundary's, and each
level's kernel call evaluates the chart images of both and applies each
cell's own test (`_CellEngine.classify`). Refinement runs on one
level-synchronous frontier that holds the cells of all failing roots with a
root-index column: all of a root's cells at one depth are evaluated, in
level order and up to the root's remaining allowance (its own check's
budget over that check's roots), before any of its deeper cells. A root is
retired by a refuted cell, else by running out of allowance, else by a
failing cell at the depth cap or of zero width (which bisection cannot
shrink), each decided within a level. Each root's outcome and counts thus
depend only on its own subtree and the config, so verdicts and statistics
are independent of the thread count, of `batch_size`, which only sizes the
kernel calls, and of whether the other check's roots share the frontier;
each check's statistics are read off its own roots. Frontier parts of more
than `_PART_CELLS` = 8,192 cells
are split (see `_Refinement`), which keeps memory bounded, so at the
default batch size each level of a part is one kernel call of up to 8,192
cells. The plain chain runs in float buffers that each process keeps
across its calls (`_buffer`), about 2 MB for the 4-d map at 8,192 cells;
no engine holds them, so a worker reuses its own from shard to shard.
With several workers, a part of several roots is sharded by root over
worker processes once it holds more than `_SHARD_CELLS` = 2,048 cells (or
one batch, if that is smaller), so the parent's own calls stay at that
size. The shards are scheduled dynamically: a part goes to
the pool as a fixed small number of shards per worker (`_SHARDS_PER_WORKER`),
and each worker takes the next shard when it finishes one, so a worker whose
roots turn out light does not sit idle while another finishes heavy ones.
A shard is the refinement itself, with its roots and its cells, exit and
entry ones alike, pickled as it is, cell engine and map included (a map
pickles its data only); the worker runs it and returns its roots' rows.

The process keeps one worker pool (`_worker_pool`). The first refinement
that shards starts it, and later ones reuse it. It is replaced when the
worker count changes or a worker dies, discarded when a refinement is
interrupted while its shards run, and shut down at exit. Idle workers keep
their memory between relations.
"""

from __future__ import annotations

import atexit
import time
from dataclasses import asdict, dataclass, field, replace
from os import cpu_count
from typing import Optional

import numpy as np

from .dynamics import MapSystem, _quadratic_rows
from .hset import HSet, _facet_cells_arrays, transpose
from .interval import (
    DomainError,
    IMatrix,
    SingularMatrixError,
    _centered_image,
    _linear,
    _linear_eval,
    _linear_rows,
    _mid_rad,
    _to_rows,
    det_sign,
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
    threads: worker processes for cell verification (verdict-invariant);
        the pool starts at most os.cpu_count() of them.
    budget: box budget per check (exit and entry each, so a relation may
        spend up to twice it), apportioned evenly over the check's initial
        cells, whichever refinement they run in. The initial grid is always
        evaluated in full, so only a
        budget below the number of initial cells is exceeded.
    fixed_grid: the same checks as max_depth = 0, the initial uniform grid
        deciding alone; it stays only because the benchmark harness
        (perfbench/) constructs it.
    mean_value: evaluate cells in centered form (point image plus interval
        Jacobian times radius) instead of plain stepwise composition.
    batch_size: cells per kernel call (verdict- and statistics-invariant);
        a call never spans more than one frontier part (_PART_CELLS), so
        at the default each level of a part is one call of up to 8,192
        cells, on buffers the process reuses.
    """

    resolution: int = 2
    max_depth: int = 40
    threads: int = 1
    budget: int = 20_000_000
    fixed_grid: bool = False
    mean_value: bool = False
    batch_size: int = 8192

    def __post_init__(self):
        for name, least in (("resolution", 1), ("max_depth", 0), ("threads", 1),
                            ("budget", 1), ("batch_size", 1)):
            value = getattr(self, name)
            if type(value) is not int:  # not a float, str or bool
                raise DomainError(f"invalid verification config: {name} must be an integer, "
                                  f"got {value!r}")
            if value < least:
                raise DomainError(f"invalid verification config: {name} must be >= {least}, "
                                  f"got {value}")


@dataclass
class CheckStats:
    boxes: int = 0
    max_depth: int = 0
    refuted_cells: int = 0
    exhausted_subtrees: int = 0


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
    derivative. The degree is the determinant sign of its u x u block, and
    a block that fails the residual test raises SingularMatrixError
    (det_sign). A mismatched relation raises DomainError
    (_require_relation), and so does a center orbit that leaves the
    representable range, naming the first step whose image is not finite.
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


# The process's scratch buffers for the cell engines' kernel calls, by name
# (_buffer). A call reads nothing that an earlier call left there, and its
# caller is done with its result before the next call, so every engine of
# the process, and every shard a worker runs, shares them.
_BUFFERS = {}


def _buffer(name, rows, cols):
    """A C-contiguous (rows, cols) float array on the start of the process's
    buffer `name`, which grows to the largest call's size; it holds
    whatever the last call left there."""
    flat = _BUFFERS.get(name)
    if flat is None or flat.size < rows * cols:
        flat = _BUFFERS[name] = np.empty(rows * cols)
    return flat[:rows * cols].reshape(rows, cols)


class _CellEngine:
    """Batch evaluator of the chart map c_M o map^k o c_N^{-1} of one
    relation N =(map^k)=> M, and of the exit and entry conditions on its
    cells: one call takes exit cells and entry cells together (`classify`).

    It keeps what it reads off the two h-sets, not the h-sets, which a
    worker process cannot unpickle: N's unstable dimension, M's center, and
    the kernels (interval._linear) of its linear steps, built once, here:
    the source chart v -> M_N v + x_N, the rows of G_1 under M_N^T, the
    target chart v -> inv(M_M) (v - x_M) on M's verified inverse, and, given
    the chart `derivative`, its unstable block for the exit test, which
    reads only the unstable coordinates of that linear image.

    The plain chain and the exit test's linear map run on float buffers
    of the process (`_buffer`), so that a refinement's kernel calls of up
    to _PART_CELLS cells do not allocate, and fault in, their operands
    afresh. The engine holds none: a worker process keeps its buffers from
    shard to shard, and a shard pickles no scratch space."""

    def __init__(self, N, mapsys, k, M, mean_value=False, derivative=None):
        self.mapsys = mapsys
        self.k = k
        self.u = N.u
        self.source = _linear(N.matrix, N.center)
        self.rows = _linear(N.matrix.T)
        self.target = _linear(M.inv_matrix.lo, 0.0, M.inv_matrix.hi)
        self.tgt_center = M.center
        self.linear = (_linear(derivative.lo[:N.u, :N.u], 0.0, derivative.hi[:N.u, :N.u])
                       if derivative is not None and N.u else None)
        self.mean_value = mean_value

    def chain(self, mid, lo, hi):
        """The midpoint images p and the Jacobian chain T of the centered
        form, for a batch of cells [lo, hi] (B, n) with a point mid (B, n)
        in each.

        p encloses the chart image inv(M_M) (map^k(M_N mid + x_N) - x_M) of
        each midpoint, and T = inv(M_M) G_k ... G_1 M_N holds G_i, the map's
        Jacobian over the cell's (i-1)-th step image. Returns (plo, phi)
        (B, n) and (Tlo, Thi) (B, n, n). Every product with a point or thin
        matrix runs on the one kernel (interval._linear_eval, with the
        engine's kernels):
          * M_N v + x_N: the source chart, on the midpoints and the cells;
          * G_1 M_N: the rows of G_1 under M_N^T, as M_N is a point;
          * inv(M_M) (p - x_M) and inv(M_M) J: the target chart on the
            verified inverse, which is thin, with the target center
            subtracted from the midpoint images' rows and 0 from the
            columns of J.
        Only G_i J for i >= 2, where both factors are wide, is inf-sup
        (imatmul_batch).

        Rows travel together through the chain: the midpoints (as point
        cells) above the cells through M_N and through each of the k map
        steps, whose Jacobian sees the cell rows only; then the midpoint
        images above the columns of J through inv(M_M). Every kernel treats
        each row on its own, so each row comes out bit for bit as it would
        alone.
        """
        nb, n = lo.shape
        # rows :nb are the midpoints and their images, rows nb: the cells'
        vlo, vhi = _linear_eval(self.source, np.concatenate((mid, lo)),
                                np.concatenate((mid, hi)))
        for step in range(self.k):
            glo, ghi = self.mapsys.jac_batch(vlo[nb:], vhi[nb:])
            if step == 0:
                rows = _linear_eval(self.rows, glo.reshape(-1, n), ghi.reshape(-1, n))
                jlo, jhi = (a.reshape(nb, n, n) for a in rows)
            else:
                jlo, jhi = imatmul_batch(glo, ghi, jlo, jhi)
            vlo, vhi = self.mapsys.eval_batch(vlo, vhi)
        # below the midpoint images, row nb + (b, j) is column j of cell b's J
        slo, shi = (np.concatenate((v[:nb], a.transpose(0, 2, 1).reshape(-1, n)))
                    for v, a in ((vlo, jlo), (vhi, jhi)))
        center = np.zeros_like(slo)
        center[:nb] = self.tgt_center
        plo, phi = _linear_eval(self.target, slo, shi, center)
        return (plo[:nb], phi[:nb]), tuple(a[nb:].reshape(nb, n, n).transpose(0, 2, 1)
                                           for a in (plo, phi))

    def _plain_image(self, lo, hi):
        """The plain chart image of the cells [lo, hi] (B, n), (B, n) lo and
        hi: each cell pushed through M_N, the k steps of the map and
        inv(M_M) (v - x_M) in turn.

        The chain runs on the kernel's rows, on two buffers X that take
        turns: each step reads its cells from the rows 1..2n of one and
        widens its bounds straight into the rows 1..2n of the other
        (interval._enclose's `out`), which the next step reads, and W is
        one buffer for all steps. Each map step is the map's value kernel
        on the rows (dynamics._quadratic_rows on `mapsys.kernel`), the
        kernel that its eval_batch runs. The result is views of a buffer,
        which the next call of any engine overwrites."""
        nb, n = lo.shape
        q = self.mapsys.kernel
        x, y = (_buffer(name, q.value.shape[1], nb) for name in ("x", "y"))
        w = _buffer("w", q.magnitude.shape[1], nb)
        _linear_rows(self.source, _to_rows(lo, hi, len(x), x), None, w[:n + 1], y[1:2 * n + 1])
        for _ in range(self.k):
            x, y = y, x
            _quadratic_rows(q, x, w, y[1:2 * n + 1])
        return _linear_rows(self.target, y, self.tgt_center, w[:n + 1], x[1:2 * n + 1])

    def _chart_image(self, lo, hi):
        """Enclosure of the chart map over each cell, (B, n) lo/hi.

        Plain: _plain_image, views of the process's buffers, which the next
        call overwrites. Centered (mean value): with the cell inside
        mid +- rad (_mid_rad; mid lies in the cell, so the segment from it
        to any point of the cell does too), the image of the cell lies in
        p + T [-rad, rad] for the midpoint image p and the Jacobian chain T
        of `chain`, enclosed with one widening (_centered_image).
        """
        if not self.mean_value:
            return self._plain_image(lo, hi)
        mid, rad = _mid_rad(lo, hi)
        (plo, phi), T = self.chain(mid, lo, hi)
        return _centered_image(plo, phi, *T, rad)

    def classify(self, lo, hi, exits):
        """Returns (passed, refuted) boolean masks for a batch of chart
        cells, of which the first `exits` take the exit test and the rest
        the entry test. One chart image serves both.

        Enclosures that overflow or degrade to NaN simply fail both masks and
        are refined like any other failing cell.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._classify(lo, hi, exits)

    def _classify(self, lo, hi, exits):
        clo, chi = self._chart_image(lo, hi)
        u = self.u
        passed = np.empty(len(lo), dtype=bool)
        refuted = np.empty(len(lo), dtype=bool)
        x, e = slice(None, exits), slice(exits, None)
        if exits:
            lx = _to_rows(lo[x, :u], hi[x, :u], 2 * u + 1, _buffer("lx", 2 * u + 1, exits))
            lxlo, lxhi = _linear_rows(self.linear, lx, None, _buffer("lw", u + 1, exits))
            zlo = np.minimum(clo[x, :u], lxlo)
            zhi = np.maximum(chi[x, :u], lxhi)
            passed[x] = np.any((zlo > 1.0) | (zhi < -1.0), axis=1)
            # the plain image landing strictly inside the open target cube
            # violates the homotopy's t=0 condition for every cell point
            refuted[x] = np.all((clo[x] > -1.0) & (chi[x] < 1.0), axis=1)
        passed[e] = np.all((clo[e, u:] > -1.0) & (chi[e, u:] < 1.0), axis=1)
        refuted[e] = np.any((clo[e, u:] >= 1.0) | (chi[e, u:] <= -1.0), axis=1)
        return passed, refuted & ~passed


def _runs(root):
    """The start and the length of each run of equal values of a sorted
    root column."""
    bounds = np.flatnonzero(np.concatenate(([True], root[1:] != root[:-1], [True])))
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _bisect_cells(lo, hi, root, cells):
    """Halves the cells `cells` (ascending indices into lo, hi and their
    sorted root column) along their widest coordinate. The halves and their
    root column come in level order: per root, the left halves of its cells
    and then their right halves (for a single root, all left halves and
    then all right halves).

    The children are gathered from lo and hi straight into place, with one
    composed index: the left half of the j-th halved cell of a root whose
    halved cells start at s goes to j + s, and its right sibling count(root)
    further on. The widths are taken into a buffer of the process.
    """
    n = len(cells)
    ax = np.argmax(np.subtract(hi, lo, out=_buffer("width", *lo.shape)), axis=1)[cells]
    mid = 0.5 * (lo[cells, ax] + hi[cells, ax])
    start, count = _runs(root[cells])
    left = np.arange(n) + np.repeat(start, count)
    right = left + np.repeat(count, count)
    parent = np.empty(2 * n, dtype=np.intp)
    parent[left] = cells
    parent[right] = cells
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
# the batch size, and memory stays bounded for every batch size. At the
# default batch size each level of a part is one kernel call. A plain call
# costs a fixed 77-130 us on top of about 100 ns per cell (2-core x86-64
# machine), so at 8,192 cells the fixed share is about a tenth. The
# process reuses its buffers for these calls (_buffer), about 2 MB for the
# 4-d map, plus 0.5 MB for the exit test's linear map, in the parent and in
# each worker across its shards; without the reuse, temporaries of this size
# are returned to the system after each call and faulted back in on the
# next.
_PART_CELLS = 8192

# With several workers, a part of several roots with more cells than this
# (or than one batch, if that is smaller) goes to the pool. It is smaller
# than _PART_CELLS so that the parent, whose memory is the run's peak,
# evaluates such parts in calls of at most this size itself and leaves the
# larger levels to the workers.
_SHARD_CELLS = 2048

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
    """The process's pool of `workers` processes, at most os.cpu_count(),
    shared by every check that shards. Under fork the pool starts all its
    processes at the first shard, so a larger count would only oversubscribe
    the cores. A pool is made only when there is none, when the worker count
    changed or when a worker died (the pool is broken); the old pool is shut
    down first, so no worker is forked while another pool's manager thread
    runs. There is no lock: checks are run from one thread."""
    global _POOL
    workers = min(workers, cpu_count() or 1)
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
    """Level-synchronous refinement of a relation's initial cells (roots):
    the `exits` exit-wall roots first, which take the exit test, and then
    the roots that take the entry test. Each root has its own `allowance`
    of boxes.

    A part is a set of cells of one depth, grouped by root and, within a
    root, in level order; `root` is its root-index column. Each step
    evaluates a whole level of a part, exit and entry cells in the same
    kernel calls, and retires the roots it decides. A part larger than
    _PART_CELLS is split in two, by roots while it holds several and by
    cells once it holds one, and the first half is finished before the
    second is started. A root's outcome and counts therefore depend only
    on its own subtree and the config, whichever roots share its parts,
    whatever the batch size and however the roots are sharded over worker
    processes; so shards may finish in any order, and their results are
    merged by root.
    """

    def __init__(self, engine, allowance, exits, max_depth, batch_size):
        self.engine = engine
        self.allowance = allowance
        self.exits = exits
        self.max_depth = max_depth
        self.batch_size = batch_size
        dim = len(engine.tgt_center)
        n_roots = len(allowance)
        self.boxes = np.zeros(n_roots, dtype=np.int64)
        self.depth = np.zeros(n_roots, dtype=np.int64)
        self.status = np.zeros(n_roots, dtype=np.int8)
        # the cell that retired each root, and its depth
        self.cell_depth = np.zeros(n_roots, dtype=np.int64)
        self.cell_lo = np.zeros((n_roots, dim))
        self.cell_hi = np.zeros((n_roots, dim))

    def run(self, lo, hi, root, depth, workers=1):
        """Refine a part to completion. With workers > 1, a part of several
        roots that holds more than _SHARD_CELLS cells, or more than one
        batch, is sharded by root over the process's worker pool."""
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
            if workers > 1 and several and n > min(self.batch_size, _SHARD_CELLS):
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
        None. The children are gathered from the evaluated cells
        (_bisect_cells), so the failing cells are never copied on their
        own."""
        # root is sorted, so each root's cells are one run, and the exit
        # roots' cells come first
        start, count = _runs(root)
        ids = root[start]
        room = self.allowance[ids] - self.boxes[ids]
        if (count <= room).all():
            elo, ehi, eroot = lo, hi, root
        else:
            rank = np.arange(len(root)) - np.repeat(start, count)
            take = rank < np.repeat(room, count)
            elo, ehi, eroot = lo[take], hi[take], root[take]
        exits = int(np.searchsorted(eroot, self.exits))
        passed = np.empty(len(eroot), dtype=bool)
        refuted = np.empty(len(eroot), dtype=bool)
        for s in range(0, len(eroot), self.batch_size):
            sl = slice(s, s + self.batch_size)
            passed[sl], refuted[sl] = self.engine.classify(
                elo[sl], ehi[sl], min(max(exits - s, 0), self.batch_size))
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
        # a failing point cell bisects into copies of itself: it can never pass
        point = np.all(elo == ehi, axis=1)
        self._retire(_EXHAUSTED, failing[point[failing]], elo, ehi, eroot, depth)
        cells = failing[self.status[eroot[failing]] == _ACTIVE]
        if cells.size == 0:
            return None
        return _bisect_cells(elo, ehi, eroot, cells)

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
        discarded with its pending shards, so no later refinement waits
        behind them.

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


def _run_checks(N: HSet, mapsys: MapSystem, k: int, M: HSet, cfg: VerifyConfig,
                walls: tuple, degree: Optional[DegreeData]) -> dict:
    """The checks `walls` ("exit", "entry" or both) of N =(map^k)=> M, run
    as one refinement, and a CheckResult for each wall. A relation that
    cannot be checked raises DomainError (_require_relation), with or
    without a degree; a missing degree is computed first; an empty wall
    (u = 0 for exit, s = 0 for entry) is verified with empty statistics.

    The exit wall's grid cells are the first roots and the whole chart
    boundary's the rest, each root with its own check's allowance; each
    check's statistics and worst cell (whose `root` counts from the check's
    first root) are read off its own roots."""
    _require_relation(N, mapsys, k, M)
    if degree is None:
        degree = compute_degree(N, mapsys, k, M)
    results = {which: CheckResult(VERIFIED, CheckStats()) for which in walls}
    grids = {}
    if "exit" in walls and N.u:
        grids["exit"] = _facet_cells_arrays(N.dim, range(N.u), cfg.resolution)
    if "entry" in walls and N.s:
        grids["entry"] = _facet_cells_arrays(N.dim, range(N.dim), cfg.resolution)
    if not grids:
        return results
    sizes = [len(lo) for lo, _ in grids.values()]
    lo0, hi0 = (np.concatenate(g) for g in zip(*grids.values()))
    engine = _CellEngine(N, mapsys, k, M, cfg.mean_value, degree.chart_derivative)
    ref = _Refinement(engine, np.repeat([max(1, cfg.budget // n) for n in sizes], sizes),
                      sizes[0] if "exit" in grids else 0,
                      0 if cfg.fixed_grid else cfg.max_depth, cfg.batch_size)
    # the initial grid is level 0: one cell per root
    ref.run(lo0, hi0, np.arange(len(lo0)), 0, cfg.threads)

    first = 0
    for which, n in zip(grids, sizes):
        mine = slice(first, first + n)
        status = ref.status[mine]
        stats = CheckStats(
            boxes=int(ref.boxes[mine].sum()),
            max_depth=int(ref.depth[mine].max()),
            refuted_cells=int(np.count_nonzero(status == _REFUTED)),
            exhausted_subtrees=int(np.count_nonzero(status == _EXHAUSTED)),
        )
        results[which] = CheckResult(VERIFIED, stats)
        for code, verdict in ((_REFUTED, REFUTED), (_EXHAUSTED, INCONCLUSIVE)):
            decided = np.flatnonzero(status == code)
            if decided.size:
                r, g = decided[0], first + decided[0]
                results[which] = CheckResult(verdict, stats, _cell_record(
                    r, ref.cell_depth[g], ref.cell_lo[g], ref.cell_hi[g], which))
                break
        first += n
    return results


def check_exit_condition(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                         cfg: VerifyConfig, degree: Optional[DegreeData] = None) -> CheckResult:
    """Certify that the exit wall maps clear of the target's unstable cube.

    Each cell's image is hulled with the linear image of its unstable part
    (the convex homotopy endpoint) before the test; success implies the
    homotopy never meets the target chart cube on the exit wall.
    """
    return _run_checks(N, mapsys, k, M, cfg, ("exit",), degree)["exit"]


def check_entry_condition(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                          cfg: VerifyConfig, degree: Optional[DegreeData] = None) -> CheckResult:
    """Certify that the chart boundary maps strictly inside the target's open
    stable cube. Requires the chart map to be a diffeomorphism onto its image
    (true for the shipped map and invertible affine toys); the interior then
    stays clear of the target's entry wall."""
    return _run_checks(N, mapsys, k, M, cfg, ("entry",), degree)["entry"]


def verify_cover(N: HSet, mapsys: MapSystem, k: int, M: HSet,
                 cfg: Optional[VerifyConfig] = None) -> CoveringCertificate:
    """Full certificate for N =(map^k)=> M with the convex linear homotopy.
    The exit and entry checks run as one refinement (_run_checks), so each
    level of both is one chain of kernel calls; each check keeps its own
    budget, statistics and worst cell, and the certificate its wall time.
    A mismatched relation raises DomainError; a degree that cannot be
    certified (a failed residual test, a center orbit out of range) makes
    the certificate inconclusive."""
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
    except (SingularMatrixError, DomainError) as e:
        cert.failure = f"degree computation failed: {e}"
        cert.wall_time = time.perf_counter() - t0
        return cert
    cert.w = degree.w
    results = _run_checks(N, mapsys, k, M, cfg, ("exit", "entry"), degree)
    for which, res in results.items():
        cert.checks[which] = {"verdict": res.verdict, **asdict(res.stats),
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
    covering of the transposed targets under the inverse map S o F o S
    (MapSystem.require_inverse). A map without a reversor the proof
    accepts raises DomainError."""
    inv = mapsys.require_inverse()
    inner = verify_cover(transpose(M), inv, k, transpose(N), cfg)
    return replace(
        inner, source=N.name, target=M.name, map=mapsys.name, direction="back",
        checks={**inner.checks, "transposed_equivalent": {
            "source": inner.source, "target": inner.target, "map": inv.name}},
    )
