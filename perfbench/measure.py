"""Measurement of one workload in this process: passes, cold commands,
fresh-interpreter set-up, and the traced run's per-layer metrics.

Imported by run.py once ./src is on the path.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
from revcover.campaign import build_proof_data
from revcover.covering import (
    VERIFIED,
    VerifyConfig,
    check_entry_condition,
    check_exit_condition,
    verify_cover,
)

import layers
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2  # untraced rounds per run, whatever --seconds says
SETUP_PER_ROUND = 1  # fresh interpreters building the instance, per round
IMPORT_SAMPLES = 3  # fresh interpreters importing revcover (traced run)
CLI_MIN_SAMPLES, CLI_MAX_SAMPLES, CLI_SECONDS = 2, 3, 5.0  # traced run
BUILD_SAMPLES = 20  # in-process build_proof_data calls (traced run)
SUBPROCESS_TIMEOUT = 120

# The reference loop's median time on the 2-vCPU x86_64 VM (Python 3.11,
# numpy 2.4) the benchmark was tuned on, in a quiet stretch of its host.
# End-to-end times are reported at that host speed; see _rescaled.
REFERENCE_S = 0.045
NEAR_PROBES = 4  # reference loops that set the host speed for one sample

SETUP_CODE = "import revcover; revcover.build_proof_data()"
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import revcover; "
               "print(repr(time.perf_counter() - t0))")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REVCOVER_THREADS"] = "1"
    return env


def _timed_python(args) -> tuple[float, subprocess.CompletedProcess | None]:
    """Wall seconds of a fresh interpreter run to exit; None on timeout
    (subprocess.run kills the child and waits for it)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, proc


_REF_CELLS = np.random.default_rng(0).random((8192, 4, 4))


def _reference_loop() -> float:
    """Wall seconds of a fixed piece of work shaped like the cell kernels
    (elementwise and batched 4x4 matrix products on 8192 cells) plus a
    dictionary loop in the interpreter; it calls no revcover code, so it
    probes the host's current speed and nothing else."""
    t0 = time.perf_counter()
    a = _REF_CELLS
    for _ in range(12):
        a = np.minimum(a * 1.0000001, a + 1.0)
        np.einsum("nij,njk->nik", a, _REF_CELLS)
    d = {}
    for i in range(20_000):
        d[i % 97] = (i, str(i))
    return time.perf_counter() - t0


def _rescaled(events) -> dict:
    """Median seconds per (kind, key) of the timed events, at the host speed
    where the reference loop takes REFERENCE_S.

    The host's speed drifts by up to a factor of 1.7 over minutes, and the
    program's times drift with it, so that a whole run, or half of it, can
    be slow. Each sample is divided by the median of the NEAR_PROBES
    reference loops that ran closest to it, which are slow exactly when
    the host is; a slower program moves the ratio as much as the raw time."""
    probes = [i for i, (kind, _, _) in enumerate(events) if kind == "probe"]
    ratios = defaultdict(list)
    for i, (kind, key, sec) in enumerate(events):
        if kind != "probe":
            closest = sorted(probes, key=lambda j: abs(j - i))[:NEAR_PROBES]
            ratios[kind, key].append(sec / statistics.median(events[j][2] for j in closest))
    return {k: REFERENCE_S * statistics.median(v) for k, v in ratios.items()}


def _peak_rss_mb(who) -> float:
    """Peak RSS of this process (RUSAGE_SELF), or the largest peak among its
    waited-for children (RUSAGE_CHILDREN)."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class WorkloadRun:
    """One workload: its ops, gates, samples and the metrics derived from
    them. `metrics` maps a name to its value and `samples` to the number
    of measurements behind it."""

    def __init__(self, workload, rng, seconds: float, tracer: spans.Tracer):
        self.wl = workload
        self.rng = rng
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.op_seconds = defaultdict(list)
        self.boxes: list[int] = []
        self.reference: list[float] = []  # reference-loop probes, untraced run
        self.raw: dict[str, float] = {}  # untraced times before rescaling
        self.data = build_proof_data()
        self.order = workload.order(rng)
        self.inputs = layers.LayerInputs(rng)
        tally = layers.check_containment(self.data.mapsys, self.inputs, rng)
        self.containment = {"samples": tally.samples, "violations": len(tally.violations)}
        if tally.violations:
            self.problems.append("containment: " + ", ".join(sorted(set(tally.violations))))
        self._warmup()

    def _put(self, name: str, value: float, n: int) -> None:
        self.metrics[name] = value
        self.samples[name] = n

    def _warmup(self) -> None:
        """Touch every cell kernel once, so no timed pass pays first calls."""
        for mv in (False, True):
            for src, dst, k in (("N2", "N2", 1), ("H1", "H2", 4)):
                verify_cover(self.data.hset(src), self.data.mapsys, k, self.data.hset(dst),
                             VerifyConfig(mean_value=mv, fixed_grid=True, resolution=2))

    def _count(self, out, op_times: bool = True) -> None:
        self.attempted += out.ops
        self.failed += out.failed
        for label, s in out.op_seconds.items() if op_times else ():
            self.op_seconds[label].append(s)

    def _untraced_pass(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        out = self.wl.run_pass(self.data, self.order)
        wall = time.perf_counter() - t0
        self._count(out)
        self.boxes.append(out.boxes)
        return wall

    def _cli_sample(self) -> float:
        """One cold `revcover` command to exit code, gated on code and output."""
        dt, proc = _timed_python(["-m", "revcover.cli", *self.wl.cli_args])
        self.attempted += 1
        if proc is None or proc.returncode != 0 or self.wl.cli_expect not in proc.stdout:
            self.failed += 1
            print(f"cold command {' '.join(self.wl.cli_args)} failed: "
                  f"{proc.returncode if proc else 'timeout'}\n"
                  f"{proc.stdout[-2000:] + proc.stderr[-2000:] if proc else ''}",
                  file=sys.stderr)
        return dt

    def _interpreter_samples(self, code: str, n: int) -> list[tuple[float, str]]:
        """(wall seconds, stdout) of n fresh interpreters running code."""
        out = []
        for _ in range(n):
            dt, proc = _timed_python(["-c", code])
            if proc is None or proc.returncode != 0:
                self.problems.append(f"python -c {code!r} failed: "
                                     f"{proc.stderr[-2000:] if proc else 'timeout'}")
            out.append((dt, proc.stdout if proc else ""))
        return out

    def details(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed / max(self.attempted, 1),
                "problems": self.problems, "samples": self.samples,
                "op_order": [r.label for r in self.order],
                "containment": self.containment,
                "boxes": self.boxes[0] if self.boxes else None,
                "boxes_reference": self.wl.reference_boxes,
                "boxes_repeat": len(set(self.boxes)) <= 1,
                "reference_loop_s": statistics.median(self.reference) if self.reference else None,
                "reference_probes": len(self.reference), "raw_s": self.raw}

    def untraced(self) -> None:
        """End-to-end metrics, tracing off. A round is one in-process pass,
        the workload's cli_per_round cold commands and SETUP_PER_ROUND fresh
        set-ups, so the samples of each kind spread over the whole run. The
        reference loop runs before every sample and once at the end."""
        events = []  # (kind, key, seconds) in the order they ran
        walls, rounds = [], []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start
                                           + statistics.median(rounds) <= self.seconds):
            t0 = time.perf_counter()
            events.append(("probe", None, _reference_loop()))
            walls.append(self._untraced_pass())
            events += [("op", label, times[-1]) for label, times in self.op_seconds.items()]
            if len(rounds) == 0:  # the pool workers are the only children so far
                workers_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
            for _ in range(self.wl.cli_per_round):
                events.append(("probe", None, _reference_loop()))
                events.append(("cli", None, self._cli_sample()))
            for _ in range(SETUP_PER_ROUND):
                events.append(("probe", None, _reference_loop()))
                dt, _ = self._interpreter_samples(SETUP_CODE, 1)[0]
                events.append(("setup", None, dt))
            rounds.append(time.perf_counter() - t0)
        events.append(("probe", None, _reference_loop()))
        rss = _peak_rss_mb(resource.RUSAGE_SELF) + workers_rss

        self.reference = [sec for kind, _, sec in events if kind == "probe"]
        raw, scaled = defaultdict(list), _rescaled(events)
        for kind, key, sec in events:
            raw[kind, key].append(sec)
        med = {k: statistics.median(v) for k, v in raw.items()}
        self.raw = {"setup_s": med["setup", None], "cli_cold_s": med["cli", None],
                    "wall_s": sum(v for (kind, _), v in med.items() if kind == "op")}
        wall = sum(v for (kind, _), v in scaled.items() if kind == "op")
        boxes = self.boxes[0]
        self._put("setup_s", scaled["setup", None], len(raw["setup", None]))
        self._put("wall_s", wall, len(walls))
        self._put("boxes_per_s", boxes / wall if wall else 0.0, len(walls))
        self._put("boxes", boxes, len(walls))
        self._put("peak_rss_mb", rss, 1)
        self._put("cli_cold_s", scaled["cli", None], len(raw["cli", None]))

    def traced(self) -> None:
        """Per-layer metrics: traced passes alternate with untraced ones, then
        the stage-1 replay, the other thread count, the layer sweeps and the
        cold-start split."""
        tr = self.tracer
        name = self.wl.name
        untraced, traced, runs = [], [], []
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start + statistics.median(untraced)
                             + statistics.median(traced) <= self.seconds):
            untraced.append(self._untraced_pass())
            gc.collect()
            tr.run_id = f"{name}/traced-pass-{len(traced)}"
            out = self.wl.run_traced(self.data, self.order, tr)
            self._count(out)
            traced.append(out.wall)
            runs.append((tr.run_id, out))
        t_main = statistics.median(untraced)

        per_pass = defaultdict(list)
        for run_id, out in runs:
            sp = tr.run(run_id)
            per_pass["covering.compute_degree_s"].append(spans.total(sp, "covering.compute_degree"))
            per_pass["covering.exit_s"].append(spans.total(sp, "covering.check_exit_condition"))
            per_pass["covering.entry_s"].append(spans.total(sp, "covering.check_entry_condition"))
            per_pass["campaign.self_s"].append(out.wall - spans.total(sp, "covering.relation"))
        for metric, values in per_pass.items():
            self._put(metric, statistics.median(values), len(values))
        self._put("trace.overhead_s", statistics.median(traced) - t_main, len(traced))

        self._stage_split(runs[0][1].checks)

        # the same ops at the other thread count, once
        alt = 2 if self.wl.config.threads == 1 else 1
        tr.run_id = f"{name}/threads-{alt}"
        gc.collect()
        with tr.span(f"workload.pass.threads-{alt}") as s:
            self._count(self.wl.run_pass(self.data, self.order, threads=alt), op_times=False)
        t_alt = spans.duration(s)
        self._put("covering.parallel_speedup", t_main / t_alt if alt == 2 else t_alt / t_main, 1)

        tr.run_id = f"{name}/layers"
        for metric, (value, n) in layers.kernel_sweep(self.data, self.rng, tr).items():
            self._put(metric, value, n)
        for metric, value in layers.map_and_interval_rates(self.data.mapsys, self.inputs,
                                                           tr).items():
            self._put(metric, value, layers.TIMING_CHUNKS)

        tr.run_id = f"{name}/setup"
        build = []
        for _ in range(BUILD_SAMPLES):
            with tr.span("campaign.build_proof_data") as s:
                build_proof_data()
            build.append(spans.duration(s))
        self._put("campaign.build_proof_data_s", statistics.median(build), len(build))

        cli = []
        while len(cli) < CLI_MIN_SAMPLES or (len(cli) < CLI_MAX_SAMPLES
                                             and sum(cli) < CLI_SECONDS):
            cli.append(self._cli_sample())
        imports = [float(o or 0.0) for _, o in self._interpreter_samples(IMPORT_CODE,
                                                                         IMPORT_SAMPLES)]
        import_s = statistics.median(imports)
        op_s = t_main if self.wl.cli_op == "pass" else statistics.median(
            self.op_seconds[self.wl.cli_op])
        self._put("cli.import_s", import_s, len(imports))
        self._put("cli.overhead_s", statistics.median(cli) - op_s - import_s, len(cli))

    def _stage_split(self, checks) -> None:
        """Replay each check of a traced pass on its initial grid only
        (fixed_grid=True), which evaluates exactly the stage-1 cells; the
        rest of the check's time and boxes is stage 2."""
        self.tracer.run_id = f"{self.wl.name}/stage1-replay"
        s1_s = s1_boxes = check_s = check_boxes = ver_boxes = ver_roots = 0
        for c in checks:
            fn = check_exit_condition if c.which == "exit" else check_entry_condition
            N, mapsys, k, M, cfg, degree = c.args
            with self.tracer.span("covering.stage1") as s:
                res = fn(N, mapsys, k, M, replace(cfg, fixed_grid=True), degree)
            s1_s += spans.duration(s)
            s1_boxes += res.stats.boxes
            check_s += c.seconds
            check_boxes += c.boxes
            if c.verdict == VERIFIED:
                ver_boxes += c.boxes
                ver_roots += res.stats.boxes
        s2_s, s2_boxes = check_s - s1_s, check_boxes - s1_boxes
        self._put("covering.stage1_s", s1_s, 1)
        self._put("covering.stage1_boxes", s1_boxes, 1)
        self._put("covering.stage2_s", s2_s, 1)
        self._put("covering.stage2_boxes", s2_boxes, 1)
        self._put("covering.refine_boxes_per_s",
                  s2_boxes / s2_s if s2_boxes and s2_s > 0 else 0.0, 1)
        # leaves over boxes: every failing box is bisected into two, so a
        # verified check with R roots and B boxes has (B + R) / 2 leaves
        self._put("covering.pass_ratio",
                  (ver_boxes + ver_roots) / (2 * ver_boxes) if ver_boxes else 0.0, 1)
