"""The workloads, their ops and their correctness gates.

Every workload runs on the bundled instance from ``build_proof_data()``;
the instances are fixed by design. An op is one relation certificate. The
seed reorders the independent ops of a pass; it changes no op.

Each workload is one side of a likely optimisation and the other side of
another:

* campaign-mv: the paper's proof, mean-value, threads 1; the latency
  workload. Stage-2 refinement is starved (hundreds of classify calls on a
  few cells each), so a frontier change does most of its work here, and a
  mean-value kernel change moves it.
* plain-grid: the classical grid method, millions of boxes through the plain
  kernel in full batches with two worker processes; the throughput
  workload. The mean-value kernels do no work here.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field, replace

from revcover.campaign import CampaignConfig, run_campaign
from revcover.covering import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    VerifyConfig,
    check_entry_condition,
    check_exit_condition,
    compute_degree,
    verify_cover,
)
from revcover.hset import sym_image, transpose


@dataclass(frozen=True)
class Relation:
    """A relation the workload certifies, with its expected degree."""

    src: str
    dst: str
    k: int
    w: int

    @property
    def label(self) -> str:
        return f"{self.src}=>{self.dst}^{self.k}"


@dataclass
class Check:
    """One exit or entry check of a traced pass, kept for the stage-1 replay."""

    which: str
    args: tuple  # (N, mapsys, k, M, cfg, degree)
    verdict: str
    boxes: int
    seconds: float


@dataclass
class Outcome:
    """Result of one pass: ops attempted and failed, boxes, per-op seconds."""

    ops: int = 0
    failed: int = 0
    boxes: int = 0
    op_seconds: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall: float = 0.0  # traced passes: the span that matches an untraced pass


@dataclass(frozen=True)
class Workload:
    name: str
    relations: tuple  # of Relation; empty for the campaign
    config: VerifyConfig
    cli_args: tuple  # a cold `revcover` command certifying cli_op, exit code 0
    cli_expect: str  # text the command's output must contain
    cli_op: str  # Relation.label, or "pass" when the command is the whole pass
    reference_boxes: int  # seed value, reported, not gated
    cli_per_round: int  # cold commands per untraced round

    def order(self, rng) -> list:
        return [self.relations[i] for i in rng.permutation(len(self.relations))]

    def run_pass(self, data, order, threads=None) -> Outcome:
        cfg = self.config if threads is None else replace(self.config, threads=threads)
        if not self.relations:
            return _campaign_pass(cfg.threads)
        return _relation_pass(data, order, cfg)

    def run_traced(self, data, order, tracer) -> Outcome:
        if not self.relations:
            return _traced_campaign_pass(data, tracer)
        out = Outcome()
        with tracer.span("workload.pass") as s:
            for rel in order:
                N, M = data.hset(rel.src), data.hset(rel.dst)
                try:
                    status, w, boxes = _traced_relation(tracer, out, rel.label, N, data.mapsys,
                                                        rel.k, M, self.config)
                except Exception:
                    _op_failed(rel.label)
                    _tally(out, False, 0)
                    continue
                _tally(out, (status, w) == (VERIFIED, rel.w), boxes)
        out.wall = s["end"] - s["start"]
        return out


CAMPAIGN_RELATIONS = (
    Relation("N1", "N1", 1, 1),
    Relation("N2", "N2", 1, -1),
    Relation("N1", "H1", 1, 1),
    Relation("H1", "H2", 4, -1),
    Relation("H2", "H3", 1, -1),
    Relation("H3", "N2", 1, -1),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-mv",
            (), CampaignConfig().verify_config(),
            ("prove-paper",), "backcover cross-check", "pass", 3_526, 1,
        ),
        Workload(
            "plain-grid",
            (Relation("N2", "N2", 1, -1), Relation("H3", "N2", 1, -1),
             Relation("N1", "N1", 1, 1)),
            VerifyConfig(threads=2),
            ("verify", "--from", "N2", "--to", "N2", "--threads", "2"),
            ": verified, w=-1,", "N2=>N2^1", 2_361_780, 3,
        ),
    )
}


def _tally(out: Outcome, ok: bool, boxes: int) -> None:
    out.ops += 1
    out.failed += not ok
    out.boxes += boxes


def _op_failed(label: str) -> None:
    print(f"op {label} raised:", file=sys.stderr)
    traceback.print_exc()


def _relation_pass(data, order, cfg) -> Outcome:
    out = Outcome()
    for rel in order:
        t0 = time.perf_counter()
        try:
            cert = verify_cover(data.hset(rel.src), data.mapsys, rel.k, data.hset(rel.dst), cfg)
        except Exception:
            _op_failed(rel.label)
            _tally(out, False, 0)
            continue
        out.op_seconds[rel.label] = time.perf_counter() - t0
        _tally(out, (cert.status, cert.w) == (VERIFIED, rel.w), cert.boxes)
    return out


def _gate_report(report, out: Outcome) -> None:
    """6 relations with the paper's degrees, and the backcover cross-check
    together with the report's exit code, as 7 ops."""
    rels = report.report["relations"]
    for i, rel in enumerate(CAMPAIGN_RELATIONS):
        got = rels[i] if i < len(rels) else {}
        ok = (got.get("source"), got.get("target"), got.get("iters"), got.get("status"),
              got.get("w")) == (rel.src, rel.dst, rel.k, VERIFIED, rel.w)
        _tally(out, ok, 0)
    cc = report.report["backcover_crosscheck"]
    _tally(out, cc["direct_status"] == VERIFIED and cc["abs_w_agrees"] and report.exit_code == 0, 0)
    out.boxes = report.report["totals"]["boxes"]


def _campaign_pass(threads: int) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    try:
        report, _ = run_campaign(CampaignConfig(threads=threads))
    except Exception:
        _op_failed("run_campaign")
        out.ops = out.failed = len(CAMPAIGN_RELATIONS) + 1
        return out
    out.op_seconds["run_campaign"] = time.perf_counter() - t0
    _gate_report(report, out)
    return out


def _combine(exit_verdict: str, entry_verdict: str) -> str:
    """The certificate status verify_cover derives from its two checks."""
    if REFUTED in (exit_verdict, entry_verdict):
        return REFUTED
    if exit_verdict == entry_verdict == VERIFIED:
        return VERIFIED
    return INCONCLUSIVE


def _traced_relation(tracer, out: Outcome, label, N, mapsys, k, M, cfg):
    """verify_cover as its three public steps, each inside a span. Appends
    the two checks to out.checks; returns (status, w, boxes)."""
    with tracer.span("covering.relation") as rel_span:
        rel_span["label"] = label
        with tracer.span("covering.compute_degree"):
            degree = compute_degree(N, mapsys, k, M)
        verdicts, boxes = [], 0
        for which, fn in (("exit", check_exit_condition), ("entry", check_entry_condition)):
            with tracer.span(f"covering.check_{which}_condition") as s:
                res = fn(N, mapsys, k, M, cfg, degree)
            out.checks.append(Check(which, (N, mapsys, k, M, cfg, degree), res.verdict,
                                    res.stats.boxes, s["end"] - s["start"]))
            verdicts.append(res.verdict)
            boxes += res.stats.boxes
    return _combine(*verdicts), degree.w, boxes


def _traced_campaign_pass(data, tracer) -> Outcome:
    """run_campaign inside one span, then a replay of every relation of its
    report through the public covering steps, each gated against the report.
    The campaign's own relation list is read from the report only."""
    out = Outcome()
    with tracer.span("campaign.run_campaign") as s:
        report, _ = run_campaign(CampaignConfig())
    out.wall = s["end"] - s["start"]
    _gate_report(report, out)
    cfg = CampaignConfig().verify_config()
    replay = Outcome()
    for r in report.report["relations"]:
        N, M = data.hset(r["source"]), data.hset(r["target"])
        got = _traced_relation(tracer, replay, f"{r['source']}=>{r['target']}^{r['iters']}",
                               N, data.mapsys, r["iters"], M, cfg)
        _tally(out, got == (r["status"], r["w"], r["boxes"]), 0)
    # the cross-check verify_backcover(S^T*H3, F, 1, S^T*H2), which is the
    # direct covering of the transposed h-sets under the inverse map
    cc = report.report["backcover_crosscheck"]
    sH2 = sym_image(data.reversor, data.hset("H2"))
    sH3 = sym_image(data.reversor, data.hset("H3"))
    got = _traced_relation(tracer, replay, "backcover " + "=>".join(cc["edge"]) + "^1",
                           transpose(sH2), data.mapsys.require_inverse(), 1, transpose(sH3), cfg)
    _tally(out, got == (cc["direct_status"], cc["direct_w"], cc["boxes"]), 0)
    out.checks = replay.checks
    return out
