"""Command line front end: single relation checks, the full campaign, and
symbolic-dynamics enumeration, with machine-readable JSON reports.

Exit codes: 0 verified, 1 refuted cell, 2 inconclusive (budget or depth),
3 input error (an unknown or malformed h-set or map, an h-set file or saved
report that is not JSON text, an h-set matrix without a verified inverse, a
saved report whose relations are malformed, a relation whose h-sets and map
differ in dimension or whose h-sets differ in unstable dimension, an
iterate count below 1, a backcovering under a map without an inverse, a
config value out of range, such as a budget or thread count below 1, or a
REVCOVER_THREADS that is not a positive integer). For
prove-paper, 1 also means that every relation verified but a certified
degree differs from the expected one or a structural check (symmetry,
disjoint supports, fixed-space disks) failed; see ProofReport.exit_code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .campaign import (
    ALPHABET,
    CampaignConfig,
    InadmissibleWordError,
    ProofReport,
    build_proof_data,
    automaton_words,
    emit_symmetric_orbit_certificate,
    enumerate_words,
    graph_from_report,
    run_campaign,
    word_counts,
)
from .covering import INCONCLUSIVE, REFUTED, VERIFIED, VerifyConfig, verify_backcover, verify_cover
from .dynamics import MissingInverseError, map_by_name
from .hset import HSet, load_hset, sym_image
from .interval import DomainError

_STATUS_EXIT = {VERIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2}


def _default_threads() -> int:
    """The default --threads: REVCOVER_THREADS if set, which must be a
    positive integer (DomainError otherwise), else VerifyConfig's."""
    value = os.environ.get("REVCOVER_THREADS")
    if value is None:
        return VerifyConfig.threads
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DomainError(f"REVCOVER_THREADS must be a positive integer, got {value!r}")
    return threads


def _resolve_hsets(tokens) -> list[HSet]:
    """Builtin names (N1, H2, S^T*H3, ...) or paths to h-set JSON files. The
    builtin instance is built at most once, when a name needs it."""
    data = None
    out = []
    for token in tokens:
        if os.path.exists(token):
            out.append(load_hset(token))
            continue
        data = data or build_proof_data()
        name = token.removeprefix("S^T*")
        if name not in data.hsets:
            raise DomainError(f"unknown h-set {token!r}: not a file and not a builtin name")
        h = data.hsets[name]
        out.append(h if name == token else sym_image(data.reversor, h))
    return out


# the flags of _add_verify_flags that verify and prove-paper pass on as config fields
_CONFIG_FLAGS = ("resolution", "max_depth", "threads", "budget", "fixed_grid")


def _config_flags(args) -> dict:
    return {name: getattr(args, name) for name in _CONFIG_FLAGS}


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resolution", type=int, default=VerifyConfig.resolution,
                   help="initial subdivisions per free facet coordinate")
    p.add_argument("--max-depth", type=int, default=VerifyConfig.max_depth,
                   help="bisection depth cap")
    p.add_argument("--threads", type=int, default=_default_threads(),
                   help="worker processes (REVCOVER_THREADS sets the default)")
    p.add_argument("--budget", type=int, default=VerifyConfig.budget,
                   help="box budget per check (exit and entry each)")
    p.add_argument("--fixed-grid", action="store_true", default=VerifyConfig.fixed_grid,
                   help="uniform grid only, no adaptive bisection")
    p.add_argument("--report", type=Path, default=None, help="write a JSON report here")
    p.add_argument("--plot", type=Path, default=None,
                   help="directory for plain-text projection point clouds")


def _write_relation_clouds(outdir: Path, N: HSet, mapsys, k: int, M: HSet) -> None:
    """Float point clouds (diagnostic, not rigorous): exit-wall image in the
    target's unstable chart coordinates, boundary image in the stable ones,
    and ambient projections of both supports."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20240)
    n = N.dim

    def chart_image(points):
        for _ in range(k):
            points = mapsys.image(points)
        return np.linalg.solve(M.matrix, (points - M.center).T).T

    cube = rng.uniform(-1.0, 1.0, size=(4000, n))
    wall = cube.copy()
    ax = rng.integers(0, N.u, size=len(wall))
    wall[np.arange(len(wall)), ax] = np.sign(rng.uniform(-1, 1, size=len(wall))) * 1.0
    bnd = cube.copy()
    ax = rng.integers(0, n, size=len(bnd))
    bnd[np.arange(len(bnd)), ax] = np.sign(rng.uniform(-1, 1, size=len(bnd))) * 1.0

    img_wall = chart_image(wall @ N.matrix.T + N.center)
    img_bnd = chart_image(bnd @ N.matrix.T + N.center)
    np.savetxt(outdir / f"{N.name}_exit_image_unstable.txt", img_wall[:, : M.u],
               header=f"exit wall of {N.name} mapped {k}x, unstable chart coords of {M.name}")
    np.savetxt(outdir / f"{N.name}_boundary_image_stable.txt", img_bnd[:, M.u:],
               header=f"boundary of {N.name} mapped {k}x, stable chart coords of {M.name}")
    for h in (N, M):
        pts = rng.uniform(-1.0, 1.0, size=(2000, n)) @ h.matrix.T + h.center
        np.savetxt(outdir / f"{h.name.replace('*', '_').replace('^', '')}_support_y.txt",
                   pts[:, 2:4] if n >= 4 else pts,
                   header=f"support of {h.name}, ambient coords 3,4" if n >= 4
                   else f"support of {h.name}")


def _cmd_verify(args) -> int:
    try:
        src, dst = _resolve_hsets((getattr(args, "from"), args.to))
        mapsys = map_by_name(args.map)
        cfg = VerifyConfig(**_config_flags(args), mean_value=args.mean_value)
    except (DomainError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    fn = verify_backcover if args.back else verify_cover
    try:
        cert = fn(src, mapsys, args.iters, dst, cfg)
    except (DomainError, MissingInverseError) as e:  # a mismatched relation, no inverse
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(f"{cert.source} ={cert.map}^{cert.iters}=> {cert.target} "
          f"[{cert.direction}]: {cert.status}"
          + (f", w={cert.w}" if cert.w is not None else "")
          + f", boxes={cert.boxes}, depth={cert.max_depth}")
    if cert.failure:
        print(f"  failure: {cert.failure}")
    if args.report:
        payload = cert.to_dict()
        sources = {h.name: h.decimal_source for h in (src, dst) if h.decimal_source}
        if sources:
            payload["input_decimal_sources"] = sources
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.plot:
        _write_relation_clouds(args.plot, src, mapsys, args.iters, dst)
    return _STATUS_EXIT.get(cert.status, 2)


def _cmd_prove_paper(args) -> int:
    try:
        cfg = CampaignConfig(**_config_flags(args), plain=args.plain,
                             enumerate_upto=args.enumerate_upto)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    data = build_proof_data()
    report, _ = run_campaign(cfg, data)
    r = report.report
    print(f"map: {r['map']}  evaluation: {r['config']['evaluation']}")
    print(f"Q1 interpretation: {r['q1_interpretation']['choice']}")
    for rel in r["relations"]:
        print(f"  {rel['source']} ={rel['map']}^{rel['iters']}=> {rel['target']}: "
              f"{rel['status']}, w={rel['w']}, boxes={rel['boxes']}")
    print(f"symmetric: {r['st_symmetric']}  disjoint: {r['disjoint']}")
    print(f"fix disks: { {k: v['ok'] for k, v in r['fix_disks'].items()} }")
    print(f"blocks: {r['blocks']}")
    cc = r["backcover_crosscheck"]
    print(f"backcover cross-check {cc['edge']}: {cc['direct_status']}, "
          f"|w| agreement: {cc['abs_w_agrees']}")
    print(f"boxes: {r['totals']['boxes']} (reference fixed-grid computation: "
          f"{r['reference_cost']['boxes']:.1e} boxes, {r['reference_cost']['wall_minutes']} min)")
    print(f"wall time: {r['totals']['wall_time_s']} s")
    for c in r["conclusions"]:
        print(f"conclusion: {c}")
    if args.report:
        report.save(args.report)
        print(f"report written to {args.report}")
    if args.plot:
        _write_relation_clouds(args.plot, data.hset("H1"), data.mapsys, 4, data.hset("H2"))
        _write_relation_clouds(args.plot, data.hset("N1"), data.mapsys, 1, data.hset("N1"))
    return report.exit_code


def _cmd_enumerate(args) -> int:
    if args.length < 1:
        print("error: --length must be >= 1", file=sys.stderr)
        return 3
    if args.automaton:
        words = automaton_words(args.length)
        payload = {"alphabet": [0, 1, 2, 3], "length": args.length,
                   "words": [list(w) for w in words], "count": len(words)}
        print(f"{len(words)} admissible automaton words of length {args.length}")
    else:
        data = build_proof_data()
        try:
            if args.report_in:
                graph = graph_from_report(ProofReport.load(args.report_in), data)
            else:
                _, graph = run_campaign(CampaignConfig(threads=args.threads), data)
        except (OSError, DomainError) as e:
            print(f"error: no usable covering graph: {e}", file=sys.stderr)
            return 3
        # counted without listing; the 2**L words are listed only for --out
        count = word_counts(graph, args.length)[args.length]
        payload = {"alphabet": list(ALPHABET), "length": args.length, "count": count}
        if args.out:
            payload["words"] = ["-".join(w) for w in enumerate_words(graph, args.length)]
        print(f"{count} words of length {args.length} over ({', '.join(ALPHABET)})")
        certs = []
        for spec in args.emit_word or []:
            word = tuple(x.strip() for x in spec.split(","))
            try:
                cert = emit_symmetric_orbit_certificate(graph, word, data.reversor)
            except InadmissibleWordError as e:
                print(f"error: inadmissible word {spec!r}: {e}", file=sys.stderr)
                return 3
            certs.append(cert.to_dict())
            print(f"symmetric orbit certificate: {'-'.join(word)} "
                  f"(period divides {2 * cert.total_map_steps})")
        if certs:
            payload["symmetric_orbit_certificates"] = certs
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revcover",
        description="Rigorous covering-relation verification for reversible maps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one covering or backcovering relation")
    v.add_argument("--from", required=True, help="source h-set: builtin name or JSON file")
    v.add_argument("--to", required=True, help="target h-set: builtin name or JSON file")
    v.add_argument("--map", default="F", help="map name (default F)")
    v.add_argument("--iters", type=int, default=1, help="iterate count k")
    v.add_argument("--back", action="store_true", help="verify a backcovering instead")
    v.add_argument("--mean-value", action="store_true", default=VerifyConfig.mean_value,
                   help="centered-form cell evaluation (default: plain composition)")
    _add_verify_flags(v)
    v.set_defaults(func=_cmd_verify)

    p = sub.add_parser("prove-paper",
                       help="run the bundled end-to-end proof campaign")
    p.add_argument("--plain", action="store_true",
                   help="plain stepwise evaluation (grid-method cost profile)")
    p.add_argument("--enumerate-upto", type=int, default=CampaignConfig.enumerate_upto,
                   help="tabulate word counts up to this length")
    _add_verify_flags(p)
    p.set_defaults(func=_cmd_prove_paper)

    e = sub.add_parser("enumerate", help="admissible words and orbit certificates")
    e.add_argument("--length", type=int, required=True, help="word length (>= 1)")
    e.add_argument("--report", dest="report_in", type=Path, default=None,
                   help="reuse the covering graph of a saved campaign report")
    e.add_argument("--automaton", action="store_true",
                   help="enumerate the abstract 4-symbol transition system instead")
    e.add_argument("--emit-word", action="append", default=None,
                   help="comma-separated node word to certify (repeatable)")
    e.add_argument("--threads", type=int, default=_default_threads())
    e.add_argument("--out", type=Path, default=None,
                   help="write results as JSON, every word listed")
    e.set_defaults(func=_cmd_enumerate)
    return ap


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except DomainError as e:  # REVCOVER_THREADS out of range
        print(f"error: {e}", file=sys.stderr)
        return 3
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
