"""Command line front end: single relation checks, the full campaign, and
symbolic-dynamics enumeration, with machine-readable JSON reports.
`enumerate` is the one command that counts words; it runs the campaign at
CampaignConfig() or reads the covering graph of a saved report.

Exit codes: 0 verified, 1 refuted cell, 2 inconclusive (budget or depth),
3 input error. Codes 0, 1 and 2 are the verdicts' order in
covering.VERDICTS, and 1 and 2 are only ever verdicts. Every input error is a
DomainError or an OSError, and main alone turns it into one "error:" line
on stderr and exit code 3: a malformed command line (an unknown command, a
missing or malformed option, after the usage), an unknown or malformed
h-set or map, an h-set file or saved report that cannot be read or is not
JSON text, an h-set matrix without a verified inverse, a saved report whose
relations are malformed (a verified one without a degree among them), a
relation whose h-sets and map differ in dimension or whose h-sets differ
in unstable dimension, an iterate count below 1, a backcovering under a
map without a reversor the proof accepts (MapSystem.require_inverse), a
config value out of range, such as a budget or thread count below 1, an
enumerate --length below 1, a REVCOVER_THREADS that is not a positive
integer (read only by verify and prove-paper without --threads), an
inadmissible --emit-word, or an output file or directory (--report, --out,
--plot) that cannot be written. The output paths, the word length, each
--emit-word's length and its labels (h-set names of the instance, or
their symmetric names, hset.canonical_sym_name) are checked, and the --plot
directory created, before any verification, so a refused input costs no
proof; each --emit-word is certified on the covering graph before anything
is printed, so a word the graph refuses prints nothing on stdout. Every JSON
file is written by the one JSON writer, hset._dump_json. For prove-paper,
1 also means that every relation verified but a certified degree differs
from the expected one or a structural check (the fixed-space disks,
disjoint supports) failed; see ProofReport.exit_code.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .campaign import (
    ALPHABET,
    RELATIONS,
    CampaignConfig,
    ProofReport,
    build_proof_data,
    check_orbit_word,
    check_word_length,
    emit_symmetric_orbit_certificate,
    enumerate_words,
    graph_from_report,
    run_campaign,
    word_count,
)
from .covering import VERDICTS, VerifyConfig, verify_backcover, verify_cover
from .dynamics import map_by_name
from .hset import HSet, _dump_json, canonical_sym_name, load_hset, sym_image, transpose
from .interval import DomainError


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


def _builtin_name(data, name) -> Optional[str]:
    """The instance's h-set that `name` names: itself, or the one whose
    symmetric image it names (hset.canonical_sym_name); None if neither is
    an h-set of the instance."""
    for base in (name, canonical_sym_name(name)):
        if base in data.hsets:
            return base
    return None


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
        name = _builtin_name(data, token)
        if name is None:
            raise DomainError(f"unknown h-set {token!r}: not a file and not a builtin name")
        h = data.hsets[name]
        out.append(h if name == token else sym_image(data.reversor, h))
    return out


# the flags of _add_verify_flags that verify and prove-paper pass on as config fields
_CONFIG_FLAGS = ("resolution", "max_depth", "threads", "budget")


def _config_flags(args) -> dict:
    """The config fields of the flags; without --threads, the thread count
    is _default_threads(), so only verify and prove-paper, and only then,
    read REVCOVER_THREADS."""
    flags = {name: getattr(args, name) for name in _CONFIG_FLAGS}
    if flags["threads"] is None:
        flags["threads"] = _default_threads()
    return flags


def _prepare_outputs(path, plot=None) -> None:
    """Before any verification: refuse an output file whose directory does
    not exist (DomainError), then create the plot directory (OSError if it
    cannot be). A refused run writes nothing."""
    if path is not None and not path.parent.is_dir():
        raise DomainError(f"cannot write {path}: {path.parent} is not a directory")
    if plot is not None:
        plot.mkdir(parents=True, exist_ok=True)


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resolution", type=int, default=VerifyConfig.resolution,
                   help="initial subdivisions per free facet coordinate")
    p.add_argument("--max-depth", type=int, default=VerifyConfig.max_depth,
                   help="bisection depth cap (0: the initial grid must decide)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: REVCOVER_THREADS if set, else "
                        f"{VerifyConfig.threads})")
    p.add_argument("--budget", type=int, default=VerifyConfig.budget,
                   help="box budget per check (exit and entry each)")
    p.add_argument("--report", type=Path, default=None, help="write a JSON report here")
    p.add_argument("--plot", type=Path, default=None,
                   help="directory for plain-text projection point clouds")


def _write_relation_clouds(outdir: Path, N: HSet, mapsys, k: int, M: HSet) -> None:
    """Float point clouds (diagnostic, not rigorous) of the relation
    N =(map^k)=> M: exit-wall image in the target's unstable chart
    coordinates, boundary image in the stable ones, and ambient projections
    of both supports, in the existing directory outdir. File names are the
    h-set names with "*" as "_" and without "^"."""
    rng = np.random.default_rng(20240)
    n = N.dim

    def stem(h):
        return h.name.replace("*", "_").replace("^", "")

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
    np.savetxt(outdir / f"{stem(N)}_exit_image_unstable.txt", img_wall[:, : M.u],
               header=f"exit wall of {N.name} mapped {k}x, unstable chart coords of {M.name}")
    np.savetxt(outdir / f"{stem(N)}_boundary_image_stable.txt", img_bnd[:, M.u:],
               header=f"boundary of {N.name} mapped {k}x, stable chart coords of {M.name}")
    for h in (N, M):
        pts = rng.uniform(-1.0, 1.0, size=(2000, n)) @ h.matrix.T + h.center
        np.savetxt(outdir / f"{stem(h)}_support_y.txt",
                   pts[:, 2:4] if n >= 4 else pts,
                   header=f"support of {h.name}, ambient coords 3,4" if n >= 4
                   else f"support of {h.name}")


def _cmd_verify(args) -> int:
    src, dst = _resolve_hsets((getattr(args, "from"), args.to))
    mapsys = map_by_name(args.map)
    cfg = VerifyConfig(**_config_flags(args), mean_value=args.mean_value)
    _prepare_outputs(args.report, args.plot)
    fn = verify_backcover if args.back else verify_cover
    cert = fn(src, mapsys, args.iters, dst, cfg)
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
        _dump_json(args.report, payload)
    if args.plot:
        if args.back:  # the relation that verify_backcover certifies
            src, mapsys, dst = transpose(dst), mapsys.require_inverse(), transpose(src)
        _write_relation_clouds(args.plot, src, mapsys, args.iters, dst)
    return VERDICTS.index(cert.status)


def _cmd_prove_paper(args) -> int:
    cfg = CampaignConfig(**_config_flags(args), plain=args.plain)
    _prepare_outputs(args.report, args.plot)
    data = build_proof_data()
    report, _ = run_campaign(cfg, data)
    r = report.report
    print(f"map: {r['map']}  evaluation: {r['config']['evaluation']}")
    print(f"Q1 residuals: {r['q1_residuals']}")
    for rel in r["relations"]:
        print(f"  {rel['source']} ={rel['map']}^{rel['iters']}=> {rel['target']}: "
              f"{rel['status']}, w={rel['w']}, boxes={rel['boxes']}")
    print(f"disjoint: {r['disjoint']}")
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
        longest = max(RELATIONS, key=lambda rel: rel[2])
        self_covering = next(rel for rel in RELATIONS if rel[0] == rel[1])
        for src, dst, k, _ in (longest, self_covering):
            _write_relation_clouds(args.plot, data.hset(src), data.mapsys, k, data.hset(dst))
    return report.exit_code


def _cmd_enumerate(args) -> int:
    check_word_length(args.length)
    words = [(spec, tuple(x.strip() for x in spec.split(","))) for spec in args.emit_word or []]
    for spec, word in words:
        with _inadmissible(spec):
            check_orbit_word(word)
    _prepare_outputs(args.out)
    data = build_proof_data()
    for spec, word in words:
        unknown = [x for x in word if _builtin_name(data, x) is None]
        if unknown:
            raise DomainError(f"inadmissible word {spec!r}: unknown h-set {unknown[0]!r}")
    try:
        if args.report_in:
            graph = graph_from_report(ProofReport.load(args.report_in), data)
        else:
            _, graph = run_campaign(CampaignConfig(), data)
    except (OSError, DomainError) as e:
        raise DomainError(f"no usable covering graph: {e}") from e
    # every word is certified on the graph before anything is printed
    certs = []
    for spec, word in words:
        with _inadmissible(spec):
            certs.append(emit_symmetric_orbit_certificate(graph, word, data.reversor))
    # counted without listing; the 2**L words are listed only for --out
    count = word_count(graph, args.length)
    payload = {"alphabet": list(ALPHABET), "length": args.length, "count": count}
    if args.out:
        payload["words"] = ["-".join(w) for w in enumerate_words(graph, args.length)]
    print(f"{count} words of length {args.length} over ({', '.join(ALPHABET)})")
    for cert in certs:
        print(f"symmetric orbit certificate: {'-'.join(cert.word)} "
              f"(period divides {2 * cert.total_map_steps})")
    if certs:
        payload["symmetric_orbit_certificates"] = [cert.to_dict() for cert in certs]
    if args.out:
        _dump_json(args.out, payload)
    return 0


@contextmanager
def _inadmissible(spec):
    """Names the --emit-word spec in the DomainError of the block."""
    try:
        yield
    except DomainError as e:
        raise DomainError(f"inadmissible word {spec!r}: {e}") from e


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are input errors: error() prints
    the usage and raises DomainError, for main to turn into exit code 3.
    The subcommands' parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    _add_verify_flags(p)
    p.set_defaults(func=_cmd_prove_paper)

    e = sub.add_parser("enumerate", help="admissible words and orbit certificates")
    e.add_argument("--length", type=int, required=True, help="word length (>= 1)")
    e.add_argument("--report", dest="report_in", type=Path, default=None,
                   help="reuse the covering graph of a saved campaign report")
    e.add_argument("--emit-word", action="append", default=None,
                   help="comma-separated node word to certify (repeatable)")
    e.add_argument("--out", type=Path, default=None,
                   help="write results as JSON, every word listed")
    e.set_defaults(func=_cmd_enumerate)
    return ap


def main(argv=None) -> int:
    """Runs the command argv (sys.argv[1:] if None) and returns its exit
    code; the one place where an input error becomes exit code 3."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
