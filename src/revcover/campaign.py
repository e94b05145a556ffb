"""The bundled proof campaign for the shipped 4-d reversible map.

Builds the concrete h-sets around the two hyperbolic fixed points, verifies
the six covering relations of RELATIONS, closes the covering graph under the
reversing symmetry, certifies the fixed-space disks, and derives the
symbolic-dynamics conclusions (full two-shift for the 7th iterate, and an
infinite family of symmetric periodic orbits).

Each fact of the instance and the proof is stated once. INSTANCE_DATA holds
the constants; build_proof_data gives each h-set its center, anchor frame
and column scales from one table. RELATIONS is the one list of the
campaign's relations: the transition blocks over ALPHABET are read off its
rows, and the reversed relations, the N2 -> N1 block and the graph rebuilt
from a saved report all come from it by symmetric_closure. A relation is one
record under one set of field names, whether it is a certificate, a graph
Edge, a saved report's entry or an orbit certificate's step, and _graph
builds the covering graph from such records, for a campaign run and for a
saved report alike.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .covering import (
    REFUTED,
    VERIFIED,
    VerifyConfig,
    verify_backcover,
    verify_cover,
)
from .dynamics import MapSystem, reversible_quadratic_map
from .hset import (
    HSet,
    LinearReversor,
    _load_json,
    fix_disk_check,
    supports_disjoint,
    sym_image,
)
from .interval import DomainError


class ConfigError(Exception):
    """The instance data failed its own consistency constraints."""


class InadmissibleWordError(Exception):
    """A symbolic word uses a transition the covering graph does not certify."""


# Instance constants, kept as decimal strings and parsed to nearest doubles.
#
# The two anchor points are approximate symmetric fixed points with real
# hyperbolic spectrum; u1/u2 are unstable eigenvector approximations at each
# point and the stable partners are their images under the reversor. The
# unstable frame at the second point is oriented so that the certified
# degrees of the self-covering and of the connecting chain come out as
# (+1, -1, +1, -1, -1, -1); eigenvector orientation is otherwise arbitrary
# and does not affect any support or any topological conclusion.
INSTANCE_DATA = {
    "schema": "revcover-instance/1",
    "map": "F-quadratic-4d",
    "P1": ["0.0", "0.0", "-2.9288690017630725", "-1.649404627725545"],
    "P2": ["0.0", "0.0", "2.199939462565084", "-3.0396731015162355"],
    "eigenvectors": {
        "u1_P1": ["0.527847408170044", "0.254065286036574",
                  "0.730261232439584", "0.351491787265563"],
        "u2_P1": ["0.233876807615845", "0.485903716548415",
                  "0.365235930520818", "0.758816138574061"],
        "u1_P2": ["0.05726452423754", "-0.594572575636284",
                  "0.0768865282444865", "-0.7983061369797889"],
        "u2_P2": ["0.8918103319483236", "-0.0858921121857865",
                  "0.4421352370808943", "-0.0425829663821858"],
    },
    "frame_scales": {"N1": "0.012", "N2": "0.31"},
    # Two readings of the connecting-point formula: the mixed-frame variant
    # uses an eigenvector of the far fixed point, the same-frame variant the
    # second eigenvector of the near one. Exactly one satisfies the stated
    # orbit constraints; the builder selects it at run time.
    "q1_candidates": {
        "same-frame-u2": [["u1_P1", "0.0330092432"], ["u2_P1", "-0.048949"],
                          ["s1_P1", "0.0004931"]],
        "mixed-frame-u1": [["u1_P1", "0.0330092432"], ["u1_P2", "-0.048949"],
                           ["s1_P1", "0.0004931"]],
    },
    "q1_constraints": {"backward_to_P1": "0.006", "forward10_to_P2": "0.001"},
    "h_radii": {
        "H1": ["0.001", "0.00175", "0.005", "0.005"],
        "H2": ["0.28", "0.28", "0.2", "0.38"],
        "H3": ["0.15", "0.15", "0.12", "0.42"],
    },
}

# the relations the campaign certifies, in campaign order, as
# (source, target, iterates, expected degree w)
RELATIONS = (
    ("N1", "N1", 1, 1),
    ("N2", "N2", 1, -1),
    ("N1", "H1", 1, 1),
    ("H1", "H2", 4, -1),
    ("H2", "H3", 1, -1),
    ("H3", "N2", 1, -1),
)


def _vec(strings) -> np.ndarray:
    return np.array([float(x) for x in strings])


@dataclass
class ProofData:
    """Built instance: the map, its reversor, the five h-sets and the record
    of the Q1 disambiguation."""

    mapsys: MapSystem
    reversor: LinearReversor
    hsets: dict  # name -> HSet for N1, N2, H1, H2, H3
    q1_interpretation: dict

    def hset(self, name: str) -> HSet:
        return self.hsets[name]


def _q1_candidate_point(P1, vectors, terms) -> np.ndarray:
    q = P1.copy()
    for vec_name, coeff in terms:
        q = q + float(coeff) * vectors[vec_name]
    return q


def build_proof_data(data: Optional[dict] = None) -> ProofData:
    """Parse the embedded constants and assemble the campaign h-sets.

    The connecting point Q1 is disambiguated against its two stated orbit
    constraints; if not exactly one candidate passes, a ConfigError carries
    both residual pairs. Each h-set's direction columns are the frame
    (u1, u2, s1, s2) at its anchor point, scaled one by one.
    """
    d = data or INSTANCE_DATA
    mapsys = reversible_quadratic_map()
    S = mapsys.reversor
    P1 = _vec(d["P1"])
    P2 = _vec(d["P2"])
    vectors = {k: _vec(v) for k, v in d["eigenvectors"].items()}
    for name in list(vectors):
        # stable partner: image under the reversor, exact sign flips
        vectors["s" + name[1:]] = S.apply(vectors[name])

    back_tol = float(d["q1_constraints"]["backward_to_P1"])
    fwd_tol = float(d["q1_constraints"]["forward10_to_P2"])
    # the candidates' orbits, one row each: steps 0..10 under F
    names = list(d["q1_candidates"])
    orbit = [np.stack([_q1_candidate_point(P1, vectors, d["q1_candidates"][c]) for c in names])]
    back = np.max(np.abs(mapsys.require_inverse().image(orbit[0]) - P1), axis=1)
    for _ in range(10):
        orbit.append(mapsys.image(orbit[-1]))
    fwd = np.max(np.abs(orbit[10] - P2), axis=1)
    residuals = {c: {"backward_to_P1": float(b), "forward10_to_P2": float(f)}
                 for c, b, f in zip(names, back, fwd)}
    passing = [c for c, b, f in zip(names, back, fwd) if b < back_tol and f < fwd_tol]
    if len(passing) != 1:
        raise ConfigError(
            f"Q1 disambiguation needs exactly one passing candidate, got {passing}; "
            f"residuals: {residuals}"
        )
    choice = passing[0]
    Q1, Q2, Q3 = (orbit[step][names.index(choice)] for step in (0, 4, 5))

    # each h-set's anchor frame and the scales of its four columns
    frames = {
        "N1": ("P1", [d["frame_scales"]["N1"]] * 4),
        "N2": ("P2", [d["frame_scales"]["N2"]] * 4),
        "H1": ("P1", d["h_radii"]["H1"]),
        "H2": ("P2", d["h_radii"]["H2"]),
        "H3": ("P2", d["h_radii"]["H3"]),
    }
    centers = {"N1": P1, "N2": P2, "H1": Q1, "H2": Q2, "H3": Q3}
    hsets = {}
    for name, (anchor, scales) in frames.items():
        cols = [float(k) * vectors[f"{v}_{anchor}"] for v, k in zip(("u1", "u2", "s1", "s2"), scales)]
        hsets[name] = HSet(name, centers[name], np.column_stack(cols), 2, 2)
    return ProofData(mapsys=mapsys, reversor=S, hsets=hsets,
                     q1_interpretation={"choice": choice, "residuals": residuals})


@dataclass
class Edge:
    """A relation of the covering graph, with the fields of its record. An
    edge that symmetric_closure derived from the edge A => B has the
    opposite direction and derived_from = (A, B)."""

    source: str
    target: str
    map: str
    iters: int
    direction: str  # "direct" | "back"
    w: Optional[int]
    status: str
    derived_from: Optional[tuple] = None

    def key(self):
        return (self.source, self.target, self.map, self.iters, self.direction)

    def to_dict(self) -> dict:
        """The fields, derived_from as a list and only on a derived edge."""
        d = asdict(self)
        derived = d.pop("derived_from")
        return {**d, "derived_from": list(derived)} if derived else d


class CoveringGraph:
    """Nodes are h-sets (by name), edges are certified or derived relations."""

    def __init__(self):
        self.nodes: dict[str, HSet] = {}
        self.edges: list[Edge] = []

    def add_node(self, h: HSet) -> str:
        """Register under the name of an existing field-equal node, if any."""
        for name, other in self.nodes.items():
            if other == h:
                return name
        self.nodes[h.name] = h
        return h.name

    def add_edge(self, e: Edge) -> bool:
        if e.key() in {x.key() for x in self.edges}:
            return False
        self.edges.append(e)
        return True

    def usable_edges(self, src: str, dst: str) -> list[Edge]:
        return [e for e in self.edges if e.source == src and e.target == dst
                and e.status == VERIFIED]


def symmetric_closure(graph: CoveringGraph, S: LinearReversor) -> CoveringGraph:
    """Add, for every verified edge A => B, the reversor-derived edge
    S^T*B => S^T*A with the opposite direction and the same degree.

    Nodes equal to their own symmetric transposed image are identified, so
    the closure is idempotent.
    """
    flip = {"direct": "back", "back": "direct"}
    for e in list(graph.edges):
        if e.status != VERIFIED or e.direction not in flip:
            continue
        src = graph.nodes[e.source]
        dst = graph.nodes[e.target]
        new_src = sym_image(S, dst)
        new_dst = sym_image(S, src)
        ns = graph.add_node(new_src)
        nd = graph.add_node(new_dst)
        graph.add_edge(Edge(ns, nd, e.map, e.iters, flip[e.direction],
                            e.w, VERIFIED, derived_from=(e.source, e.target)))
    return graph


# the fields of a relation record that make a graph edge
_EDGE_FIELDS = ("source", "target", "map", "iters", "direction", "w", "status")


def _graph(data: ProofData, relations: list) -> CoveringGraph:
    """The covering graph of relation records (certificate dicts, or a saved
    report's relations) over the instance's h-sets, closed under its
    reversor."""
    graph = CoveringGraph()
    for h in data.hsets.values():
        graph.add_node(h)
    for r in relations:
        graph.add_edge(Edge(*(r[f] for f in _EDGE_FIELDS)))
    return symmetric_closure(graph, data.reversor)


# the block alphabet: the two symmetric anchor sets
ALPHABET = ("N1", "N2")

# three of the four transition blocks over ALPHABET, read off RELATIONS:
# N1 -> N2 is the chain of the connecting rows in table order, and each
# self-covering row is repeated up to that chain's iterate sum, 7;
# block_transitions derives N2 -> N1 from N1 -> N2
_CHAIN = [(a, b, k) for a, b, k, _ in RELATIONS if a != b]
_BLOCK_ITERS = sum(k for *_, k in _CHAIN)
_BLOCKS = {
    **{(a, b): [(a, b, k)] * (_BLOCK_ITERS // k) for a, b, k, _ in RELATIONS if a == b},
    (_CHAIN[0][0], _CHAIN[-1][1]): _CHAIN,
}


def _reversed_block(graph: CoveringGraph, chain: list) -> Optional[list]:
    """The symmetric image of a block: the chain walked backwards, each step
    (a, b) replaced by the graph edge symmetric_closure derived from it;
    None if one of those edges is missing."""
    derived = {(e.derived_from, e.iters): e for e in graph.edges if e.derived_from}
    edges = [derived.get(((a, b), k)) for a, b, k in reversed(chain)]
    if any(e is None for e in edges):
        return None
    return [(e.source, e.target, e.iters) for e in edges]


def block_transitions(graph: CoveringGraph) -> dict:
    """Availability of the four 7-step blocks over {N1, N2}; each block is a
    chain of verified graph edges whose iteration counts sum to 7, and
    N2 -> N1 is the symmetric image of N1 -> N2."""
    chains = {**_BLOCKS, ("N2", "N1"): _reversed_block(graph, _BLOCKS[("N1", "N2")])}
    return {
        pair: chain is not None and all(
            any(e.iters == iters for e in graph.usable_edges(src, dst))
            for src, dst, iters in chain)
        for pair, chain in chains.items()
    }


def enumerate_words(graph: CoveringGraph, length: int) -> list[tuple]:
    """All words over ALPHABET whose consecutive pairs have an available
    7-step block; the full shift yields exactly 2^L words."""
    if length < 1:
        raise InadmissibleWordError("word length must be >= 1")
    blocks = block_transitions(graph)
    words = [(a,) for a in ALPHABET]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in ALPHABET if blocks[(w[-1], b)]]
    return words


def word_counts(graph: CoveringGraph, upto: int) -> dict:
    """The number of words that enumerate_words lists, for each length
    1..upto, counted without listing them: the words of length L + 1 that
    end in b are those of length L that end in some a with an available
    block a -> b, so the counts are the row vector of ones times the powers
    of the block-availability matrix, in exact ints."""
    blocks = block_transitions(graph)
    ending = [1] * len(ALPHABET)  # the words of length L, by last letter
    counts = {}
    for L in range(1, upto + 1):
        counts[L] = sum(ending)
        ending = [sum(n for a, n in zip(ALPHABET, ending) if blocks[(a, b)]) for b in ALPHABET]
    return counts


AUTOMATON_SUCCESSORS = {0: (0, 1), 1: (2,), 2: (3,), 3: (1,)}
AUTOMATON_ENDPOINTS = (0, 2)


def automaton_words(length: int) -> list[tuple]:
    """All admissible words of the given length in an abstract 4-symbol
    transition system: each word starts and ends in an endpoint, {0, 2}, and
    each letter is a successor of the one before, 0 -> {0, 1}, 1 -> {2},
    2 -> {3}, 3 -> {1}."""
    if length < 1:
        return []
    words = [(a,) for a in AUTOMATON_ENDPOINTS]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in AUTOMATON_SUCCESSORS[w[-1]]]
    return [w for w in words if w[-1] in AUTOMATON_ENDPOINTS]


@dataclass
class SymmetricOrbitCertificate:
    """Existence certificate for a symmetric periodic point realizing the
    itinerary of a word through the covering graph.

    abs_degree_product is |w_1 * ... * w_k| along the chain; the conclusion
    needs it to be nonzero, and with degrees in {-1, +1} it is always 1.
    """

    word: tuple
    steps: list
    total_map_steps: int
    abs_degree_product: int
    conclusion: str

    def to_dict(self) -> dict:
        return {"schema": "revcover-symmetric-orbit/1", **asdict(self), "word": list(self.word)}


def emit_symmetric_orbit_certificate(graph: CoveringGraph, word, S: LinearReversor
                                     ) -> SymmetricOrbitCertificate:
    """Certificate for a word V0 .. Vk: consecutive pairs must be verified
    graph edges and both endpoints must carry a fixed-space disk."""
    word = tuple(word)
    if len(word) < 2:
        raise InadmissibleWordError("word needs at least two labels")
    for endpoint in (word[0], word[-1]):
        if endpoint not in graph.nodes:
            raise InadmissibleWordError(f"unknown endpoint {endpoint!r}")
        chk = fix_disk_check(S, graph.nodes[endpoint])
        if not chk.ok:
            raise InadmissibleWordError(
                f"endpoint {endpoint!r} carries no fixed-space disk: {chk.detail}"
            )
    steps = []
    total = 0
    degree_product = 1
    for a, b in zip(word, word[1:]):
        edges = graph.usable_edges(a, b)
        if not edges:
            raise InadmissibleWordError(f"no verified relation {a!r} => {b!r}")
        e = edges[0]
        steps.append({f: v for f, v in asdict(e).items() if f not in ("status", "derived_from")})
        total += e.iters
        degree_product *= e.w
    conclusion = (
        f"There is a point x in |{word[0]}| fixed by the reversor whose orbit "
        f"follows the itinerary {'-'.join(word)} and returns to the fixed space; "
        f"its orbit is symmetric periodic with principal period dividing {2 * total} "
        f"map steps."
    )
    return SymmetricOrbitCertificate(word, steps, total, abs(degree_product), conclusion)


@dataclass
class CampaignConfig:
    """Configuration of the full campaign. Cell verification defaults to the
    centered (mean value) evaluation; `plain` restores stepwise composition
    everywhere, which reproduces the original grid-method cost profile."""

    resolution: int = VerifyConfig.resolution
    max_depth: int = VerifyConfig.max_depth
    threads: int = VerifyConfig.threads
    budget: int = VerifyConfig.budget
    plain: bool = False
    fixed_grid: bool = VerifyConfig.fixed_grid
    enumerate_upto: int = 8

    def __post_init__(self):
        self.verify_config()  # raises DomainError for what VerifyConfig rejects

    def verify_config(self) -> VerifyConfig:
        return VerifyConfig(
            resolution=self.resolution,
            max_depth=self.max_depth,
            threads=self.threads,
            budget=self.budget,
            fixed_grid=self.fixed_grid,
            mean_value=not self.plain,
        )


REFERENCE_COST = {
    "boxes": 220_000_000,
    "wall_minutes": 36,
    "cpu": "2.4GHz",
    "note": "previously reported cost of the fixed-grid computation of these "
            "relations; adaptive counts differ by orders of magnitude",
}

@dataclass
class ProofReport:
    """Campaign output: certificates, structural checks and conclusions."""

    report: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        """0: every relation verified with its expected degree and every
        structural check (symmetry, disjoint supports, fixed-space disks)
        passed. 1: a relation has a refuted cell, or every relation verified
        but a degree differs from the expected one or a structural check
        failed. 2: no relation is refuted but one is inconclusive."""
        statuses = [r["status"] for r in self.report["relations"]]
        checks_ok = (
            all(self.report["st_symmetric"].values())
            and self.report["disjoint"]["N1,N2"]
            and all(v["ok"] for v in self.report["fix_disks"].values())
        )
        if all(s == VERIFIED for s in statuses) and checks_ok:
            if self.report.get("degrees_match", True):
                return 0
        if any(s == REFUTED for s in statuses):
            return 1
        if any(s != VERIFIED for s in statuses):
            return 2
        return 1

    def to_json(self) -> str:
        return json.dumps(self.report, indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def load(path) -> "ProofReport":
        """The saved report at path; a file that is not JSON raises
        DomainError."""
        return ProofReport(_load_json(path))


def _valid_relation(r) -> bool:
    """A saved relation record: a dict whose source, target, map, direction
    and status are str, whose iters is an int >= 1 and whose w is -1, 1 or
    None (a bool or a float is neither)."""
    return (isinstance(r, dict)
            and all(isinstance(r.get(k), str) for k in ("source", "target", "map", "direction",
                                                        "status"))
            and type(r.get("iters")) is int and r["iters"] >= 1
            and "w" in r and (r["w"] is None or (type(r["w"]) is int and r["w"] in (-1, 1))))


def graph_from_report(report: ProofReport, data: Optional[ProofData] = None) -> CoveringGraph:
    """Rebuild the covering graph (names only) from a saved report's
    relations, for word enumeration without re-verification. The derived
    edges are recomputed by symmetric_closure; the report's own
    `derived_edges` field is not read. `data` is the built instance
    (build_proof_data() when omitted). A report that is not a dict whose
    `relations` is a list of valid relation records (_valid_relation), or
    that relates a source or target that is not an h-set of the instance,
    raises DomainError."""
    relations = report.report.get("relations") if isinstance(report.report, dict) else None
    if not (isinstance(relations, list) and all(map(_valid_relation, relations))):
        raise DomainError("the report has no list of relations whose names are strings, "
                          "iters an integer >= 1 and w -1, 1 or null")
    data = data or build_proof_data()
    unknown = {r[end] for r in relations for end in ("source", "target")} - data.hsets.keys()
    if unknown:
        raise DomainError(f"the report relates h-sets the instance does not have: "
                          f"{', '.join(sorted(unknown))}")
    return _graph(data, relations)


def run_campaign(cfg: Optional[CampaignConfig] = None,
                 data: Optional[ProofData] = None) -> tuple[ProofReport, CoveringGraph]:
    """Run the full certified campaign and assemble the report. `data` is
    the built instance (build_proof_data() when omitted)."""
    cfg = cfg or CampaignConfig()
    vcfg = cfg.verify_config()
    t0 = time.perf_counter()
    data = data or build_proof_data()
    S = data.reversor

    disks = {name: fix_disk_check(S, data.hset(name)) for name in ALPHABET}
    st_sym = {name: d.ok for name, d in disks.items()}
    disjoint = {"N1,N2": bool(supports_disjoint(data.hset("N1"), data.hset("N2")))}

    certs = [verify_cover(data.hset(src), data.mapsys, k, data.hset(dst), vcfg)
             for src, dst, k, _ in RELATIONS]
    degrees_match = all(c.status == VERIFIED and c.w == w
                        for c, (*_, w) in zip(certs, RELATIONS))
    relations = [c.to_dict() for c in certs]
    graph = _graph(data, relations)

    # independent cross-check of one symmetry-derived backcovering, certified
    # head-on as a direct covering under the inverse map S o F o S
    sH2 = sym_image(S, data.hset("H2"))
    sH3 = sym_image(S, data.hset("H3"))
    cross = verify_backcover(sH3, data.mapsys, 1, sH2, vcfg)
    derived = [e for e in graph.edges if e.derived_from is not None]
    derived_w = next((e.w for e in derived if e.derived_from == ("H2", "H3")), None)
    crosscheck = {
        "edge": [sH3.name, sH2.name],
        "derived_w": derived_w,
        "direct_status": cross.status,
        "direct_w": cross.w,
        "abs_w_agrees": (derived_w is not None and cross.w is not None
                         and abs(derived_w) == abs(cross.w)),
        "boxes": cross.boxes,
    }

    blocks = block_transitions(graph)
    counts = word_counts(graph, cfg.enumerate_upto)
    conclusions = []
    if all(blocks.values()):
        conclusions.append(
            "All four 7-step transition blocks over {N1, N2} are certified, so the "
            "7th iterate of the map is semiconjugate to the full shift on two symbols."
        )
    if all(blocks.values()) and all(v.ok for v in disks.values()) and disjoint["N1,N2"]:
        conclusions.append(
            "N1 and N2 are symmetric h-sets with fixed-space disks and disjoint "
            "supports, so the certified word family N1^k H1 H2 H3 N2 (k >= 0) yields "
            "infinitely many symmetric periodic points of arbitrarily large principal "
            "period."
        )

    total_boxes = sum(c.boxes for c in certs) + cross.boxes
    report = ProofReport(
        {
            "schema": "revcover-report/1",
            "map": data.mapsys.name,
            "config": {
                "resolution": cfg.resolution,
                "max_depth": cfg.max_depth,
                "threads": cfg.threads,
                "budget": cfg.budget,
                "evaluation": "plain" if cfg.plain else "mean-value",
                "fixed_grid": cfg.fixed_grid,
            },
            "q1_interpretation": data.q1_interpretation,
            "st_symmetric": st_sym,
            "disjoint": disjoint,
            "fix_disks": {k: {"ok": v.ok, "detail": v.detail} for k, v in disks.items()},
            "relations": relations,
            "degrees_expected": {f"{a}->{b}": w for a, b, _, w in RELATIONS},
            "degrees_match": degrees_match,
            "derived_edges": [e.to_dict() for e in derived],
            "backcover_crosscheck": crosscheck,
            "blocks": {f"{a}->{b}": ok for (a, b), ok in blocks.items()},
            "word_counts": {str(k): v for k, v in counts.items()},
            "conclusions": conclusions,
            "totals": {
                "boxes": total_boxes,
                "wall_time_s": round(time.perf_counter() - t0, 3),
            },
            "reference_cost": REFERENCE_COST,
        }
    )
    return report, graph
