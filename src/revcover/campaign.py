"""The bundled proof campaign for the shipped 4-d reversible map.

Builds the concrete h-sets around the two hyperbolic fixed points, verifies
the six covering relations of RELATIONS, closes the covering graph under the
reversing symmetry, certifies the fixed-space disks, and derives the
symbolic-dynamics conclusions (full two-shift for the 7th iterate, and an
infinite family of symmetric periodic orbits).

Each fact of the instance and the proof is stated once. INSTANCE_DATA holds
the constants, the connecting point Q1 as one reading of the paper's
formula; build_proof_data checks Q1 against its orbit constraints and
gives each h-set its center, anchor frame and column scales from one
table. RELATIONS is the one list of the campaign's relations: ALPHABET is
its self-covering rows, and the reversed relations and the graph rebuilt
from a saved report come from it by symmetric_closure. A transition block
a -> b over ALPHABET is any path of verified edges of the closed graph
from a to b in 7 map steps (block_transitions), so no chain is written out
by hand. A relation is one record under one set of field names, whether it
is a certificate, a graph Edge, a saved report's entry or an orbit
certificate's step, and _graph builds the covering graph from such
records, for a campaign run and for a saved report alike. The report
holds only what cannot be recomputed from its other fields: the relations
(the closure derives the rest of the graph from them), the fixed-space
disks (the symmetry checks of N1 and N2) and degrees_match, the comparison
with RELATIONS' degrees; it is saved by the package's one JSON writer
(hset._dump_json). It counts no words: the four block booleans fix the
counts, and `enumerate` counts them (word_count).
"""

from __future__ import annotations

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
    _dump_json,
    _load_json,
    fix_disk_check,
    supports_disjoint,
    sym_image,
)
from .interval import DomainError, SingularMatrixError


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
    # The connecting point Q1 = P1 + a u1_P1 + b u2_P1 + c s1_P1, summed in
    # this order: the same-frame reading of the paper's formula, whose
    # second term is the near point's second eigenvector. The other
    # reading, u1_P2 in its place, misses both orbit constraints: its
    # residuals are 0.0188 backward (bound 0.006) and 5.9e25 forward
    # (bound 0.001).
    "Q1": [["u1_P1", "0.0330092432"], ["u2_P1", "-0.048949"], ["s1_P1", "0.0004931"]],
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
    """Built instance: the map, the five h-sets and Q1's residuals against
    its two orbit constraints; the reversor is the map's."""

    mapsys: MapSystem
    hsets: dict  # name -> HSet for N1, N2, H1, H2, H3
    q1_residuals: dict  # backward_to_P1, forward10_to_P2

    @property
    def reversor(self) -> LinearReversor:
        return self.mapsys.reversor

    def hset(self, name: str) -> HSet:
        return self.hsets[name]


def build_proof_data(data: Optional[dict] = None) -> ProofData:
    """Parse the instance data (INSTANCE_DATA when data is None) and
    assemble the campaign h-sets.

    The connecting point Q1 is checked against its two stated orbit
    constraints, |F^-1(Q1) - P1| and |F^10(Q1) - P2| in the max norm, with
    F^-1 from MapSystem.require_inverse, which proves the reversor first; a
    miss raises DomainError with both residuals. Data for a map other than
    the one built here, a missing key or a malformed entry raises
    DomainError, as does an h-set without a verified inverse. Each h-set's
    direction columns are the frame (u1, u2, s1, s2) at its anchor point,
    scaled one by one.
    """
    try:
        return _assemble(INSTANCE_DATA if data is None else data)
    except (KeyError, TypeError, ValueError, AttributeError, SingularMatrixError) as e:
        raise DomainError(f"malformed instance data: {type(e).__name__}: {e}") from e


def _assemble(d: dict) -> ProofData:
    mapsys = reversible_quadratic_map()
    if d["map"] != mapsys.name:
        raise DomainError(f"the instance data is for map {d['map']!r}, not {mapsys.name!r}")
    S = mapsys.reversor
    P1 = _vec(d["P1"])
    P2 = _vec(d["P2"])
    vectors = {k: _vec(v) for k, v in d["eigenvectors"].items()}
    for name in list(vectors):
        # stable partner: image under the reversor, exact sign flips
        vectors["s" + name[1:]] = S.apply(vectors[name])

    Q1 = P1
    for vec_name, coeff in d["Q1"]:
        Q1 = Q1 + float(coeff) * vectors[vec_name]
    orbit = [Q1]  # Q1's orbit under F, steps 0..10: H2 and H3 are centered at 4 and 5
    for _ in range(10):
        orbit.append(mapsys.image(orbit[-1]))
    residuals = {
        "backward_to_P1": float(np.max(np.abs(mapsys.require_inverse().image(Q1) - P1))),
        "forward10_to_P2": float(np.max(np.abs(orbit[10] - P2))),
    }
    if not all(residuals[k] < float(d["q1_constraints"][k]) for k in residuals):
        raise DomainError(f"Q1 misses its orbit constraints {d['q1_constraints']}: "
                          f"residuals {residuals}")

    # each h-set's anchor frame and the scales of its four columns
    frames = {
        "N1": ("P1", [d["frame_scales"]["N1"]] * 4),
        "N2": ("P2", [d["frame_scales"]["N2"]] * 4),
        "H1": ("P1", d["h_radii"]["H1"]),
        "H2": ("P2", d["h_radii"]["H2"]),
        "H3": ("P2", d["h_radii"]["H3"]),
    }
    centers = {"N1": P1, "N2": P2, "H1": Q1, "H2": orbit[4], "H3": orbit[5]}
    hsets = {}
    for name, (anchor, scales) in frames.items():
        cols = [float(k) * vectors[f"{v}_{anchor}"] for v, k in zip(("u1", "u2", "s1", "s2"), scales)]
        hsets[name] = HSet(name, centers[name], np.column_stack(cols), 2, 2)
    return ProofData(mapsys=mapsys, hsets=hsets, q1_residuals=residuals)


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

    def add_edge(self, e: Edge) -> None:
        """Append e unless an edge with its key is there already."""
        if e.key() not in {x.key() for x in self.edges}:
            self.edges.append(e)


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


# the block alphabet: the two symmetric anchor sets, the self-covering rows
ALPHABET = tuple(a for a, b, *_ in RELATIONS if a == b)

# the map steps of a transition block: the paper's full shift is one of F^7
_BLOCK_ITERS = 7


def block_transitions(graph: CoveringGraph) -> dict:
    """Availability of the four 7-step blocks over ALPHABET: a -> b is
    available when verified edges of the graph, covering or backcovering,
    lead from a to b in _BLOCK_ITERS map steps. reach[t] holds the pairs
    (a, v) with such a path from a to v of t steps; each edge is an
    iterate count >= 1, so one pass over t = 0, 1, ... fills it."""
    reach = [{(a, a) for a in ALPHABET}] + [set() for _ in range(_BLOCK_ITERS)]
    for t in range(_BLOCK_ITERS):
        for e in graph.edges:
            if e.status == VERIFIED and t + e.iters <= _BLOCK_ITERS:
                reach[t + e.iters] |= {(a, e.target) for a, v in reach[t] if v == e.source}
    return {(a, b): (a, b) in reach[_BLOCK_ITERS] for a in ALPHABET for b in ALPHABET}


def check_word_length(length: int) -> None:
    """Refuse a word length below 1 (DomainError)."""
    if length < 1:
        raise DomainError("word length must be >= 1")


def check_orbit_word(word: tuple) -> None:
    """Refuse an orbit word of fewer than two labels (DomainError)."""
    if len(word) < 2:
        raise DomainError("word needs at least two labels")


def enumerate_words(graph: CoveringGraph, length: int) -> list[tuple]:
    """All words over ALPHABET whose consecutive pairs have an available
    7-step block; the full shift yields exactly 2^L words. A length below
    1 raises DomainError (check_word_length)."""
    check_word_length(length)
    blocks = block_transitions(graph)
    words = [(a,) for a in ALPHABET]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in ALPHABET if blocks[(w[-1], b)]]
    return words


def word_count(graph: CoveringGraph, length: int) -> int:
    """The number of words that enumerate_words lists for `length`,
    counted without listing them: the words of length L + 1 that end in b
    are those of length L that end in some a with an available block
    a -> b, so the count is the row vector of ones times a power of the
    block-availability matrix, in exact ints. Like enumerate_words, it
    refuses a length below 1 (DomainError)."""
    check_word_length(length)
    blocks = block_transitions(graph)
    ending = [1] * len(ALPHABET)  # the words of length 1, by last letter
    for _ in range(length - 1):
        ending = [sum(n for a, n in zip(ALPHABET, ending) if blocks[(a, b)]) for b in ALPHABET]
    return sum(ending)


@dataclass
class SymmetricOrbitCertificate:
    """Existence certificate for a symmetric periodic point realizing the
    itinerary of a word through the covering graph.

    The conclusion needs the product of the steps' degrees to be nonzero;
    a verified edge's degree is -1 or 1, so it is.
    """

    word: tuple
    steps: list
    total_map_steps: int
    conclusion: str

    def to_dict(self) -> dict:
        return {"schema": "revcover-symmetric-orbit/1", **asdict(self), "word": list(self.word)}


def emit_symmetric_orbit_certificate(graph: CoveringGraph, word, S: LinearReversor
                                     ) -> SymmetricOrbitCertificate:
    """Certificate for a word V0 .. Vk: consecutive pairs must be verified
    graph edges and both endpoints must carry a fixed-space disk."""
    word = tuple(word)
    check_orbit_word(word)
    for endpoint in (word[0], word[-1]):
        if endpoint not in graph.nodes:
            raise DomainError(f"unknown endpoint {endpoint!r}")
        chk = fix_disk_check(S, graph.nodes[endpoint])
        if not chk.ok:
            raise DomainError(
                f"endpoint {endpoint!r} carries no fixed-space disk: {chk.detail}"
            )
    steps = []
    total = 0
    for a, b in zip(word, word[1:]):
        e = next((e for e in graph.edges
                  if (e.source, e.target, e.status) == (a, b, VERIFIED)), None)
        if e is None:
            raise DomainError(f"no verified relation {a!r} => {b!r}")
        steps.append({f: v for f, v in asdict(e).items() if f not in ("status", "derived_from")})
        total += e.iters
    conclusion = (
        f"There is a point x in |{word[0]}| fixed by the reversor whose orbit "
        f"follows the itinerary {'-'.join(word)} and returns to the fixed space; "
        f"its orbit is symmetric periodic with principal period dividing {2 * total} "
        f"map steps."
    )
    return SymmetricOrbitCertificate(word, steps, total, conclusion)


@dataclass
class CampaignConfig:
    """Configuration of the full campaign. Cell verification defaults to the
    centered (mean value) evaluation; `plain` restores stepwise composition
    everywhere, which reproduces the original grid-method cost profile. A
    fixed grid is max_depth = 0. Every value is checked by VerifyConfig,
    through verify_config()."""

    resolution: int = VerifyConfig.resolution
    max_depth: int = VerifyConfig.max_depth
    threads: int = VerifyConfig.threads
    budget: int = VerifyConfig.budget
    plain: bool = False

    def __post_init__(self):
        self.verify_config()  # raises DomainError for what VerifyConfig rejects

    def verify_config(self) -> VerifyConfig:
        return VerifyConfig(
            resolution=self.resolution,
            max_depth=self.max_depth,
            threads=self.threads,
            budget=self.budget,
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
        """0: every relation verified, degrees_match is True and every
        structural check (fixed-space disks, disjoint supports) passed. 1: a
        relation has a refuted cell, or every relation verified but
        degrees_match is not True or a structural check failed. 2: no
        relation is refuted but one is inconclusive."""
        statuses = [r["status"] for r in self.report["relations"]]
        checks_ok = (
            self.report.get("degrees_match") is True
            and self.report["disjoint"]["N1,N2"]
            and all(v["ok"] for v in self.report["fix_disks"].values())
        )
        if all(s == VERIFIED for s in statuses) and checks_ok:
            return 0
        if any(s == REFUTED for s in statuses):
            return 1
        if any(s != VERIFIED for s in statuses):
            return 2
        return 1

    def save(self, path) -> None:
        _dump_json(path, self.report)

    @staticmethod
    def load(path) -> "ProofReport":
        """The saved report at path; a file that is not JSON raises
        DomainError."""
        return ProofReport(_load_json(path))


def _valid_relation(r) -> bool:
    """A saved relation record: a dict whose source, target, map, direction
    and status are str, whose iters is an int >= 1 and whose w is -1 or 1
    (a bool or a float is neither), or None when the status is not
    verified."""
    return (isinstance(r, dict)
            and all(isinstance(r.get(k), str) for k in ("source", "target", "map", "direction",
                                                        "status"))
            and type(r.get("iters")) is int and r["iters"] >= 1
            and "w" in r and (type(r["w"]) is int and r["w"] in (-1, 1)
                              or r["w"] is None and r["status"] != VERIFIED))


def graph_from_report(report: ProofReport, data: Optional[ProofData] = None) -> CoveringGraph:
    """Rebuild the covering graph (names only) from a saved report's
    relations, for word enumeration without re-verification; the derived
    edges are recomputed by symmetric_closure, and no other field of the
    report is read. `data` is the built instance
    (build_proof_data() when omitted). A report that is not a dict whose
    `relations` is a list of valid relation records (_valid_relation), or
    that relates a source or target that is not an h-set of the instance,
    has a direction other than "direct" or "back", or names a map other
    than the instance's, raises DomainError."""
    relations = report.report.get("relations") if isinstance(report.report, dict) else None
    if not (isinstance(relations, list) and all(map(_valid_relation, relations))):
        raise DomainError("the report has no list of relations whose names are strings, "
                          "iters an integer >= 1 and w -1 or 1, or null if not verified")
    data = data or build_proof_data()
    for r in relations:
        if r["direction"] not in ("direct", "back"):
            raise DomainError(f"a relation's direction is {r['direction']!r}, "
                              f"not 'direct' or 'back'")
        if r["map"] != data.mapsys.name:
            raise DomainError(f"a relation's map is {r['map']!r}, not the instance's "
                              f"{data.mapsys.name!r}")
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
    derived_w = next((e.w for e in graph.edges if e.derived_from == ("H2", "H3")), None)
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
            },
            "q1_residuals": data.q1_residuals,
            "disjoint": disjoint,
            "fix_disks": {k: {"ok": v.ok, "detail": v.detail} for k, v in disks.items()},
            "relations": relations,
            "degrees_match": degrees_match,
            "backcover_crosscheck": crosscheck,
            "blocks": {f"{a}->{b}": ok for (a, b), ok in blocks.items()},
            "conclusions": conclusions,
            "totals": {
                "boxes": total_boxes,
                "wall_time_s": round(time.perf_counter() - t0, 3),
            },
            "reference_cost": REFERENCE_COST,
        }
    )
    return report, graph
