"""Instance data, lemma relations, symmetric closure, words and certificates."""

import copy
import hashlib
import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from revcover import cli, hset
from revcover.campaign import (
    _BLOCK_ITERS,
    ALPHABET,
    RELATIONS,
    CampaignConfig,
    CoveringGraph,
    Edge,
    ProofReport,
    INSTANCE_DATA,
    block_transitions,
    build_proof_data,
    emit_symmetric_orbit_certificate,
    enumerate_words,
    fix_disk_check,
    graph_from_report,
    run_campaign,
    symmetric_closure,
    word_count,
)
from revcover.covering import REFUTED, VERIFIED, VerifyConfig, verify_cover
from revcover.hset import HSet, sym_image
from revcover.interval import DomainError

MV = VerifyConfig(mean_value=True)


# --- instance data ---

def test_anchor_digits_parsed_exactly(data):
    P1, P2 = data.hset("N1").center, data.hset("N2").center
    assert P1[2] == float("-2.9288690017630725")
    assert P1[3] == float("-1.649404627725545")
    assert P2[2] == float("2.199939462565084")


def test_stable_partners_are_exact_reflections(data):
    """N1's stable columns are its unstable ones with the first two
    coordinates negated, bit for bit."""
    M = data.hset("N1").matrix
    u, s = M[:, 0], M[:, 2]
    assert np.array_equal(s, np.concatenate([-u[:2], u[2:]]))
    expected = [-0.527847408170044, -0.254065286036574, 0.730261232439584, 0.351491787265563]
    assert np.array_equal(s, 0.012 * np.array(expected))


def test_q1_residuals_recorded(data):
    q1 = data.q1_residuals
    assert q1.keys() == {"backward_to_P1", "forward10_to_P2"}
    assert q1["backward_to_P1"] < 0.006
    assert q1["forward10_to_P2"] < 0.001


def test_other_q1_reading_is_refused():
    """The mixed-frame reading of the paper's Q1 formula, u1_P2 in place of
    u2_P1, misses both orbit constraints, and the error carries both of its
    residuals, bit for bit (a float's repr reads back as the same float)."""
    other = copy.deepcopy(INSTANCE_DATA)
    other["Q1"][1][0] = "u1_P2"
    with pytest.raises(DomainError, match="Q1 misses its orbit constraints") as exc:
        build_proof_data(other)
    assert (f"residuals {{'backward_to_P1': {float.fromhex('0x1.33bdb9cfdbe00p-6')!r}, "
            f"'forward10_to_P2': {float.fromhex('0x1.85f96eaf2fafep+85')!r}}}") in str(exc.value)


# SHA-256 of the float.hex of every entry of each h-set's center, matrix and
# inverse lo and hi, and the float.hex of Q1's residuals. Q2 = F^4(Q1) and
# Q3 = F^5(Q1), the centers of H2 and H3, and the residuals are
# MapSystem.image values, so they follow the bits of F's value kernel
INSTANCE_SHA256 = {
    "N1": "bccfde8b3e408c0dc59b277f27ede37b0d6a0a6dc95105298a870182b763d383",
    "N2": "78cf60338fa7d8d79664c2df95417188fab832c5c07ef5a4b10a89dffa3dfbc4",
    "H1": "fa2ddb9bb654c90f34af9202c3dbce96117efe9179d9a331903c3316ff9d17fc",
    "H2": "adb6755ddcbf1bed8ee756d5f8251fb55d2c3578cf829acf4f5fed2596e723ed",
    "H3": "7903b76fd5cdc1aac17486c0078d6d8979a411c88a5760caa3a9c2a75bb16b9a",
}
Q1_RESIDUALS_HEX = {
    "backward_to_P1": "0x1.57f523b016200p-8",
    "forward10_to_P2": "0x1.0490cfc579800p-10",
}


def test_built_instance_is_pinned(data):
    """The built instance is bit for bit the recorded one: every double of
    the five h-sets and Q1's two residuals."""
    for name, h in data.hsets.items():
        text = " ".join(float(x).hex() for a in (h.center, h.matrix, h.inv_matrix.lo,
                                                  h.inv_matrix.hi) for x in a.ravel())
        assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_SHA256[name], name
    assert {k: r.hex() for k, r in data.q1_residuals.items()} == Q1_RESIDUALS_HEX


def test_q1_constraint_failure_raises():
    broken = copy.deepcopy(INSTANCE_DATA)
    broken["q1_constraints"] = {"backward_to_P1": "1e-15", "forward10_to_P2": "1e-15"}
    with pytest.raises(DomainError) as exc:
        build_proof_data(broken)
    assert "residuals" in str(exc.value)


def test_instance_data_for_another_map_raises():
    """Instance data names its map, and only that map's data builds: data
    written for another map would give h-sets that F's relations do not
    hold for. Empty data is data, not the shipped instance, and data
    without a key or with a malformed entry is an input error too."""
    with pytest.raises(DomainError, match="for map 'henon', not 'F-quadratic-4d'"):
        build_proof_data({**INSTANCE_DATA, "map": "henon"})
    without_p1 = {k: v for k, v in INSTANCE_DATA.items() if k != "P1"}
    for data, missing in (({}, "'map'"), ({"map": "F-quadratic-4d"}, "'P1'"),
                          (without_p1, "'P1'")):
        with pytest.raises(DomainError, match=f"malformed instance data: KeyError: {missing}"):
            build_proof_data(data)
    for key, value in (("P2", ["0.0", "x"]), ("eigenvectors", []), ("h_radii", None)):
        with pytest.raises(DomainError, match="malformed instance data"):
            build_proof_data({**INSTANCE_DATA, key: value})
    zero = copy.deepcopy(INSTANCE_DATA)
    zero["h_radii"]["H2"][0] = "0"
    with pytest.raises(DomainError, match="malformed instance data: SingularMatrixError"):
        build_proof_data(zero)


# --- lemma relations, as certified by the campaign ---

def _assert_certified(campaign, relations):
    """Each (source, target, k, w) is in the report, verified with k and w."""
    report, _ = campaign
    by_pair = {(r["source"], r["target"]): r for r in report.report["relations"]}
    for a, b, k, w in relations:
        r = by_pair[(a, b)]
        assert (r["status"], r["iters"], r["w"]) == (VERIFIED, k, w)


def test_lemma_self_coverings(campaign):
    self_coverings = [rel for rel in RELATIONS if rel[0] == rel[1]]
    assert [rel[0] for rel in self_coverings] == ["N1", "N2"]
    _assert_certified(campaign, self_coverings)


def test_lemma_connecting_chain(campaign):
    """The connecting rows of the table are a chain N1 => ... => N2 of
    certified relations of 7 map steps in all."""
    chain = [rel for rel in RELATIONS if rel[0] != rel[1]]
    assert chain[0][0] == "N1" and chain[-1][1] == "N2"
    assert all(step[1] == nxt[0] for step, nxt in zip(chain, chain[1:]))
    assert sum(k for _, _, k, _ in chain) == 7
    _assert_certified(campaign, chain)


def test_self_covering_robust_to_small_shrink(data):
    """The covering is an open condition: a relative 1e-3 shrink still works."""
    N1 = data.hset("N1")
    shrunk = HSet("N1s", N1.center, N1.matrix * (1 - 1e-3), 2, 2)
    cert = verify_cover(shrunk, data.mapsys, 1, shrunk, MV)
    assert cert.verified and cert.w == 1


# --- closure and graph ---

def test_symmetric_closure_structure(campaign):
    report, graph = campaign
    assert sorted(graph.nodes) == ["H1", "H2", "H3", "N1", "N2",
                                   "S^T*H1", "S^T*H2", "S^T*H3"]
    derived = [e for e in graph.edges if e.derived_from is not None]
    assert len(derived) == 6
    base = {(e.source, e.target): e for e in graph.edges if e.derived_from is None}
    for e in derived:
        src = base[e.derived_from]
        assert abs(e.w) == abs(src.w)
        assert e.w == src.w
        assert e.direction == "back"


def test_symmetric_closure_idempotent(campaign, data):
    _, graph = campaign
    before = len(graph.edges)
    symmetric_closure(graph, data.reversor)
    assert len(graph.edges) == before


def test_closure_identifies_symmetric_nodes(data):
    g = CoveringGraph()
    g.add_node(data.hset("N1"))
    assert g.add_node(sym_image(data.reversor, data.hset("N1"))) == "N1"
    assert len(g.nodes) == 1


def test_fix_disk_checks(data):
    S = data.reversor
    assert fix_disk_check(S, data.hset("N1")).ok
    assert fix_disk_check(S, data.hset("N2")).ok
    chk = fix_disk_check(S, data.hset("H1"))
    assert not chk.ok and "center" in chk.detail


def test_fix_disk_detects_bad_column(data):
    S = data.reversor
    N1 = data.hset("N1")
    m = N1.matrix.copy()
    m[:, 2] = m[:, 2] * 1.0000001  # break the exact unstable/stable pairing
    broken = HSet("b", N1.center, m, 2, 2)
    chk = fix_disk_check(S, broken)
    assert not chk.ok and "column 0" in chk.detail


# --- symbolic dynamics ---

def test_blocks_all_available(campaign):
    _, graph = campaign
    blocks = block_transitions(graph)
    assert all(blocks.values()) and len(blocks) == 4
    assert _BLOCK_ITERS == 7
    assert ALPHABET == ("N1", "N2")


def _path_graph(*edges):
    """A graph of (source, target, iters[, status]) edges, nodes left out:
    block_transitions reads the edges only."""
    g = CoveringGraph()
    for src, dst, k, *status in edges:
        g.add_edge(Edge(src, dst, "F", k, "direct", 1, *(status or [VERIFIED])))
    return g


def test_block_is_any_verified_7_step_path():
    """A block a -> b is available through any path of verified edges from
    a to b of 7 map steps, through any node and through the letters
    themselves; a 6- or 8-step path, or one through a refuted or
    inconclusive edge, gives none."""
    no_blocks = dict.fromkeys([(a, b) for a in ALPHABET for b in ALPHABET], False)
    for edges, available in [
        ([("N1", "X", 3), ("X", "N2", 4)], [("N1", "N2")]),
        ([("N2", "Y", 5), ("Y", "Z", 1), ("Z", "N1", 1)], [("N2", "N1")]),
        ([("N1", "N1", 1)], [("N1", "N1")]),
        ([("N2", "N2", 7)], [("N2", "N2")]),
        ([("N1", "N1", 2), ("N1", "X", 1), ("X", "N2", 4)], [("N1", "N2")]),
        ([("N1", "X", 3), ("X", "N2", 3)], []),
        ([("N1", "X", 3), ("X", "N2", 5)], []),
        ([("N1", "X", 3), ("X", "N2", 4, REFUTED)], []),
        ([("N1", "X", 3), ("X", "N2", 4, "inconclusive")], []),
        ([("N2", "N2", 2)], []),
    ]:
        assert block_transitions(_path_graph(*edges)) == {
            **no_blocks, **dict.fromkeys(available, True)}, edges


def test_word_counts_are_full_shift(campaign):
    _, graph = campaign
    assert len(enumerate_words(graph, 3)) == 8
    for L in range(1, 13):
        assert len(enumerate_words(graph, L)) == 2**L


def test_word_counts_without_listing(campaign, data):
    """word_count equals len(enumerate_words) on the campaign graph (the
    full shift) and on its relations without the symmetric closure, where
    the N2 -> N1 block is missing and the words are N1^a N2^b."""
    _, graph = campaign
    direct = CoveringGraph()
    for h in data.hsets.values():
        direct.add_node(h)
    for e in graph.edges:
        if e.derived_from is None:
            direct.add_edge(e)
    # N2 -> N1 is a path of the closure's backcoverings only
    assert block_transitions(direct) == {("N1", "N1"): True, ("N1", "N2"): True,
                                         ("N2", "N1"): False, ("N2", "N2"): True}
    for g, full in ((graph, True), (direct, False)):
        for L in range(1, 11):
            assert word_count(g, L) == len(enumerate_words(g, L)) == (2**L if full else L + 1)
    for words in (word_count, enumerate_words):
        with pytest.raises(DomainError, match="word length must be >= 1"):
            words(graph, 0)


def test_word_counts_long_words_fast(campaign):
    """Length 64 is counted, not enumerated: 2**64 in well under a second."""
    _, graph = campaign
    t0 = time.perf_counter()
    assert word_count(graph, 64) == 2**64
    assert time.perf_counter() - t0 < 0.5


def test_missing_edge_breaks_full_shift(campaign):
    """Without H2 => H3 no path leads from N1 to N2 in 7 steps; the
    closure's edge derived from it still carries N2 -> N1."""
    _, graph = campaign
    pruned = CoveringGraph()
    pruned.nodes = dict(graph.nodes)
    pruned.edges = [e for e in graph.edges
                    if not (e.source == "H2" and e.target == "H3")]
    assert block_transitions(pruned) == {("N1", "N1"): True, ("N1", "N2"): False,
                                         ("N2", "N1"): True, ("N2", "N2"): True}
    words = enumerate_words(pruned, 5)
    assert len(words) < 2**5
    assert all(("N1", "N2") != (a, b) for w in words for a, b in zip(w, w[1:]))


def test_derived_backcover_verifies_directly(campaign, data):
    """The symmetry-derived edge N2 => S^T*H3 is also certified head-on via
    the inverse map S o F o S, with matching degree."""
    from revcover.covering import verify_backcover

    _, graph = campaign
    derived = next(e for e in graph.edges
                   if e.source == "N2" and e.target == "S^T*H3"
                   and e.derived_from is not None)
    cert = verify_backcover(data.hset("N2"), data.mapsys, 1,
                            sym_image(data.reversor, data.hset("H3")), MV)
    assert cert.verified
    assert cert.w == derived.w == -1


def test_emit_symmetric_orbit_certificates(campaign, data):
    _, graph = campaign
    S = data.reversor
    cert = emit_symmetric_orbit_certificate(graph, ("N1", "H1", "H2", "H3", "N2"), S)
    assert cert.total_map_steps == 7
    assert "period dividing 14" in cert.conclusion
    for k in (1, 2, 3):
        word = ("N1",) * (k + 1) + ("H1", "H2", "H3", "N2")
        cert = emit_symmetric_orbit_certificate(graph, word, S)
        assert cert.total_map_steps == 7 + k
    # the reverse itinerary through the symmetric images
    cert = emit_symmetric_orbit_certificate(
        graph, ("N2", "S^T*H3", "S^T*H2", "S^T*H1", "N1"), S)
    assert cert.total_map_steps == 7


def _orbit_step(source, target, iters, direction, w):
    return {"source": source, "target": target, "map": "F-quadratic-4d", "iters": iters,
            "direction": direction, "w": w}


def _orbit_conclusion(word):
    return (f"There is a point x in |{word[0]}| fixed by the reversor whose orbit follows "
            f"the itinerary {'-'.join(word)} and returns to the fixed space; its orbit is "
            f"symmetric periodic with principal period dividing 14 map steps.")


def test_orbit_certificates_are_pinned(campaign, data):
    """The full certificate of the paper word and of its reverse through the
    symmetric images: a step is the edge's source, target, map, iters,
    direction and degree, and nothing else (no status, no derived_from)."""
    forward = ("N1", "H1", "H2", "H3", "N2")
    reverse = ("N2", "S^T*H3", "S^T*H2", "S^T*H1", "N1")
    expected = {
        forward: [_orbit_step("N1", "H1", 1, "direct", 1),
                  _orbit_step("H1", "H2", 4, "direct", -1),
                  _orbit_step("H2", "H3", 1, "direct", -1),
                  _orbit_step("H3", "N2", 1, "direct", -1)],
        reverse: [_orbit_step("N2", "S^T*H3", 1, "back", -1),
                  _orbit_step("S^T*H3", "S^T*H2", 1, "back", -1),
                  _orbit_step("S^T*H2", "S^T*H1", 4, "back", -1),
                  _orbit_step("S^T*H1", "N1", 1, "back", 1)],
    }
    for word, steps in expected.items():
        cert = emit_symmetric_orbit_certificate(campaign[1], word, data.reversor)
        assert cert.to_dict() == {
            "schema": "revcover-symmetric-orbit/1", "word": list(word), "steps": steps,
            "total_map_steps": 7, "conclusion": _orbit_conclusion(word)}


def test_emit_rejects_bad_words(campaign, data):
    _, graph = campaign
    S = data.reversor
    with pytest.raises(DomainError, match="no verified relation"):
        emit_symmetric_orbit_certificate(graph, ("N1", "H2", "H3", "N2"), S)
    with pytest.raises(DomainError, match="fixed-space disk"):
        emit_symmetric_orbit_certificate(graph, ("H1", "H2"), S)
    with pytest.raises(DomainError):
        emit_symmetric_orbit_certificate(graph, ("N1",), S)


# --- report ---

def test_report_content_and_exit_code(campaign, data):
    report, _ = campaign
    r = report.report
    assert report.exit_code == 0
    assert [(rel["source"], rel["target"], rel["iters"], rel["w"])
            for rel in r["relations"]] == list(RELATIONS)
    assert all(rel["status"] == VERIFIED for rel in r["relations"])
    assert r["degrees_match"] is True
    assert {k: v["ok"] for k, v in r["fix_disks"].items()} == {"N1": True, "N2": True}
    assert r["disjoint"] == {"N1,N2": True}
    assert r["backcover_crosscheck"]["abs_w_agrees"] is True
    assert r["totals"]["boxes"] > 0
    assert r["reference_cost"]["boxes"] == 220_000_000
    assert r["q1_residuals"] == data.q1_residuals
    assert len(r["conclusions"]) == 2


def test_campaign_box_counts_are_pinned(campaign):
    """The campaign's box counts at defaults, relation by relation: a change
    to an h-set's inverse enclosure (or to a kernel) that moves a count
    shows here even where every verdict stays."""
    r = campaign[0].report
    assert {f"{rel['source']}=>{rel['target']}": rel["boxes"] for rel in r["relations"]} == {
        "N1=>N1": 96, "N2=>N2": 390, "N1=>H1": 96,
        "H1=>H2": 864, "H2=>H3": 744, "H3=>N2": 592,
    }
    assert r["backcover_crosscheck"]["boxes"] == 744
    assert r["totals"]["boxes"] == 3_526


def test_campaign_certifies_five_inverses(monkeypatch):
    """One run certifies by the residual test only the five h-sets of the
    instance; the transposes and reversor images it builds (for the
    symmetric closure and the cross-check) take their inverse by exact
    signed permutation."""
    calls = []
    real = hset.imat_inverse
    monkeypatch.setattr(hset, "imat_inverse", lambda M: calls.append(M) or real(M))
    report, _ = run_campaign(CampaignConfig())
    assert report.exit_code == 0
    assert len(calls) == 5


def test_exit_code_of_refuted_and_inconclusive_relations(campaign):
    """A refuted relation gives exit code 1, also next to an inconclusive
    one: a refuted cell outranks an undecided check. An inconclusive
    relation alone gives 2."""
    report, _ = campaign
    for statuses, code in (({0: REFUTED}, 1), ({0: REFUTED, 3: "inconclusive"}, 1),
                           ({3: "inconclusive"}, 2)):
        r = copy.deepcopy(report.report)
        for index, status in statuses.items():
            r["relations"][index]["status"] = status
        assert ProofReport(r).exit_code == code, statuses


def test_exit_code_1_when_all_verified_but_a_check_fails(campaign):
    """Every relation verified, but a degree or a structural check failed,
    or the report does not say that the degrees match: the exit code is 1,
    as for a refuted cell."""
    report, _ = campaign

    def no_disk(r):
        r["fix_disks"]["N2"]["ok"] = False

    def no_degrees_match(r):
        del r["degrees_match"]

    for change in (lambda r: r.update(degrees_match=False),
                   lambda r: r.update(disjoint={"N1,N2": False}),
                   no_disk, no_degrees_match):
        r = copy.deepcopy(report.report)
        change(r)
        assert all(rel["status"] == VERIFIED for rel in r["relations"])
        assert ProofReport(r).exit_code == 1


def _strip_volatile(d):
    """Drop timing fields and the echoed thread count; everything else in a
    report is part of the determinism contract."""
    if isinstance(d, dict):
        return {k: _strip_volatile(v) for k, v in sorted(d.items())
                if "wall_time" not in k and k != "threads"}
    if isinstance(d, list):
        return [_strip_volatile(x) for x in d]
    return d


def test_report_deterministic_across_runs_and_threads(campaign):
    report, _ = campaign
    again, _ = run_campaign(CampaignConfig(threads=2))
    assert _strip_volatile(report.report) == _strip_volatile(again.report)


# SHA-256 of the campaign report at defaults as sorted JSON, without its
# timings and thread count (_strip_volatile): a change to any relation,
# block, cross-check or conclusion shows here
REPORT_SHA256 = "db263e9a725d1d2585defbfacb55aa760038105b7a227a4f72bb1073279dd6fb"


def test_campaign_report_is_pinned(campaign):
    """The whole report, bit for bit: relations, fixed-space disks, blocks,
    cross-check, conclusions and Q1's residuals at once."""
    text = json.dumps(_strip_volatile(campaign[0].report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def test_report_save_load_and_graph_rebuild(campaign, tmp_path, monkeypatch, capsys):
    """The graph rebuilt from a saved report is the campaign's, edge for
    edge: its derived edges come from the relations by symmetric closure.
    A report saved by an earlier version also carries st_symmetric,
    degrees_expected, derived_edges (here with a bogus entry too) and
    config.fixed_grid; none of them is read, so it rebuilds the same graph,
    through graph_from_report and through enumerate --report."""
    report, graph = campaign
    path = tmp_path / "report.json"
    report.save(path)
    loaded = ProofReport.load(path)
    assert _strip_volatile(loaded.report) == _strip_volatile(report.report)
    assert not {"st_symmetric", "degrees_expected", "derived_edges"} & loaded.report.keys()
    assert "fixed_grid" not in loaded.report["config"]

    old = copy.deepcopy(loaded.report)
    old["config"]["fixed_grid"] = False
    old["st_symmetric"] = {"N1": True, "N2": True}
    old["degrees_expected"] = {f"{a}->{b}": w for a, b, _, w in RELATIONS}
    old["derived_edges"] = [{**asdict(e), "derived_from": list(e.derived_from)}
                            for e in graph.edges if e.derived_from] + [
        {"source": "N1", "target": "N2", "map": "F-quadratic-4d", "iters": 1,
         "direction": "back", "w": 1, "status": VERIFIED, "derived_from": ["N2", "N1"]}]
    old_path = tmp_path / "old_report.json"
    ProofReport(old).save(old_path)
    old_report = ProofReport.load(old_path)
    assert old_report.exit_code == 0

    by_cli = []
    monkeypatch.setattr(cli, "graph_from_report",
                        lambda *a: by_cli.append(graph_from_report(*a)) or by_cli[-1])
    assert cli.main(["enumerate", "--length", "4", "--report", str(old_path)]) == 0
    assert "16 words of length 4" in capsys.readouterr().out
    assert len(by_cli) == 1
    for rebuilt in (graph_from_report(loaded), graph_from_report(old_report), *by_cli):
        assert list(rebuilt.nodes) == list(graph.nodes)
        assert rebuilt.edges == graph.edges
        for L in (1, 4, 7):
            assert len(enumerate_words(rebuilt, L)) == 2**L
        with pytest.raises(DomainError, match="no verified relation"):
            emit_symmetric_orbit_certificate(rebuilt, ("N1", "N2"), build_proof_data().reversor)


@pytest.mark.parametrize("end, status", [("source", VERIFIED), ("target", VERIFIED),
                                         ("source", "inconclusive")])
def test_report_with_unknown_hset_is_rejected(campaign, data, end, status):
    """A saved relation whose source or target is not an h-set of the
    instance, verified or not, is an input error (DomainError), not a
    lookup error in symmetric_closure."""
    r = copy.deepcopy(campaign[0].report)
    r["relations"][0].update({end: "X", "status": status})
    with pytest.raises(DomainError, match="does not have: X"):
        graph_from_report(ProofReport(r), data)


@pytest.mark.parametrize("key, value, message", [("direction", "sideways", "direction"),
                                                 ("map", "no-such-map", "map")])
def test_report_with_foreign_direction_or_map_is_rejected(campaign, data, key, value, message):
    """A saved relation whose direction is neither "direct" nor "back", or
    whose map is not the instance's, is an input error (DomainError): not
    an edge of the graph, word counts and an orbit certificate naming it."""
    r = copy.deepcopy(campaign[0].report)
    r["relations"][2][key] = value
    with pytest.raises(DomainError, match=f"a relation's {message} is {value!r}"):
        graph_from_report(ProofReport(r), data)
