"""Instance data, lemma relations, symmetric closure, words and certificates."""

import copy
import hashlib
import json
import time

import numpy as np
import pytest

from revcover import hset
from revcover.campaign import (
    _BLOCKS,
    RELATIONS,
    CampaignConfig,
    ConfigError,
    CoveringGraph,
    InadmissibleWordError,
    ProofReport,
    INSTANCE_DATA,
    automaton_words,
    block_transitions,
    build_proof_data,
    emit_symmetric_orbit_certificate,
    enumerate_words,
    fix_disk_check,
    graph_from_report,
    run_campaign,
    symmetric_closure,
    word_counts,
)
from revcover.covering import VERIFIED, VerifyConfig, verify_cover
from revcover.hset import HSet, sym_image
from revcover.interval import DomainError

from conftest import automaton_is_admissible

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


def test_q1_disambiguation_recorded(data):
    q1 = data.q1_interpretation
    assert q1["choice"] == "same-frame-u2"
    chosen = q1["residuals"][q1["choice"]]
    assert chosen["backward_to_P1"] < 0.006
    assert chosen["forward10_to_P2"] < 0.001
    rejected = q1["residuals"]["mixed-frame-u1"]
    assert rejected["forward10_to_P2"] > 1.0


# SHA-256 of the float.hex of every entry of each h-set's center, matrix and
# inverse lo and hi, and the float.hex of the Q1 residuals, as recorded when
# each map still had a float point function of its own
INSTANCE_SHA256 = {
    "N1": "bccfde8b3e408c0dc59b277f27ede37b0d6a0a6dc95105298a870182b763d383",
    "N2": "78cf60338fa7d8d79664c2df95417188fab832c5c07ef5a4b10a89dffa3dfbc4",
    "H1": "fa2ddb9bb654c90f34af9202c3dbce96117efe9179d9a331903c3316ff9d17fc",
    "H2": "7cc1995bf3596b3648d46223d1f24e7caa115320f74176d567dfacadab313b27",
    "H3": "c376f14ee8d902e288f73e72e0a30571ab9013998f23a4d89279125c65d72f87",
}
Q1_RESIDUALS_HEX = {
    "same-frame-u2": ("0x1.57f523b016100p-8", "0x1.0490d1ea2a000p-10"),
    "mixed-frame-u1": ("0x1.33bdb9cfdbf80p-6", "0x1.85f96eaf3029ap+85"),
}


def test_built_instance_is_pinned(data):
    """The built instance is bit for bit the recorded one: every double of
    the five h-sets and the Q1 residuals of both candidates."""
    for name, h in data.hsets.items():
        text = " ".join(float(x).hex() for a in (h.center, h.matrix, h.inv_matrix.lo,
                                                  h.inv_matrix.hi) for x in a.ravel())
        assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_SHA256[name], name
    assert {c: (r["backward_to_P1"].hex(), r["forward10_to_P2"].hex())
            for c, r in data.q1_interpretation["residuals"].items()} == Q1_RESIDUALS_HEX


def test_q1_disambiguation_failure_raises():
    broken = copy.deepcopy(INSTANCE_DATA)
    broken["q1_constraints"] = {"backward_to_P1": "1e-15", "forward10_to_P2": "1e-15"}
    with pytest.raises(ConfigError) as exc:
        build_proof_data(broken)
    assert "residuals" in str(exc.value)


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
    """The N1 -> N2 block is a chain of certified relations of the table."""
    degree = {(a, b, k): w for a, b, k, w in RELATIONS}
    chain = _BLOCKS[("N1", "N2")]
    assert chain[0][0] == "N1" and chain[-1][1] == "N2"
    assert all(step[1] == nxt[0] for step, nxt in zip(chain, chain[1:]))
    _assert_certified(campaign, [(a, b, k, degree[(a, b, k)]) for a, b, k in chain])


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
    assert all(sum(k for *_, k in chain) == 7 for chain in _BLOCKS.values())


def test_word_counts_are_full_shift(campaign):
    _, graph = campaign
    assert len(enumerate_words(graph, 3)) == 8
    for L in range(1, 13):
        assert len(enumerate_words(graph, L)) == 2**L


def test_word_counts_without_listing(campaign, data):
    """word_counts equals len(enumerate_words) on the campaign graph (the
    full shift) and on its relations without the symmetric closure, where
    the N2 -> N1 block is missing and the words are N1^a N2^b."""
    _, graph = campaign
    direct = CoveringGraph()
    for h in data.hsets.values():
        direct.add_node(h)
    for e in graph.edges:
        if e.derived_from is None:
            direct.add_edge(e)
    assert not block_transitions(direct)[("N2", "N1")]
    for g, full in ((graph, True), (direct, False)):
        counts = word_counts(g, 10)
        assert list(counts) == list(range(1, 11))
        for L, n in counts.items():
            assert n == len(enumerate_words(g, L)) == (2**L if full else L + 1)


def test_word_counts_long_words_fast(campaign):
    """Length 64 is counted, not enumerated: 2**64 in well under a second."""
    _, graph = campaign
    t0 = time.perf_counter()
    assert word_counts(graph, 64)[64] == 2**64
    assert time.perf_counter() - t0 < 0.5


def test_missing_edge_breaks_full_shift(campaign):
    _, graph = campaign
    pruned = CoveringGraph()
    pruned.nodes = dict(graph.nodes)
    pruned.edges = [e for e in graph.edges
                    if not (e.source == "H2" and e.target == "H3")]
    words = enumerate_words(pruned, 5)
    assert len(words) < 2**5
    assert all(("N1", "N2") != (a, b) for w in words for a, b in zip(w, w[1:]))


def test_automaton_rules():
    assert automaton_is_admissible((0, 1, 2, 3, 1, 2))
    assert not automaton_is_admissible((0, 1, 1, 2))
    assert not automaton_is_admissible((1, 2, 3, 1, 2))  # bad start
    assert not automaton_is_admissible((0, 1,))  # bad end
    # successors of 1 are exactly {2}
    for nxt in range(4):
        assert automaton_is_admissible((0, 1, nxt, 3, 1, 2)) == (nxt == 2)


def test_automaton_exhaustive_up_to_8():
    import itertools

    for L in range(1, 9):
        enumerated = set(automaton_words(L))
        brute = {w for w in itertools.product(range(4), repeat=L)
                 if automaton_is_admissible(w)}
        assert enumerated == brute


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
    assert cert.abs_degree_product == 1
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
            "total_map_steps": 7, "abs_degree_product": 1,
            "conclusion": _orbit_conclusion(word)}


def test_emit_rejects_bad_words(campaign, data):
    _, graph = campaign
    S = data.reversor
    with pytest.raises(InadmissibleWordError, match="no verified relation"):
        emit_symmetric_orbit_certificate(graph, ("N1", "H2", "H3", "N2"), S)
    with pytest.raises(InadmissibleWordError, match="fixed-space disk"):
        emit_symmetric_orbit_certificate(graph, ("H1", "H2"), S)
    with pytest.raises(InadmissibleWordError):
        emit_symmetric_orbit_certificate(graph, ("N1",), S)


# --- report ---

def test_report_content_and_exit_code(campaign):
    report, _ = campaign
    r = report.report
    assert report.exit_code == 0
    assert [(rel["source"], rel["target"], rel["iters"], rel["w"])
            for rel in r["relations"]] == list(RELATIONS)
    assert all(rel["status"] == VERIFIED for rel in r["relations"])
    assert r["degrees_match"] is True
    assert r["st_symmetric"] == {"N1": True, "N2": True}
    assert r["disjoint"] == {"N1,N2": True}
    assert r["backcover_crosscheck"]["abs_w_agrees"] is True
    assert r["totals"]["boxes"] > 0
    assert r["reference_cost"]["boxes"] == 220_000_000
    assert r["q1_interpretation"]["choice"] == "same-frame-u2"
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


def test_exit_code_1_when_all_verified_but_a_check_fails(campaign):
    """Every relation verified, but a degree or a structural check failed:
    the exit code is 1, as for a refuted cell."""
    report, _ = campaign
    for key, value in (("degrees_match", False), ("disjoint", {"N1,N2": False})):
        r = copy.deepcopy(report.report)
        r[key] = value
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
# derived edge, block, word count, cross-check or conclusion shows here
REPORT_SHA256 = "8c2f2bfd937ec031312ea52da8c395b5e939f00ca7b1773dd91492dc1ca49146"


def test_campaign_report_is_pinned(campaign):
    """The whole report, bit for bit: relations, derived edges, blocks, word
    counts, cross-check, conclusions and the Q1 record at once."""
    text = json.dumps(_strip_volatile(campaign[0].report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def test_report_save_load_and_graph_rebuild(campaign, tmp_path):
    """The graph rebuilt from a saved report is the campaign's, edge for
    edge: its derived edges come from the relations by symmetric closure, so
    a report whose derived_edges are emptied or carry a bogus entry rebuilds
    the same graph."""
    report, graph = campaign
    path = tmp_path / "report.json"
    report.save(path)
    loaded = ProofReport.load(path)
    assert _strip_volatile(loaded.report) == _strip_volatile(report.report)
    emptied, bogus = ProofReport.load(path), ProofReport.load(path)
    emptied.report["derived_edges"] = []
    bogus.report["derived_edges"].append(
        {"source": "N1", "target": "N2", "map": "F-quadratic-4d", "iters": 1,
         "direction": "back", "w": 1, "status": VERIFIED, "derived_from": ["N2", "N1"]})
    for saved in (loaded, emptied, bogus):
        rebuilt = graph_from_report(saved)
        assert list(rebuilt.nodes) == list(graph.nodes)
        assert [e.to_dict() for e in rebuilt.edges] == [e.to_dict() for e in graph.edges]
        for L in (1, 4, 7):
            assert len(enumerate_words(rebuilt, L)) == 2**L
        with pytest.raises(InadmissibleWordError, match="no verified relation"):
            emit_symmetric_orbit_certificate(rebuilt, ("N1", "N2"), build_proof_data().reversor)


@pytest.mark.parametrize("end, status", [("source", VERIFIED), ("target", VERIFIED),
                                         ("source", "inconclusive")])
def test_report_with_unknown_hset_is_rejected(campaign, data, end, status):
    """A saved relation whose source or target is not an h-set of the
    instance, verified or not, is an input error (DomainError), not a
    lookup error in symmetric_closure."""
    r = json.loads(campaign[0].to_json())
    r["relations"][0].update({end: "X", "status": status})
    with pytest.raises(DomainError, match="does not have: X"):
        graph_from_report(ProofReport(r), data)
