"""Exit codes and report files of the command line front end."""

import copy
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from revcover import campaign as campaign_module, cli
from revcover.campaign import CampaignConfig
from revcover.cli import build_parser, main
from revcover.covering import INCONCLUSIVE, REFUTED, VERDICTS, VERIFIED, VerifyConfig
from revcover.hset import HSet, save_hset


def test_verify_self_covering_exit_0(capsys):
    rc = main(["verify", "--from", "N1", "--to", "N1", "--map", "F", "--iters", "1",
               "--mean-value"])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


def test_verify_no_covering_exit_1_or_2():
    rc = main(["verify", "--from", "N1", "--to", "N2", "--map", "F", "--iters", "1",
               "--mean-value", "--max-depth", "6", "--budget", "20000"])
    assert rc in (1, 2)


@pytest.mark.parametrize("argv, verdict, code", [
    (["--from", "N1", "--to", "N1", "--mean-value", "--max-depth", "0", "--resolution", "1"],
     VERIFIED, 0),
    (["--from", "N1", "--to", "N2", "--max-depth", "0"], REFUTED, 1),
    (["--from", "H1", "--to", "H2", "--iters", "4", "--max-depth", "0"], INCONCLUSIVE, 2),
])
def test_verify_exit_code_is_the_verdicts_index(argv, verdict, code, capsys):
    """verify exits with its verdict's index in covering.VERDICTS: 0
    verified, 1 refuted, 2 inconclusive, each here on a fixed grid."""
    assert VERDICTS.index(verdict) == code
    assert main(["verify", *argv]) == code
    out = capsys.readouterr().out
    assert f": {verdict}," in out
    if code:
        assert "boxes=96," in out


def test_verify_malformed_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc = main(["verify", "--from", str(bad), "--to", "N1"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_verify_unknown_name_exit_3():
    assert main(["verify", "--from", "N9", "--to", "N1"]) == 3


@pytest.mark.parametrize("matrix, message", [
    ([["1", "1"], ["1", "1"]], "no verified inverse"),
    ([["1", "0"], ["1"]], "malformed h-set object"),
], ids=["singular", "ragged"])
def test_verify_bad_matrix_file_exit_3(matrix, message, tmp_path, capsys):
    """An h-set file whose matrix has no verified inverse, or is ragged, is
    an input error (exit 3), not a refuted cell (exit 1) with a traceback."""
    z = tmp_path / "Z.json"
    z.write_text(json.dumps({"name": "Z", "center": ["0", "0"], "matrix": matrix,
                             "u": 1, "s": 1}))
    assert main(["verify", "--from", str(z), "--to", str(z)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("case", ["to-2d", "both-2d", "u-mismatch", "iters-0", "back-2d"])
def test_verify_mismatched_relation_exit_3(case, tmp_path, capsys):
    """A relation whose h-sets and map differ in dimension, whose h-sets
    differ in unstable dimension, or with an iterate count below 1 is an
    input error (exit 3), not "inconclusive" (exit 2)."""
    flat, u1 = tmp_path / "flat.json", tmp_path / "u1.json"
    save_hset(HSet("flat", np.zeros(2), np.eye(2), 1, 1), flat)
    save_hset(HSet("u1", np.zeros(4), np.eye(4), 1, 3), u1)
    argv = {
        "to-2d": ["--from", "N1", "--to", str(flat)],
        "both-2d": ["--from", str(flat), "--to", str(flat)],
        "u-mismatch": ["--from", "N1", "--to", str(u1)],
        "iters-0": ["--from", "N1", "--to", "N1", "--iters", "0"],
        "back-2d": ["--from", str(flat), "--to", str(flat), "--back"],
    }[case]
    assert main(["verify", *argv, "--mean-value"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_overflowing_center_orbit_exit_2(tmp_path, capsys):
    """A center orbit that overflows fails the degree: inconclusive (exit 2)
    with the failure text, not an input error."""
    far = tmp_path / "far.json"
    save_hset(HSet("far", np.array([1e200, 0.0, 0.0, 0.0]), np.eye(4), 2, 2), far)
    assert main(["verify", "--from", str(far), "--to", str(far), "--iters", "3"]) == 2
    out = capsys.readouterr().out
    assert "inconclusive" in out and "left the representable range at step 1" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--from", "N1", "--to", "N1", "--budget", "0"],
    ["verify", "--from", "N1", "--to", "N1", "--threads", "0"],
    ["prove-paper", "--max-depth", "-1"],
    ["prove-paper", "--threads", "-2"],
])
def test_invalid_config_exit_3(argv, capsys):
    """An out-of-range config value is an input error, reported in one line."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be >= " in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "--from", "N1", "--to", "N1", "--budget", "abc"], "invalid int value"),
    (["verify", "--to", "N1"], "the following arguments are required: --from"),
    (["nosuch"], "invalid choice: 'nosuch'"),
    (["verify", "--from", "N1", "--to", "N1", "--mean-value", "--report", "{file}/r.json"],
     "{file} is not a directory"),
    (["prove-paper", "--report", "{file}/r.json"], "{file} is not a directory"),
    (["enumerate", "--length", "2", "--out", "{file}/w.json"], "{file} is not a directory"),
    (["verify", "--from", "N1", "--to", "N1", "--mean-value", "--plot", "{file}/clouds"],
     "{file}"),
    (["verify", "--from", "N1", "--to", "N1", "--map", "nosuch"], "unknown map 'nosuch'"),
    (["prove-paper", "--enumerate-upto", "0"], "unrecognized arguments: --enumerate-upto 0"),
    (["prove-paper", "--enumerate-upto", "-2"], "unrecognized arguments: --enumerate-upto -2"),
    (["enumerate", "--length", "2", "--threads", "0"], "unrecognized arguments: --threads 0"),
    (["verify", "--from", "N1", "--to", "N1", "--report", "{tmp}/missing/r.json"],
     "{tmp}/missing is not a directory"),
    (["verify", "--from", "N1", "--to", "N1", "--report", "{file}/r.json", "--plot", "{tmp}/p"],
     "{file} is not a directory"),
    (["verify", "--from", "S^T*H3", "--to", "S^T*H2", "--back", "--report", "{file}/r.json"],
     "{file} is not a directory"),
    (["prove-paper", "--plot", "{file}/clouds"], "{file}"),
    (["enumerate", "--length", "3", "--report", "{report}", "--emit-word", "N1,N1"],
     "w -1 or 1, or null if not verified"),
], ids=["budget-abc", "no-from", "unknown-command", "verify-report", "prove-paper-report",
        "enumerate-out", "verify-plot", "unknown-map", "prove-paper-enumerate-upto-0",
        "prove-paper-enumerate-upto-negative", "enumerate-threads", "verify-report-missing-dir",
        "verify-report-and-plot", "verify-back-report", "prove-paper-plot",
        "verified-relation-without-degree"])
def test_input_errors_exit_3(argv, message, tmp_path, monkeypatch, capsys):
    """A malformed command line (an option that was removed included), an
    output path that cannot be written, an unknown map and a saved report
    whose verified relation has no degree are input errors: exit 3, not 2
    (inconclusive) or 1 (refuted), and stderr is one error line, after the
    usage for a malformed command line. The map's message is not quoted.
    Each is refused before any verification runs: nothing is printed on
    stdout and no file or directory is written (not the --plot directory
    of a run whose --report is refused either)."""
    def refuse(*args, **kwargs):
        raise AssertionError("the proof ran")

    for name in ("verify_cover", "verify_backcover", "run_campaign"):
        monkeypatch.setattr(cli, name, refuse)
    file = tmp_path / "file"
    file.write_text("")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"relations": [
        {"source": "N1", "target": "N1", "map": "F-quadratic-4d", "iters": 1,
         "direction": "direct", "w": None, "status": "verified"}]}))
    inputs = sorted(tmp_path.iterdir())
    assert main([a.format(file=file, tmp=tmp_path, report=report) for a in argv]) == 3
    out, err = capsys.readouterr()
    *usage, last = err.splitlines()
    assert usage == [] or usage[0].startswith("usage:")
    assert last.startswith("error:") and message.format(file=file, tmp=tmp_path) in last
    assert not last.startswith('error: "')
    assert out == "" and sorted(tmp_path.iterdir()) == inputs and file.read_text() == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--from" in capsys.readouterr().out


def test_thread_env_read_only_by_verify_and_prove_paper(tmp_path, monkeypatch, capsys, campaign):
    """--help and enumerate never read REVCOVER_THREADS, so a malformed
    value does not stop them; verify and prove-paper read it only without
    --threads."""
    monkeypatch.setenv("REVCOVER_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    report = tmp_path / "report.json"
    campaign[0].save(report)
    assert main(["enumerate", "--length", "3", "--report", str(report)]) == 0
    assert "8 words of length 3" in capsys.readouterr().out
    args = build_parser().parse_args(["verify", "--from", "N1", "--to", "N1", "--threads", "2"])
    assert cli._config_flags(args)["threads"] == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
def test_invalid_thread_env_exit_3(value, monkeypatch, capsys):
    """REVCOVER_THREADS must be a positive integer, as --threads must be."""
    monkeypatch.setenv("REVCOVER_THREADS", value)
    assert main(["verify", "--from", "N1", "--to", "N1", "--mean-value"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: REVCOVER_THREADS") and len(err.splitlines()) == 1


def test_thread_env_sets_the_default(monkeypatch):
    """The variable is read when the config is built from the flags."""
    monkeypatch.setenv("REVCOVER_THREADS", "3")
    parser = build_parser()
    for argv, threads in ((["verify", "--from", "N1", "--to", "N1"], 3),
                          (["prove-paper", "--threads", "1"], 1)):
        assert cli._config_flags(parser.parse_args(argv))["threads"] == threads


def test_parser_defaults_are_verify_config_defaults(monkeypatch):
    """verify and prove-paper default to VerifyConfig's settings, and
    prove-paper's parsed defaults give CampaignConfig(), whose cell checks
    are VerifyConfig's with the centered form."""
    monkeypatch.delenv("REVCOVER_THREADS", raising=False)
    parser = build_parser()
    defaults = asdict(VerifyConfig())
    v, p = ({**vars(args), **cli._config_flags(args)} for args in (
        parser.parse_args(["verify", "--from", "N1", "--to", "N1"]),
        parser.parse_args(["prove-paper"])))
    shared = ("resolution", "max_depth", "threads", "budget")
    assert {k: v[k] for k in (*shared, "mean_value")} == {
        k: defaults[k] for k in (*shared, "mean_value")}
    assert {k: p[k] for k in shared} == {k: defaults[k] for k in shared}
    campaign = CampaignConfig(**{k: p[k] for k in (*shared, "plain")})
    assert campaign == CampaignConfig()
    assert campaign.verify_config() == replace(VerifyConfig(), mean_value=True)


def test_verify_builds_the_instance_once(monkeypatch):
    built = []
    real = cli.build_proof_data
    monkeypatch.setattr(cli, "build_proof_data", lambda: built.append(1) or real())
    assert main(["verify", "--from", "N1", "--to", "S^T*N1", "--mean-value"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--length", "3"],
    ["enumerate", "--length", "3", "--report", "{report}", "--emit-word", "N1,H1,H2,H3,N2"],
    ["prove-paper", "--plot", "{tmp}/clouds"],
])
def test_campaign_commands_build_the_instance_once(argv, tmp_path, monkeypatch, campaign):
    """enumerate (from a campaign or a saved report) and prove-paper --plot
    build the instance once and hand it on, counted across the CLI and the
    campaign module."""
    report = tmp_path / "report.json"
    campaign[0].save(report)
    built = []
    real = campaign_module.build_proof_data
    for module in (cli, campaign_module):
        monkeypatch.setattr(module, "build_proof_data", lambda: built.append(1) or real())
    assert main([a.format(report=report, tmp=tmp_path) for a in argv]) == 0
    assert len(built) == 1


def test_verify_hset_file_and_report(tmp_path, data):
    path = tmp_path / "n1.json"
    save_hset(data.hset("N1"), path)
    report = tmp_path / "cert.json"
    rc = main(["verify", "--from", str(path), "--to", "N1", "--mean-value",
               "--report", str(report)])
    assert rc == 0
    cert = json.loads(report.read_text())
    assert cert["status"] == "verified" and cert["w"] == 1


def test_verify_backcover_flag(data, tmp_path):
    rc = main(["verify", "--from", "S^T*H3", "--to", "S^T*H2", "--back",
               "--mean-value"])
    assert rc == 0


def test_verify_back_plot_writes_the_certified_relation(tmp_path):
    """--back --plot writes the clouds of the relation that
    verify_backcover certifies, transpose(M) =(F^-1)^k=> transpose(N): its
    boundary image lies in the target's open stable cube, (-1, 1) in each
    stable chart coordinate, as the verified entry condition says. The file
    names are sanitized like the support files'."""
    plots = tmp_path / "clouds"
    rc = main(["verify", "--from", "S^T*H3", "--to", "S^T*H2", "--back", "--mean-value",
               "--plot", str(plots)])
    assert rc == 0
    assert sorted(p.name for p in plots.iterdir()) == [
        "ST_H2T_boundary_image_stable.txt", "ST_H2T_exit_image_unstable.txt",
        "ST_H2T_support_y.txt", "ST_H3T_support_y.txt"]
    cloud = np.loadtxt(plots / "ST_H2T_boundary_image_stable.txt")
    assert cloud.shape == (4000, 2) and np.all(np.abs(cloud) < 1.0)


def test_prove_paper_default_exit_0(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["prove-paper", "--report", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert report.exists()
    r = json.loads(report.read_text())
    assert r["schema"] == "revcover-report/1"
    assert "semiconjugate to the full shift" in out
    assert "2.2e+08" in out or "220000000" in str(r["reference_cost"]["boxes"])


def test_prove_paper_starved_exit_2():
    rc = main(["prove-paper", "--max-depth", "2"])
    assert rc == 2


def test_prove_paper_plot_files(tmp_path):
    plots = tmp_path / "clouds"
    rc = main(["prove-paper", "--plot", str(plots)])
    assert rc == 0
    files = sorted(p.name for p in plots.iterdir())
    assert "H1_exit_image_unstable.txt" in files
    assert "H1_boundary_image_stable.txt" in files
    assert any(name.endswith("_support_y.txt") for name in files)


def test_enumerate_from_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["prove-paper", "--report", str(report)]) == 0
    capsys.readouterr()
    out_file = tmp_path / "words.json"
    rc = main(["enumerate", "--length", "5", "--report", str(report),
               "--emit-word", "N1,H1,H2,H3,N2",
               "--emit-word", "N1,N1,H1,H2,H3,N2",
               "--emit-word", "N1,N1,N1,H1,H2,H3,N2",
               "--out", str(out_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "32 words" in out
    payload = json.loads(out_file.read_text())
    assert payload["count"] == 32
    certs = payload["symmetric_orbit_certificates"]
    assert len(certs) == 3
    assert [c["total_map_steps"] for c in certs] == [7, 8, 9]


def test_enumerate_counts_without_listing(monkeypatch, capsys):
    """Without --out, enumerate counts the words and lists none, so length
    40 (2**40 words) answers at once."""
    def refuse(*args):
        raise AssertionError("enumerate_words listed the words")

    monkeypatch.setattr(cli, "enumerate_words", refuse)
    assert main(["enumerate", "--length", "40"]) == 0
    assert f"{2**40} words of length 40 over (N1, N2)" in capsys.readouterr().out


def test_enumerate_zero_length_rejected(monkeypatch, capsys):
    """A length below 1 is refused before any work: the instance is not
    built and the campaign does not run."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate worked before it checked the length")

    for name in ("build_proof_data", "run_campaign"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(["enumerate", "--length", "0"]) == 3
    assert capsys.readouterr().err == "error: word length must be >= 1\n"


def test_enumerate_short_emit_word_rejected(monkeypatch, capsys):
    """An --emit-word of fewer than two labels is refused before any work,
    like a short length: nothing is printed on stdout, and stderr holds one
    error line."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate worked before it checked the word")

    for name in ("build_proof_data", "run_campaign"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(["enumerate", "--length", "2", "--emit-word", "N1,N1", "--emit-word", "N1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: inadmissible word 'N1': word needs at least two labels\n"


@pytest.mark.parametrize("with_report", [False, True])
def test_enumerate_unknown_label_rejected(with_report, tmp_path, campaign, monkeypatch, capsys):
    """An --emit-word label that is not an h-set of the instance, nor S^T*
    and one, is refused once the instance is built, before the campaign
    runs or a saved report's graph is rebuilt: nothing is printed on
    stdout, and stderr holds one error line."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate worked before it checked the labels")

    for name in ("run_campaign", "graph_from_report"):
        monkeypatch.setattr(cli, name, refuse)
    argv = ["enumerate", "--length", "2", "--emit-word", "N1,S^T*H1", "--emit-word", "X,Y"]
    if with_report:
        campaign[0].save(tmp_path / "report.json")
        argv += ["--report", str(tmp_path / "report.json")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: inadmissible word 'X,Y': unknown h-set 'X'\n"


@pytest.mark.parametrize("with_report", [False, True])
@pytest.mark.parametrize("word, message", [
    ("S^T*N1,N1", "unknown endpoint 'S^T*N1'"),
    ("N1,N2", "no verified relation 'N1' => 'N2'"),
])
def test_enumerate_word_the_graph_refuses_prints_nothing(with_report, word, message, tmp_path,
                                                         campaign, monkeypatch, capsys):
    """A word of known labels that the covering graph refuses is refused
    before the word count is printed: S^T*N1 names N1's symmetric image,
    which the closure identifies with N1, so it is no node of the graph,
    and N1 => N2 is no verified relation. Nothing is printed on stdout or
    written to --out, and stderr holds one error line."""
    monkeypatch.setattr(cli, "run_campaign", lambda *args: campaign)
    campaign[0].save(tmp_path / "report.json")
    argv = ["enumerate", "--length", "1", "--emit-word", "N1,N1", "--emit-word", word,
            "--out", str(tmp_path / "words.json")]
    if with_report:
        argv += ["--report", str(tmp_path / "report.json")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: inadmissible word {word!r}: {message}\n"
    assert not (tmp_path / "words.json").exists()


def test_enumerate_missing_report_exit_3(tmp_path):
    assert main(["enumerate", "--length", "3",
                 "--report", str(tmp_path / "nope.json")]) == 3


@pytest.mark.parametrize("content", ['{"relations": ["x"]}', '{"relations": 5}', '[1, 2]'])
def test_enumerate_malformed_report_exit_3(tmp_path, capsys, content):
    """A report that is not a dict of relation records is an input error
    (exit 3), not a refuted cell (exit 1)."""
    report = tmp_path / "report.json"
    report.write_text(content)
    assert main(["enumerate", "--length", "3", "--report", str(report)]) == 3
    assert "error: no usable covering graph" in capsys.readouterr().err


@pytest.mark.parametrize("index, key, value", [(0, "w", "x"), (0, "w", 7), (3, "iters", "4")])
def test_enumerate_invalid_relation_exit_3(tmp_path, capsys, campaign, index, key, value):
    """A saved relation whose w is not -1, 1 or null, or whose iters is not
    an integer >= 1, is an input error (exit 3): not a traceback, not a
    certificate with a degree product of 7, and not a block silently lost."""
    r = copy.deepcopy(campaign[0].report)
    r["relations"][index][key] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(r))
    assert main(["enumerate", "--length", "3", "--report", str(report),
                 "--emit-word", "N1,N1"]) == 3
    assert "error: no usable covering graph" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("direction", "sideways"), ("map", "no-such-map")])
def test_enumerate_report_with_foreign_relation_exit_3(tmp_path, capsys, campaign, key, value):
    """A saved relation with a direction other than "direct" or "back", or
    a map other than the instance's, is an input error (exit 3) with one
    error line that names the value."""
    r = copy.deepcopy(campaign[0].report)
    r["relations"][0][key] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(r))
    assert main(["enumerate", "--length", "3", "--report", str(report),
                 "--emit-word", "N1,N1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no usable covering graph") and value in err
    assert len(err.splitlines()) == 1


def test_enumerate_report_with_unknown_hset_exit_3(tmp_path, capsys, campaign):
    """A saved relation X -> N1 names an h-set the instance does not have:
    an input error (exit 3) with one error line."""
    r = copy.deepcopy(campaign[0].report)
    r["relations"][0]["source"] = "X"
    report = tmp_path / "report.json"
    report.write_text(json.dumps(r))
    assert main(["enumerate", "--length", "3", "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no usable covering graph") and "X" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--from", "--report"])
def test_undecodable_file_exit_3(flag, tmp_path, capsys):
    """A file that is not UTF-8 text (here a UTF-16 byte order mark) is an
    input error like any other malformed file: exit 3 with one error line,
    not a UnicodeDecodeError traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{\x00}\x00')
    argv = (["verify", "--from", str(bad), "--to", "N1"] if flag == "--from"
            else ["enumerate", "--length", "3", "--report", str(bad)])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err
    assert len(err.splitlines()) == 1


def test_enumerate_inadmissible_word_exit_3(tmp_path):
    report = tmp_path / "report.json"
    assert main(["prove-paper", "--report", str(report)]) == 0
    rc = main(["enumerate", "--length", "2", "--report", str(report),
               "--emit-word", "N1,H3"])
    assert rc == 3
