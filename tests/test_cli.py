import dataclasses
import json

import pytest

from casson.cli import EXIT_DISAGREE, EXIT_PARSE, EXIT_VALIDATION, ingest_csv, main
from casson.plane import polyknot_from_braid
from casson.tangle import parse_tangle, v2_natangle_closed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.lstrip().startswith("{") else out


def test_v2_trefoil_all_methods(capsys):
    code, out = run(capsys, "v2", "--braid", "s1 s1 s1", "--method", "all")
    assert code == 0
    assert out["v2"] == 1 and out["agreement"]
    assert out["methods"]["gauss"]["value"] == 1
    assert out["methods"]["skein"]["value"] == 1
    assert "skipped" in out["methods"]["morse"]


def test_v2_empty_gauss(capsys):
    code, out = run(capsys, "v2", "--gauss", "")
    assert code == 0 and out["v2"] == 0


def test_parse_error_exit_code(capsys):
    assert main(["v2", "--gauss", "O1+U2"]) == EXIT_PARSE


def test_missing_input_flag(capsys):
    assert main(["v2"]) == EXIT_PARSE


def test_genericity_error_exit_code(capsys):
    # two vertices at y = 2: parsed fine, rejected by the genericity check
    knot = '{"shape":"long","vertices":[[0,0,0],[1,2,1],[2,2,0],[0,5,0]]}'
    assert main(["v2", "--polyknot", knot]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "genericity" in err and len(err.strip().splitlines()) == 1


def test_non_realizable_gauss_code_exit_code(capsys):
    # a virtual knot: the skein descent's two lk counts disagree
    assert main(["v2", "--gauss", "U1+O2+O1+U2+", "--method", "all"]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "not a realizable" in err and len(err.strip().splitlines()) == 1


def test_polyknot_input_runs_morse(tmp_path, capsys):
    path = tmp_path / "tref.json"
    path.write_text(polyknot_from_braid([1, 1, 1], closed=False).to_json())
    code, out = run(capsys, "v2", "--polyknot", str(path), "--method", "all")
    assert code == 0
    assert out["methods"]["morse"]["value"] == 1


def test_tangle_input_runs_natangle(tmp_path, capsys):
    path = tmp_path / "tref.tangle"
    path.write_text("MIN@2:u\nA@1:R\nX@1:+:o\nX@1:+:o\nX@1:+:o\nA@1:L\nMAX@2:u\n")
    code, out = run(capsys, "v2", "--tangle", str(path), "--method", "all")
    assert code == 0
    assert out["methods"]["natangle"]["value"] == 1


def test_arf_and_bound(capsys):
    code, out = run(capsys, "arf", "--braid", "1 1 1")
    assert code == 0 and out["arf"] == 1
    code, out = run(capsys, "bound", "--torus", "5")
    assert code == 0 and out["sharp"] and out["within_bound"]


def test_gen_deterministic(capsys):
    _, a = run(capsys, "gen", "--seed", "11", "--letters", "8", "--moves", "2")
    _, b = run(capsys, "gen", "--seed", "11", "--letters", "8", "--moves", "2")
    assert a["diagram"] == b["diagram"]


def test_moves_check(capsys):
    code, out = run(capsys, "moves-check", "--seed", "3", "--letters", "8",
                    "--moves", "10")
    assert code == 0 and out["ok"]


def test_tsv_format(capsys):
    code, out = run(capsys, "v2", "--torus", "3", "--format", "tsv")
    assert code == 0
    assert "v2\t1" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["v2", "--braid", "1 1 1", "-o", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["v2"] == 1


def test_schema_version_present(capsys):
    _, out = run(capsys, "v2", "--torus", "3")
    assert out["schema_version"] == 1


def test_batch(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("name,kind,payload\n"
                     "tref,braid,s1 s1 s1\n"
                     "bad,gauss,XYZ\n"
                     "t5,torus,5\n")
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    recs = out["records"]
    assert recs[0]["v2"] == 1 and recs[0]["agreement"]
    assert "error" in recs[1]
    assert recs[2]["v2"] == 3


def test_ingest_csv_empty(tmp_path):
    table = tmp_path / "empty.csv"
    table.write_text("")
    assert ingest_csv(str(table)) == []


def test_ingest_csv_short_row(tmp_path):
    table = tmp_path / "short.csv"
    table.write_text("onlyname\n")
    recs = ingest_csv(str(table))
    assert len(recs) == 1 and "error" in recs[0]


def test_integrate(tmp_path, capsys):
    path = tmp_path / "tref.json"
    path.write_text(polyknot_from_braid([1, 1, 1], closed=False).to_json())
    code, out = run(capsys, "integrate", "--knot", str(path),
                    "--samples", "20000", "--seed", "2", "--report-variance")
    assert code == 0
    assert "std_error" in out and out["samples"] > 0


def test_integrate_bad_file(capsys):
    assert main(["integrate", "--knot", "/nonexistent.json"]) == EXIT_PARSE


MALFORMED_POLYKNOTS = {
    "not_an_object": "[1,2]",
    "no_vertices": '{"shape":"long"}',
    "two_coordinates": '{"shape":"long","vertices":[[0,0],[1,1,1],[0,2,0]]}',
    "overflowing_coordinate":
        '{"shape":"long","vertices":[[0,0,0],[1e400,1,1],[0,2,0]]}',
    "four_coordinates":
        '{"shape":"long","vertices":[[0,0,0,5],[1,1,1],[0,2,0]]}',
}


@pytest.mark.parametrize("text", MALFORMED_POLYKNOTS.values(),
                         ids=MALFORMED_POLYKNOTS.keys())
def test_v2_malformed_polyknot(text, capsys):
    assert main(["v2", "--polyknot", text]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "cannot parse" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", MALFORMED_POLYKNOTS.values(),
                         ids=MALFORMED_POLYKNOTS.keys())
def test_integrate_malformed_polyknot(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["integrate", "--knot", str(path), "--samples", "100"]) \
        == EXIT_PARSE
    err = capsys.readouterr().err
    assert "cannot read" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_integrate_non_positive_samples(samples, tmp_path, capsys):
    path = tmp_path / "tref.json"
    path.write_text(polyknot_from_braid([1, 1, 1], closed=False).to_json())
    assert main(["integrate", "--knot", str(path), "--samples", samples]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "--samples" in err and len(err.strip().splitlines()) == 1


def test_integrate_closed_knot(tmp_path, capsys):
    path = tmp_path / "tref.json"
    path.write_text(polyknot_from_braid([1, 1, 1], closed=True).to_json())
    assert main(["integrate", "--knot", str(path), "--samples", "100"]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "long knot" in err and len(err.strip().splitlines()) == 1


TREFOIL_TANGLE_TEXT = "MIN@2:u\nA@1:R\nX@1:+:o\nX@1:+:o\nX@1:+:o\nA@1:L\nMAX@2:u\n"


@pytest.mark.parametrize("crossing", ["X@1::u", "X@1:-:", "X@1:+-:u",
                                      "X@1:-:ou"])
def test_tangle_crossing_fields_must_be_exact(crossing, capsys):
    text = TREFOIL_TANGLE_TEXT.replace("X@1:+:o", crossing, 1)
    assert main(["v2", "--tangle", text, "--method", "natangle"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "X needs" in err and len(err.strip().splitlines()) == 1


def _off_by_one(monkeypatch, module, name):
    """Patch module.name so that the Xplus term of its stats is one too big."""
    original = getattr(module, name)

    def patched(*args):
        stats = original(*args)
        return dataclasses.replace(stats, Xplus=stats.Xplus + 1)

    monkeypatch.setattr(module, name, patched)


def test_formula_disagreement_exit_code(monkeypatch, tmp_path, capsys):
    import casson.plane
    import casson.tangle

    path = tmp_path / "tref.json"
    path.write_text(polyknot_from_braid([1, 1, 1], closed=False).to_json())
    _off_by_one(monkeypatch, casson.plane, "morse_stats")
    _off_by_one(monkeypatch, casson.tangle, "associator_stats")
    for method, flag, payload in (("morse", "--polyknot", str(path)),
                                  ("natangle", "--tangle", TREFOIL_TANGLE_TEXT)):
        assert main(["v2", flag, payload, "--method", method]) == EXIT_DISAGREE
        err = capsys.readouterr().err
        assert method in err and len(err.strip().splitlines()) == 1
    table = tmp_path / "t.csv"
    table.write_text(f"name,kind,payload\ntref,polyknot,{path}\n")
    code, out = run(capsys, "batch", str(table), "--method", "morse")
    assert code == EXIT_DISAGREE and "morse" in out["records"][0]["error"]


def test_closed_tangle_word_names_the_long_shape(capsys):
    # a closed unknot: one cup, one cap; the library reads it as closed
    text = "MIN@1:u\nMAX@1:u\n"
    assert v2_natangle_closed(parse_tangle(text, "closed")) == 0
    assert main(["v2", "--tangle", text, "--method", "natangle"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "long" in err and len(err.strip().splitlines()) == 1


def test_bad_casson_seed(monkeypatch, capsys):
    monkeypatch.setenv("CASSON_SEED", "abc")
    assert main(["gen"]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and "CASSON_SEED" in err
    assert len(err.strip().splitlines()) == 1
    # an explicit seed does not need the default
    code, out = run(capsys, "gen", "--seed", "3")
    assert code == 0 and out["seed"] == 3
