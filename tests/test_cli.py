import csv
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


def test_unwritable_output_file(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    assert main(["v2", "--braid", "s1 s1 s1", "-o", str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("casson: cannot write output: ")
    assert len(err.strip().splitlines()) == 1


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
    "zero_denominator":
        '{"shape":"long","vertices":[[0,0,0],[1,1,"1/0"],[0,2,0]]}',
    "huge_exponent":
        '{"shape":"long","vertices":[[0,0,0],[1,1,"1e999999999"],[0,2,0]]}',
    "tiny_exponent":
        '{"shape":"long","vertices":[[0,0,0],[1,1,"1e-999999999"],[0,2,0]]}',
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


def test_unreadable_input_path(tmp_path, capsys):
    for flag in ("--polyknot", "--tangle"):
        assert main(["v2", flag, str(tmp_path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "cannot parse" in err


def test_batch_records_bad_input_rows(tmp_path, capsys):
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([
            ["zero", "polyknot", MALFORMED_POLYKNOTS["zero_denominator"]],
            ["dir", "polyknot", str(tmp_path)],
            ["tref", "braid", "s1 s1 s1"],
        ])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    zero, folder, tref = out["records"]
    assert "not a finite rational" in zero["error"]
    assert "cannot parse polyknot input" in folder["error"]
    assert tref["v2"] == 1


HUGE_INDEX_BRAID = "s1 s1000000000000000000"


def test_huge_generator_index(capsys):
    # more strands than letters + 1 cannot close to a knot; rejected before
    # anything is allocated per strand
    assert main(["v2", "--braid", HUGE_INDEX_BRAID, "--method", "all"]) \
        == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "braid closure has more than one component" in err


def test_batch_records_huge_generator_index(tmp_path, capsys):
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["huge", "braid", HUGE_INDEX_BRAID],
                                  ["tref", "braid", "s1 s1 s1"]])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    huge, tref = out["records"]
    assert "braid closure has more than one component" in huge["error"]
    assert tref["v2"] == 1


@pytest.mark.parametrize("content", [
    b"name,kind,payload\ntref,braid,s1 \xff\n",
    # a field past the csv field limit, cli.MAX_CHARS + 1
    b"tref,braid," + b"1 " * 1_100_000 + b"\n",
], ids=["not_utf8", "oversized_field"])
def test_batch_unreadable_table(content, tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(content)
    assert main(["batch", str(table)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "unreadable table" in err


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


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--letters", "-3"], "--letters"),
    (["gen", "--moves", "-1"], "--moves"),
    (["moves-check", "--letters", "-2"], "--letters"),
    (["moves-check", "--moves", "-4"], "--moves"),
])
def test_negative_counts(argv, flag, capsys):
    assert main(argv + ["--seed", "1"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and flag in err and len(err.strip().splitlines()) == 1


def test_no_letters_with_moves():
    for seed in range(20):
        for command in ("gen", "moves-check"):
            assert main([command, "--letters", "0", "--moves", "5",
                         "--seed", str(seed)]) == 0


def test_long_knot_ending_below_its_start(tmp_path, capsys):
    # the upper tail would run back down through the lower one
    text = '{"shape":"long","vertices":[[0,5,0],[1,3,1],[2,7,0],[0,2,0]]}'
    path = tmp_path / "below.json"
    path.write_text(text)
    for argv in (["v2", "--polyknot", text],
                 ["integrate", "--knot", str(path), "--samples", "1000"]):
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "y=2" in err and "y=5" in err


# -- the method table against the dispatch chain it replaced ------------------

import casson.cli as cli
from casson.diagram import DisagreementError
from casson.plane import GenericityError, PlaneCurve, project
from casson.skein import NotDescendingRealizable
from casson.tangle import TangleWord, gauss_of_tangle, random_tangle_word


def _chain_run_method(method, diagram, source):
    """The if-chain dispatch that `cli.METHODS` replaced."""
    try:
        if method == "gauss":
            return {"value": cli.v2_gauss(diagram)}
        if method == "sym":
            return {"value": cli.v2_sym(diagram)}
        if method == "skein":
            return {"value": cli.v2_skein(diagram)}
        if method == "morse":
            if source is None or isinstance(source, TangleWord):
                return {"skipped": "not applicable: input has no plane-curve "
                                   "geometry"}
            if source.shape == "long":
                return {"value": cli.v2_morse(source)}
            return {"value": cli.v2_morse_closed(source)}
        if method == "natangle":
            if not isinstance(source, TangleWord):
                return {"skipped": "not applicable: input is not a tangle word"}
            if source.shape == "long":
                return {"value": cli.v2_natangle(source)}
            return {"value": cli.v2_natangle_closed(source)}
    except GenericityError as exc:
        raise cli.CliError(f"genericity failure in {method}: {exc}",
                           EXIT_VALIDATION)
    except NotDescendingRealizable as exc:
        raise cli.CliError(f"input is not a realizable diagram ({method}): "
                           f"{exc}", EXIT_VALIDATION)
    except DisagreementError as exc:
        raise cli.CliError(f"internal disagreement in method {method}: {exc}",
                           EXIT_DISAGREE)
    raise cli.CliError(f"unknown method {method!r}", EXIT_PARSE)


def _method_inputs():
    """(diagram, source) of the six CLI kinds, a closed polyknot and a
    closed tangle word."""
    inputs = [cli._read_input(kind, payload) for kind, payload in (
        ("braid", "1 -2 1 -2"), ("gauss", "O1+U2+O3+U1+O2+U3+"),
        ("pd", "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"), ("torus", "7"),
        ("polyknot", polyknot_from_braid([1, 1, 1], closed=False).to_json()),
        ("tangle", TREFOIL_TANGLE_TEXT))]
    curve = project(polyknot_from_braid([1, -2, 1, -2], closed=True))
    word = random_tangle_word(3, 16, "closed")
    return inputs + [(curve.gauss_diagram(), curve),
                     (gauss_of_tangle(word), word)]


def _outcome(run_method, method, diagram, source):
    try:
        return run_method(method, diagram, source)
    except cli.CliError as exc:
        return exc.code, str(exc)


def test_method_table_matches_the_dispatch_chain():
    inputs = _method_inputs()
    kinds = {type(s) for _, s in inputs}
    assert kinds == {type(None), PlaneCurve, TangleWord}
    assert {s.shape for _, s in inputs if s is not None} == {"long", "closed"}
    for diagram, source in inputs:
        for method in cli.METHODS:
            assert cli._run_method(method, diagram, source) == \
                _chain_run_method(method, diagram, source)


@pytest.mark.parametrize("error", [GenericityError, NotDescendingRealizable,
                                   DisagreementError])
def test_method_table_reports_errors_like_the_chain(error, monkeypatch):
    inputs = _method_inputs()
    ran = {(k, method): "value" in cli._run_method(method, diagram, source)
           for k, (diagram, source) in enumerate(inputs)
           for method in cli.METHODS}
    for name in ("v2_gauss", "v2_sym", "v2_skein", "v2_morse",
                 "v2_morse_closed", "v2_natangle", "v2_natangle_closed"):
        def fail(*args, name=name):
            raise error(f"injected into {name}")
        monkeypatch.setattr(cli, name, fail)
    for k, (diagram, source) in enumerate(inputs):
        for method in cli.METHODS:
            got = _outcome(cli._run_method, method, diagram, source)
            assert got == _outcome(_chain_run_method, method, diagram, source)
            assert isinstance(got, tuple) == ran[k, method]


# -- one parser, built on the first call, for every call after it ------------

def _captured(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cached_parser_prints_like_a_fresh_one(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    argvs = (["v2", "--help"], ["v2", "--method", "nope"]) * 2
    cached = [_captured(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert [_captured(capsys, argv) for argv in argvs] == cached
    assert cached[0][0] == 0 and cached[0][1].startswith("usage: casson v2")
    assert cached[1][0] == EXIT_PARSE and "invalid choice: 'nope'" in \
        cached[1][2]


def test_cached_parser_reads_the_seed_at_command_time(monkeypatch, capsys):
    seeds = []
    for value in ("5", "7"):
        monkeypatch.setenv("CASSON_SEED", value)
        code, out = run(capsys, "gen", "--letters", "4", "--moves", "1")
        assert code == 0
        seeds.append(out["seed"])
    assert seeds == [5, 7]


def test_failing_call_leaves_no_state(capsys):
    good = ["v2", "--braid", "s1 s1 s1", "--method", "all"]
    alone = _captured(capsys, good)
    assert alone[0] == 0 and alone[2] == ""
    for bad in (["v2", "--method", "nope"], ["v2"], ["gen", "--seed", "x"],
                ["v2", "--gauss", "O1+U2"], ["v2", "--braid", "s1 s1"]):
        assert _captured(capsys, bad)[0] != 0
        assert _captured(capsys, good) == alone



# -- the chord cap -------------------------------------------------------------

from casson.cli import MAX_CHORDS


def test_torus_over_chord_cap_is_not_built(monkeypatch, capsys):
    code, out = run(capsys, "arf", "--torus", str(MAX_CHORDS))
    assert code == 0 and out["n_chords"] == MAX_CHORDS

    def forbidden(n):
        raise AssertionError("built a torus knot over the chord cap")

    monkeypatch.setattr(cli, "torus_knot_2", forbidden)
    assert main(["v2", "--torus", str(MAX_CHORDS + 2)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"{MAX_CHORDS + 2} chords, more than the limit" in err


def test_chord_cap_after_building(tmp_path, capsys):
    big = "s1 " * (MAX_CHORDS + 2)
    assert main(["v2", "--braid", big, "--method", "all"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"braid input has {MAX_CHORDS + 2} chords" in err
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["big", "braid", big],
                                  ["huge", "torus", "10000001"],
                                  ["tref", "braid", "s1 s1 s1"]])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    braid, torus, tref = out["records"]
    assert "more than the limit" in braid["error"]
    assert "more than the limit" in torus["error"]
    assert tref["v2"] == 1


def test_polyknot_over_vertex_cap_is_not_projected(tmp_path, monkeypatch,
                                                    capsys):
    knot = polyknot_from_braid([1, 1, 1], closed=False)
    n = len(knot.vertices)
    monkeypatch.setattr(cli, "MAX_VERTICES", n)
    code, out = run(capsys, "v2", "--polyknot", knot.to_json(), "--method", "all")
    assert code == 0 and out["v2"] == 1

    def forbidden(knot):
        raise AssertionError("projected a polyknot over the vertex cap")

    monkeypatch.setattr(cli, "MAX_VERTICES", n - 1)
    monkeypatch.setattr(cli, "project", forbidden)
    assert main(["v2", "--polyknot", knot.to_json()]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"polyknot input has {n} vertices, more than the limit of {n - 1}" in err
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["big", "polyknot", knot.to_json()],
                                  ["tref", "braid", "s1 s1 s1"]])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    big, tref = out["records"]
    assert big["error"] == err.strip().removeprefix("casson: ")
    assert tref["v2"] == 1


def test_tangle_over_event_cap_is_not_parsed(tmp_path, monkeypatch, capsys):
    # blank and comment lines are not events
    text = "# trefoil\n\n" + TREFOIL_TANGLE_TEXT
    monkeypatch.setattr(cli, "MAX_EVENTS", 7)
    code, out = run(capsys, "v2", "--tangle", text, "--method", "all")
    assert code == 0 and out["v2"] == 1

    def forbidden(text):
        raise AssertionError("parsed a tangle word over the event cap")

    monkeypatch.setattr(cli, "MAX_EVENTS", 6)
    monkeypatch.setattr(cli, "parse_tangle", forbidden)
    assert main(["v2", "--tangle", text]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "tangle input has 7 events, more than the limit of 6" in err
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["big", "tangle", text],
                                  ["tref", "braid", "s1 s1 s1"]])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    big, tref = out["records"]
    assert big["error"] == err.strip().removeprefix("casson: ")
    assert tref["v2"] == 1


# nested deeper than the default recursion limit lets json.loads go
DEEP_JSON = "[" * 1000 + "]" * 1000


def test_v2_deeply_nested_polyknot(tmp_path, capsys):
    assert main(["v2", "--polyknot", DEEP_JSON]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "polyknot JSON is nested too deeply" in err
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["deep", "polyknot", DEEP_JSON],
                                  ["tref", "braid", "s1 s1 s1"]])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    deep, tref = out["records"]
    assert deep["error"] == err.strip().removeprefix("casson: ")
    assert tref["v2"] == 1


def test_integrate_deeply_nested_knot(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    assert main(["integrate", "--knot", str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "polyknot JSON is nested too deeply" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--letters", "3000000"],
    ["gen", "--letters", "1", "--moves", str(MAX_CHORDS // 2 + 1)],
    ["moves-check", "--letters", "4", "--moves", "100000000"],
    ["moves-check", "--letters", str(MAX_CHORDS + 1), "--moves", "0"],
])
def test_generation_over_chord_cap_is_not_run(argv, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("started a run over the chord cap")

    monkeypatch.setattr(cli, "random_realizable", forbidden)
    monkeypatch.setattr(cli, "random_braid_word", forbidden)
    assert main(argv + ["--seed", "1"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"more than the limit of {MAX_CHORDS} chords" in err


@pytest.mark.parametrize("command", ["gen", "moves-check"])
def test_generation_cap_is_letters_plus_twice_moves(command, monkeypatch,
                                                    capsys):
    # under a cap of 12, letters + 2 * moves = 12 runs and 13 does not, and
    # no run builds more chords than the cap
    monkeypatch.setattr(cli, "MAX_CHORDS", 12)
    for seed in range(25):
        code, out = run(capsys, command, "--letters", "4", "--moves", "4",
                        "--seed", str(seed))
        assert code == 0
        if command == "gen":
            assert out["n_chords"] <= 12
    assert main([command, "--letters", "5", "--moves", "4"]) == EXIT_VALIDATION
    assert "is 13, more than the limit of 12" in capsys.readouterr().err


# -- the sample cap -------------------------------------------------------------

from casson.cli import MAX_SAMPLES


def test_integrate_over_sample_cap_exits_before_reading(capsys):
    # the path does not exist, so exit 2 shows the cap is checked first
    assert main(["integrate", "--knot", "/nonexistent.json", "--samples",
                 str(MAX_SAMPLES + 1)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert f"is {MAX_SAMPLES + 1}, more than the limit of {MAX_SAMPLES}" \
        in err


def test_integrate_at_sample_cap_reads_the_file(capsys):
    assert main(["integrate", "--knot", "/nonexistent.json", "--samples",
                 str(MAX_SAMPLES)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("casson: cannot read knot file")


import os
import subprocess
import sys

import casson


@pytest.mark.parametrize("samples, code", [
    ("0", EXIT_VALIDATION), ("1000", EXIT_PARSE),
], ids=["samples_0", "missing_file"])
def test_rejected_integrate_does_not_import_numpy(samples, code):
    # a fresh interpreter: this one has imported numpy for other tests
    src = os.path.dirname(os.path.dirname(casson.__file__))
    script = ("import sys; from casson.cli import main; code = main(["
              f"'integrate', '--knot', '/nonexistent.json', '--samples', '{samples}'"
              "]); print(code, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(code), "False"]
    assert len(done.stderr.strip().splitlines()) == 1


# -- golden bytes of the whole CLI --------------------------------------------

import hashlib

_GENERIC_BAD = '{"shape":"long","vertices":[[0,0,0],[1,2,1],[2,2,0],[0,5,0]]}'

GOLDEN_ARGV = [
    *(["v2", f"--{kind}", payload, "--method", "all"] for kind, payload in (
        ("braid", "s1 s1 s1"),
        ("braid", "1 -2 1 -2"),
        ("braid", "-s2 s1 -s1 -s2 s3 -s1 -s2 -s2 -s1 -s2 s1"),
        ("gauss", "O1+U2+O3+U1+O2+U3+"),
        ("gauss", ""),
        ("gauss", "O1-U2-O3-U1-O2-U3-O4+U4+"),
        ("gauss", "O1+O2+O3-U4+O5+O6+U6+U7+U8-U9-O10-U1+U11-U12+O12+O13-U14-"
                  "U3-U15+O16+O9-U10-U17+O17+U2+O11-U13-O14-O4+U5+O7+O15+U16+"
                  "O8-"),
        ("pd", "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"),
        ("pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"),
        ("torus", "3"),
        ("torus", "41"),
        ("polyknot", polyknot_from_braid([1, 1, 1], closed=False).to_json()),
        ("polyknot", polyknot_from_braid([1, -2, 1, -2], closed=True).to_json()),
        ("tangle", TREFOIL_TANGLE_TEXT),
        ("tangle", "MIN@1:u\nMAX@1:u\n"),
    )),
    ["v2", "--torus", "9", "--format", "tsv"],
    ["arf", "--braid", "1 -2 1 -2"],
    ["arf", "--torus", "7"],
    ["bound", "--torus", "5"],
    ["bound", "--gauss", "O1+U2+O3+U1+O2+U3+"],
    ["gen", "--seed", "11", "--letters", "8", "--moves", "2"],
    ["gen", "--seed", "4", "--letters", "14", "--moves", "9"],
    ["moves-check", "--seed", "3", "--letters", "8", "--moves", "10"],
    ["moves-check", "--seed", "7", "--letters", "12", "--moves", "25"],
    ["v2", "--gauss", "O1+U2"],                                  # exit 1
    ["v2", "--torus", "4"],                                      # exit 1
    ["v2", "--polyknot", _GENERIC_BAD],                          # exit 2
    ["v2", "--gauss", "U1+O2+O1+U2+", "--method", "all"],        # exit 2
]


def test_golden_cli_bytes(capsys):
    # stdout, stderr and exit code of every call, byte for byte: any change
    # in what the CLI prints for these inputs changes the digest
    h = hashlib.sha256()
    for argv in GOLDEN_ARGV:
        code = main(argv)
        out, err = capsys.readouterr()
        for part in (repr(argv), out, err, str(code)):
            h.update(part.encode() + b"\0")
    assert h.hexdigest() == \
        "38d9b6fd83b894f4f26e0a0538a9a44f6d24af3ce133075a1125b2e64508d5ee"


import contextlib
import io

from hypothesis import example, given, settings, strategies as st

_GAUSS_SEEDS = ("O1+U2+O3+U1+O2+U3+", "O1+U2-O3-U1+O4+U3-O2-U4+",
                "U1+O2+O1+U2+")
_PD_SEEDS = ("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]",
             "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")


@st.composite
def _mutated(draw, seeds, alphabet, edits=4):
    """A valid code with a few characters deleted, inserted or replaced."""
    text = list(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, edits))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        if op == "insert" or i == len(text):
            text.insert(i, draw(st.sampled_from(alphabet)))
        elif op == "delete":
            del text[i]
        else:
            text[i] = draw(st.sampled_from(alphabet))
    return "".join(text)


def _payloads(seeds, alphabet):
    return st.text(alphabet, max_size=40) | _mutated(seeds, alphabet)


def _assert_clean_exit(flag, payload):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["v2", f"{flag}={payload}", "--method", "all"])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert json.loads(out.getvalue())["agreement"]
    else:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_payloads(_GAUSS_SEEDS, "OU0123+- "))
@example("--")  # argparse reads `--gauss=--` as an empty list
def test_fuzz_gauss_payloads_exit_cleanly(payload):
    _assert_clean_exit("--gauss", payload)


@settings(max_examples=300, deadline=None)
@given(_payloads(_PD_SEEDS, "X[]0123456789, "))
def test_fuzz_pd_payloads_exit_cleanly(payload):
    _assert_clean_exit("--pd", payload)


_BRAID_SEEDS = ("s1 s1 s1", "1 -2 1 -2", "-s2 s1 -s1 -s2 s3 -s1 -s2 -s2 -s1")
_POLYKNOT_SEEDS = (polyknot_from_braid([1, 1, 1], closed=False).to_json(),
                   polyknot_from_braid([1, -2, 1, -2], closed=True).to_json())
# the third is random_tangle_word(6, 3)
_TANGLE_SEEDS = (TREFOIL_TANGLE_TEXT, "MIN@1:u\nMAX@1:u\n",
                 "MIN@1:u\nMIN@4:d\nMIN@5:u\nA@4:R\nMAX@4:d\nA@3:R\n"
                 "MAX@3:u\nX@1:+:u\nA@1:L\nX@2:+:o\nA@1:R\nX@1:-:o\nMAX@1:u\n")


@settings(max_examples=300, deadline=None)
@given(_payloads(_BRAID_SEEDS, "s-0123456789 "))
def test_fuzz_braid_payloads_exit_cleanly(payload):
    _assert_clean_exit("--braid", payload)


# Torus inputs stay at three characters, or over the chord cap, since
# --method all on T(9999,2) takes seconds.
@settings(max_examples=300, deadline=None)
@given(st.text("0123456789-+ ", max_size=3)
       | _mutated(("3", "41"), "0123456789-+ ", edits=1)
       | st.integers(MAX_CHORDS + 1, 10**40).map(str))
def test_fuzz_torus_payloads_exit_cleanly(payload):
    _assert_clean_exit("--torus", payload)


@settings(max_examples=300, deadline=None)
@given(_payloads(_POLYKNOT_SEEDS, '{}[]",: 0123456789-/.e'))
@example("[" * 10**5 + "]" * 10**5)  # hypothesis raises the recursion limit
def test_fuzz_polyknot_payloads_exit_cleanly(payload):
    _assert_clean_exit("--polyknot", payload)


@settings(max_examples=300, deadline=None)
@given(_payloads(_TANGLE_SEEDS, "MINAX@:ud+-oLR123\n#"))
@example("MIN@1:u\n" * (cli.MAX_EVENTS + 1))
def test_fuzz_tangle_payloads_exit_cleanly(payload):
    _assert_clean_exit("--tangle", payload)


# -- one input boundary: the character cap, integrate's vertex cap ------------

import functools


def _forbid(monkeypatch, owner, name):
    def forbidden(*args):
        raise AssertionError(f"called {name} on an input over a cap")

    monkeypatch.setattr(owner, name, forbidden)


def test_character_cap_stops_before_any_parser(tmp_path, monkeypatch,
                                                request, capsys):
    request.addfinalizer(functools.partial(csv.field_size_limit,
                                           csv.field_size_limit()))
    cap = len(TREFOIL_TANGLE_TEXT)
    monkeypatch.setattr(cli, "MAX_CHARS", cap)
    path = tmp_path / "tref.tangle"
    path.write_text(TREFOIL_TANGLE_TEXT)
    code, out = run(capsys, "v2", "--tangle", str(path), "--method", "all")
    assert code == 0 and out["v2"] == 1

    for name in ("parse_gauss_code", "parse_tangle"):
        _forbid(monkeypatch, cli, name)
    _forbid(monkeypatch, cli.PolyKnot, "from_json")
    knot = polyknot_from_braid([1, 1, 1], closed=False).to_json()
    lines = {}
    for kind, text in (("tangle", TREFOIL_TANGLE_TEXT + "#"),
                       ("tangle", TREFOIL_TANGLE_TEXT * 10),
                       ("polyknot", knot), ("polyknot", knot * 10)):
        path.write_text(text)
        assert main(["v2", f"--{kind}", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        lines.setdefault(kind, set()).add(err)
    for kind, seen in lines.items():
        # one line at any length: the read stops at the cap + 1
        assert seen == {f"casson: {kind} input has {cap + 1} characters or "
                        f"more, more than the limit of {cap}\n"}

    inline = "O1+U1+" * 10
    assert main(["v2", "--gauss", inline[:cap + 1]]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err == (f"casson: gauss input has {cap + 1} "
                                 f"characters or more, more than the limit "
                                 f"of {cap}\n")
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["big", "gauss", inline[:cap + 1]],
                                  ["tref", "braid", "s1 s1 s1"]])
    code, out = run(capsys, "batch", str(table))
    assert code == 0
    big, tref = out["records"]
    assert big["error"] == err.strip().removeprefix("casson: ")
    assert tref["v2"] == 1


def test_only_polyknot_and_tangle_payloads_name_files(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("3", "s1 s1 s1", "O1+U2+O3+U1+O2+U3+"):
        (tmp_path / name).write_text("not an input")
    for argv in (["--torus", "3"], ["--braid", "s1 s1 s1"],
                 ["--gauss", "O1+U2+O3+U1+O2+U3+"]):
        code, out = run(capsys, "v2", *argv)
        assert code == 0 and out["v2"] == 1


def test_integrate_over_vertex_cap_is_not_sampled(tmp_path, monkeypatch,
                                                  capsys):
    import casson.mcint

    knot = polyknot_from_braid([1, 1, 1], closed=False)
    n = len(knot.vertices)
    path = tmp_path / "tref.json"
    path.write_text(knot.to_json())
    monkeypatch.setattr(cli, "MAX_VERTICES", n - 1)
    _forbid(monkeypatch, casson.mcint, "v2_mc")
    assert main(["integrate", "--knot", str(path), "--samples", "1000"]) \
        == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err == (f"casson: polyknot input has {n} vertices, "
                                 f"more than the limit of {n - 1}\n")


def test_batch_row_at_the_chord_cap(tmp_path, capsys):
    # T(20001,2)'s Gauss code is over csv's default field limit of 131072
    p = MAX_CHORDS
    code_text = cli.torus_knot_2(p).serialize()
    assert 131072 < len(code_text) <= cli.MAX_CHARS
    table = tmp_path / "t.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([["t", "gauss", code_text]])
    code, out = run(capsys, "batch", str(table), "--method", "gauss")
    assert code == 0
    assert out["records"][0]["v2"] == (p * p - 1) // 8 == 50005000


def test_every_reader_looks_its_parser_up_at_call_time(monkeypatch):
    # a tracer rebinds these names in casson.cli; a reader bound at import
    # time would run untraced
    calls = {}

    def counting(name, real):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    parsers = {"gauss": ["parse_gauss_code"], "pd": ["parse_pd_code"],
               "braid": ["from_braid_word"], "torus": ["torus_knot_2"],
               "polyknot": ["project"],
               "tangle": ["parse_tangle", "gauss_of_tangle"]}
    for names in parsers.values():
        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    payloads = {"gauss": "O1+U2+O3+U1+O2+U3+",
                "pd": "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]",
                "braid": "s1 s1 s1", "torus": "3",
                "polyknot": polyknot_from_braid([1, 1, 1],
                                                closed=False).to_json(),
                "tangle": TREFOIL_TANGLE_TEXT}
    assert payloads.keys() == cli.KINDS.keys()
    for kind, names in parsers.items():
        calls.clear()
        cli._read_input(kind, payloads[kind])
        assert calls == dict.fromkeys(names, 1), kind
