import argparse
import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multicat as mc
from multicat import fixtures as fx
from multicat.cli import COMMANDS, _parser, _read_argv, build_parser, main
from multicat.reversors import search_reversors
from multicat.serialize import serialize
from multicat.stretching import free_weak

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fpath(name):
    return os.path.join(FIXTURE_DIR, name)


def test_validate_ok(capsys):
    assert main(["validate", fpath("square.mset")]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_broken_st(capsys):
    assert main(["validate", fpath("square-broken-st.mset")]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert out[0].startswith("ST color=[1, 2]")


def test_validate_missing_file(capsys):
    assert main(["validate", "nonexistent.mset"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_garbage_file(tmp_path, capsys):
    p = tmp_path / "garbage.mset"
    p.write_text("{oops")
    assert main(["validate", str(p)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_validate_json_format(capsys):
    assert main(["validate", fpath("square-broken-st.mset"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"][0]["axiom"] == "ST"


def test_validate_strict_document(capsys):
    assert main(["validate", fpath("pair-groupoid.mset")]) == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("refl, line", [
    # validate_reflexive_magma: the section law, and no strict UNIT check
    (True, "REFL-SECT color=[] cells=o0 entry=1 polarity=target"),
    # validate_magma: totality on the pullback
    (False, "TOTAL color=[1] cells=o0>o1,o1>o0 composite undefined for direction 1"),
])
def test_validate_magma_document(refl, line, fmt, tmp_path, capsys):
    pg = fx.pair_groupoid(2)
    if refl:
        pg.refl.refl[((), 1)]["o0"] = "o0>o1"
    else:
        pg.refl = None
        del pg.comp[((1,), 1)][("o0>o1", "o1>o0")]
    p = tmp_path / "magma.mset"
    p.write_text(serialize(pg, "magma"))
    assert main(["validate", str(p), "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        (v,) = json.loads(out)["violations"]
        out = f"{v['axiom']} color={v['color']} cells={','.join(v['cells'])} {v['detail']}"
    assert out.strip() == line


def test_validate_reversors_document(capsys):
    assert main(["validate", fpath("pair-groupoid-reversors.mset")]) == 0


@pytest.mark.parametrize("field, value, details", [
    (1, [2], ["entry 2 not in color [1]", "no chain for (1,)"]),
    (2, [], ["0 maps for entries (1,)"]),
])
def test_validate_malformed_reversor_chain_reports_cover(field, value, details, tmp_path, capsys):
    rev = search_reversors(fx.pair_groupoid(2), 0, "minimal")[0]
    doc = json.loads(serialize(rev))
    doc["chains"][0][field] = value
    p = tmp_path / "bad-chain.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["violations"] == [
        {"axiom": "COVER", "color": [1], "cells": [], "detail": d} for d in details
    ]


def test_validate_stretching_document(capsys):
    assert main(["validate", fpath("parallel-edges-free-weak.mset")]) == 0


def test_free_strict_path2(capsys):
    assert main(["free", "strict", fpath("path2.mset"), "--dim", "1", "--size", "10"]) == 0
    out = capsys.readouterr().out
    assert "classes color=[] count=3" in out
    assert "classes color=[1] count=6" in out


def test_free_reflexive_point(capsys):
    assert main(["free", "reflexive", fpath("point.mset"), "--dim", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    counts = [int(line.rsplit("=", 1)[1]) for line in out]
    assert sum(counts) == 4


def test_free_weak_parallel_edges(capsys, tmp_path):
    out_path = tmp_path / "out.mset"
    assert main([
        "free", "weak", fpath("parallel-edges.mset"),
        "--stages", "1", "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    # diagonal pairs of the two degenerate/bracket edges at color [1]
    assert "brackets color=[1, 2] count=2" in out
    assert "stage 1:" in out
    assert main(["validate", str(out_path)]) == 0


def test_free_reports_a_write_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "out.mset"
    assert main(["free", "reflexive", fpath("point.mset"), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out_path}: No such file or directory\n")


@pytest.mark.parametrize("target, reason", [
    (os.path.join("missing", "x.mset"), "No such file or directory"),
    ("", "Is a directory"),
    (os.path.join("file", "x.mset"), "Not a directory"),
])
def test_free_refuses_an_unwritable_target_before_building(target, reason, tmp_path, capsys):
    # the weak completion of path2 at 4 stages builds 23,796 cells
    (tmp_path / "file").write_text("")
    out_path = os.path.join(tmp_path, target)
    argv = ["free", "weak", fpath("path2.mset"), "--stages", "4", "--out", out_path]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot write {out_path}: {reason}\n"


@pytest.mark.parametrize("layer", [mc.MagmaStructure, mc.ReflexiveStructure])
def test_free_strict_builds_from_a_document_base(layer, tmp_path, capsys):
    p = tmp_path / "path2.mset"
    p.write_text(serialize(layer(base=fx.path2())))
    assert main(["free", "strict", fpath("path2.mset")]) == 0
    want = capsys.readouterr().out
    assert main(["free", "strict", str(p)]) == 0
    assert capsys.readouterr().out == want


def test_free_refuses_a_stretching_document(capsys):
    assert main(["free", "strict", fpath("parallel-edges-free-weak.mset")]) == 2
    assert capsys.readouterr().err == "error: free constructions take a multiple-set document\n"


def test_free_reports_a_name_it_cannot_encode(tmp_path, capsys):
    """A lone surrogate parses and validates, but has no UTF-8 encoding."""
    doc = json.loads(serialize(fx.point()))
    doc["cells"] = [[[], ["\ud800"]]]
    in_path = tmp_path / "in.mset"
    in_path.write_text(json.dumps(doc), encoding="ascii")
    assert main(["validate", str(in_path)]) == 0
    out_path = tmp_path / "out.mset"
    out_path.write_text("old", encoding="utf-8")
    assert main(["free", "reflexive", str(in_path), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "surrogates not allowed" in err
    assert out_path.read_text(encoding="utf-8") == "old"


def test_free_weak_cutoff_failure(capsys):
    assert main(["free", "weak", fpath("single-edge.mset"), "--m", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stats_square(capsys):
    assert main(["stats", fpath("square.mset")]) == 0
    out = capsys.readouterr().out
    assert "cells color=[] count=4" in out
    assert "cells color=[1] count=2" in out
    assert "cells color=[2] count=2" in out
    assert "cells color=[1, 2] count=1" in out


def test_stats_empty_document(capsys):
    assert main(["stats", fpath("empty.mset")]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_stats_free_weak_echoes_stage_log(capsys):
    assert main(["stats", fpath("parallel-edges-free-weak.mset")]) == 0
    out = capsys.readouterr().out
    assert "stage 1:" in out
    assert "brackets" in out


def test_stats_json(capsys):
    assert main(["stats", fpath("square.mset"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"]["[1, 2]"] == 1


def test_stats_skips_pairs_where_a_face_is_missing(tmp_path, capsys):
    with open(fpath("square.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["faces"].pop(0)[:3] == [[1], 1, "e0"]
    p = tmp_path / "no-face.mset"
    p.write_text(json.dumps(doc))
    assert main(["stats", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "cells color=[1] count=2" in out
    assert [line for line in out if line.startswith("pairs")] == [
        "pairs [2]/2 count=0", "pairs [1, 2]/1 count=0", "pairs [1, 2]/2 count=0",
    ]
    assert main(["stats", str(p), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["composable_pairs"] == {"[2]/2": 0, "[1, 2]/1": 0, "[1, 2]/2": 0}
    assert payload["cells"]["[1]"] == 2


def test_stats_counts_pairs_without_listing_them(tmp_path, capsys):
    # 2,000 loops on one vertex: 4,000,000 composable pairs, whose list alone
    # would take about 250 MB
    loops = [f"a{i}" for i in range(2000)]
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v"]
    ms.cells[(1,)] = loops
    ms.src[((1,), 1)] = dict.fromkeys(loops, "v")
    ms.tgt[((1,), 1)] = dict.fromkeys(loops, "v")
    p = tmp_path / "loops.mset"
    p.write_text(serialize(ms))
    tracemalloc.start()
    try:
        assert main(["stats", str(p)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "pairs [1]/1 count=4000000" in capsys.readouterr().out.splitlines()
    assert peak < 20_000_000


@pytest.mark.parametrize("flag", ["--m", "--stages"])
def test_free_weak_rejects_negative_flags(flag, tmp_path, capsys):
    out_path = tmp_path / "out.mset"
    with pytest.raises(SystemExit) as exc:
        main(["free", "weak", fpath("point.mset"), flag, "-1", "--out", str(out_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out_path.exists()
    # zero is a valid value, and its document validates
    assert main(["free", "weak", fpath("point.mset"), flag, "0", "--out", str(out_path)]) == 0
    assert main(["validate", str(out_path)]) == 0


@pytest.mark.parametrize("mode, flag, value", [
    ("weak", "--size", "-1"), ("weak", "--dim", "-1"), ("weak", "--budget", "-5"),
    ("strict", "--size", "-1"), ("strict", "--budget", "-5"), ("reflexive", "--dim", "-2"),
])
def test_free_rejects_negative_bounds(mode, flag, value, tmp_path, capsys):
    out_path = tmp_path / "out.mset"
    with pytest.raises(SystemExit) as exc:
        main(["free", mode, fpath("point.mset"), flag, value, "--out", str(out_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= 0, got {value}" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_free_rejects_a_bad_budget_variable(raw, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MULTICAT_BUDGET", raw)
    out_path = tmp_path / "out.mset"
    for mode in ("reflexive", "strict", "weak"):
        assert main(["free", mode, fpath("point.mset"), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: MULTICAT_BUDGET must be an integer >= 0, got {raw!r}\n"
        assert not out_path.exists()
    # a --budget flag is the budget: the variable is not read
    assert main(["free", "strict", fpath("point.mset"), "--budget", "100"]) == 0


@pytest.mark.parametrize("field, value", [("stage_log", "abc"), ("stage_log", [1]), ("m", "x")])
def test_malformed_stretching_field_is_parse_error(field, value, tmp_path, capsys):
    with open(fpath("parallel-edges-free-weak.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = value
    p = tmp_path / "bad-field.mset"
    p.write_text(json.dumps(doc))
    for argv in (["stats", str(p)], ["validate", str(p)], ["diff", str(p), str(p)]):
        assert main(argv) == 2
        assert field in capsys.readouterr().err


def test_diff_identical(capsys):
    assert main(["diff", fpath("square.mset"), fpath("square.mset")]) == 0
    assert capsys.readouterr().out.strip() == "identical"


def test_diff_different(capsys):
    assert main(["diff", fpath("square.mset"), fpath("square-broken-st.mset")]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith(("-", "+", "!")) for line in out.splitlines())


def test_diff_json_format(capsys):
    args = ["diff", fpath("square.mset"), fpath("square-broken-st.mset")]
    assert main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert main(args + ["--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"equal": False, "diffs": lines}
    assert main(["diff", fpath("square.mset"), fpath("square.mset"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"equal": True, "diffs": []}


def test_diff_compares_document_kinds(tmp_path, capsys):
    with open(fpath("path2-free-strict.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["kind"] = "magma"
    p = tmp_path / "as-magma.mset"
    p.write_text(json.dumps(doc))
    assert main(["diff", fpath("path2-free-strict.mset"), str(p)]) == 1
    assert capsys.readouterr().out.splitlines() == ["! kind: 'strict' != 'magma'"]


def test_diff_parse_error(capsys):
    assert main(["diff", fpath("square.mset"), "missing.mset"]) == 2


@pytest.mark.parametrize(
    "name",
    sorted(f for f in os.listdir(FIXTURE_DIR) if f.endswith(".mset")),
)
def test_whole_corpus_exit_codes(name, capsys):
    code = main(["validate", fpath(name)])
    assert code == (1 if "broken" in name else 0)


def test_validate_json_reports_non_cell_key(tmp_path, capsys):
    with open(fpath("pair-groupoid.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["comp"].append([[1], 1, "ghost", "o0>o1", "o0>o1"])
    p = tmp_path / "ghost.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    payload = json.loads(out.out)
    assert [v["axiom"] for v in payload["violations"]] == ["TOTAL"]
    assert payload["violations"][0]["cells"] == ["ghost", "o0>o1"]


@pytest.mark.parametrize("record", [
    [[1], 2, "o0>o1", "o0", "o1"],
    [[1], 1, "ghost", "o0", "o1"],
])
def test_validate_rejects_a_face_record_the_model_cannot_hold(record, tmp_path, capsys):
    with open(fpath("pair-groupoid.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["faces"].append(record)
    p = tmp_path / "bad-face.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: faces record")


def test_validate_rejects_a_stage_of_record_of_no_cell(tmp_path, capsys):
    # the staged scans read stages by cell: a stage of no cell was ignored
    doc = mc.to_document(free_weak(fx.square(), stages=2).stretching)
    doc["stage_of"].append([[1], "ghost", 7])
    p = tmp_path / "ghost-stage.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: stage_of record names 'ghost', which is not a cell"
                       " at color [1]\n")


@pytest.mark.parametrize("flags", [[], ["--strict"]])
def test_validate_reports_a_composite_off_the_pullback(flags, tmp_path, capsys):
    # s(o0>o0) = o0 but t(o0>o1) = o1: the pair does not compose
    with open(fpath("pair-groupoid.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["comp"].append([[1], 1, "o0>o0", "o0>o1", "o0>o0"])
    p = tmp_path / "off-pullback.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), *flags]) == 1
    assert capsys.readouterr().out == (
        "TOTAL color=[1] cells=o0>o0,o0>o1 operands not composable in direction 1\n")


def test_validate_rejects_a_pi_record_of_no_cell(tmp_path, capsys):
    # a projection of no cell was kept through every round trip
    with open(fpath("parallel-edges-free-weak.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["pi"].append([[], "ghost", "v0"])
    p = tmp_path / "ghost-pi.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: pi record names 'ghost', which is not a cell at color []\n"


def test_validate_malformed_color_is_parse_error(tmp_path, capsys):
    with open(fpath("pair-groupoid.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["universe_bound"] = 2
    doc["cells"].append([[2, 1], ["x"]])
    p = tmp_path / "bad-color.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert "bad color" in capsys.readouterr().err


def test_validate_json_reports_bad_direction_key(tmp_path, capsys):
    with open(fpath("pair-groupoid.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["comp"].append([[], 1, "o0", "o0", "o0"])
    p = tmp_path / "bad-direction.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    payload = json.loads(out.out)
    assert [(v["axiom"], v["cells"]) for v in payload["violations"]] == [("TOTAL", ["o0", "o0"])]


@pytest.mark.parametrize("layer", ["magma", "cat"])
def test_validate_stretching_with_missing_face_reports_shape(layer, tmp_path, capsys):
    doc = json.loads(serialize(free_weak(fx.path2(), stages=1).stretching))
    faces = doc[layer]["faces"]
    del faces[next(i for i, rec in enumerate(faces) if rec[:3] == [[1], 1, "(x *1 y)"])]
    p = tmp_path / f"no-face-{layer}.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p), "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    payload = json.loads(out.out)
    assert {v["axiom"] for v in payload["violations"]} == {"SHAPE"}
    assert {(v["axiom"], tuple(v["cells"])) for v in payload["violations"]} == {
        ("SHAPE", ("(x *1 y)",))
    }
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().out.startswith("SHAPE color=[1] cells=(x *1 y)")


def test_parser_is_built_once_and_calls_stay_independent(capsys):
    broken = fpath("square-broken-st.mset")
    assert main(["validate", broken, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["axiom"] for v in payload["violations"]] == ["ST"]
    assert main(["validate", broken]) == 1
    assert capsys.readouterr().out.startswith("ST color=[1, 2]")
    assert main(["validate", fpath("square.mset")]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert _parser() is _parser()
    assert isinstance(build_parser(), argparse.ArgumentParser)


def test_free_reflexive_spends_the_budget(capsys):
    assert main(["free", "reflexive", fpath("point.mset"), "--dim", "2", "--budget", "1"]) == 1
    assert "free reflexive exceeded the work budget of 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["foo", 7])
def test_validate_unknown_reversor_kind_is_parse_error(value, tmp_path, capsys):
    with open(fpath("pair-groupoid-reversors.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["reversor_kind"] = value
    p = tmp_path / "bad-kind.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert "reversor_kind" in capsys.readouterr().err


def test_a_command_runs_with_the_collector_paused(monkeypatch, capsys):
    seen = []

    def record(obj):
        seen.append(gc.isenabled())
        return mc.validate_multiple_set(obj)

    # _validate_any looks the validator up in the cli module at call time
    monkeypatch.setattr("multicat.cli.validate_multiple_set", record)
    assert gc.isenabled()
    assert main(["validate", fpath("point.mset")]) == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["validate", fpath("point.mset")], 0),
    (["validate", fpath("square-broken-st.mset")], 1),
    (["free", "reflexive", fpath("point.mset"), "--dim", "2", "--budget", "1"], 1),
    (["validate", "nonexistent.mset"], 2),
])
def test_main_restores_the_collector(argv, code, enabled, capsys):
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_when_an_exception_escapes(enabled, monkeypatch):
    def fail(obj):
        raise RuntimeError("escapes main")

    monkeypatch.setattr("multicat.cli.validate_multiple_set", fail)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["validate", fpath("point.mset")])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.fixture
def unknown_field(tmp_path):
    with open(fpath("point.mset"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["refl"] = []
    p = tmp_path / "unknown-field.mset"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("argv, code", [
    (["validate", fpath("square.mset")], 0),
    (["validate", fpath("square-broken-st.mset"), "--format", "json"], 1),
    (["free", "reflexive", fpath("point.mset"), "--dim", "2", "--out", "{tmp}/r.mset"], 0),
    (["free", "strict", fpath("path2.mset"), "--out", "{tmp}/s.mset"], 0),
    (["free", "weak", fpath("parallel-edges.mset"), "--stages", "2", "--out", "{tmp}/w.mset"], 0),
    (["stats", fpath("parallel-edges-free-weak.mset")], 0),
    (["diff", fpath("square.mset"), fpath("square-broken-st.mset")], 1),
    (["free", "reflexive", fpath("point.mset"), "--dim", "2", "--budget", "1"], 1),
    (["free", "weak", fpath("single-edge.mset"), "--m", "0"], 1),
    (["validate", "nonexistent.mset"], 2),
    (["validate", "{tmp}"], 2),
    (["validate", "{unknown_field}"], 2),
])
def test_commands_make_no_reference_cycles(argv, code, unknown_field, tmp_path, capsys):
    """The premise of main's collector pause: a command, run with the
    collector off, leaves nothing that only the collector would free."""
    argv = [a.format(tmp=tmp_path, unknown_field=unknown_field) for a in argv]
    main(["validate", fpath("point.mset")])  # the parser is built once
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()


def _parser_exit(argv, capsys):
    """The exit code, stdout and stderr of ``_parser().parse_args(argv)``,
    which exits on help and on every usage error."""
    with pytest.raises(SystemExit) as exc:
        _parser().parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["--help"],
    ["validate", "-h"],
    ["free", "weak", "p.mset", "--help"],
    [],
    ["check", "p.mset"],
    ["validate", "p.mset", "--colour", "json"],
    ["validate", "p.mset", "--format"],
    ["free", "weak", "p.mset", "--out"],
    ["validate", "p.mset", "--format", "xml"],
    ["free", "lax", "p.mset"],
    ["free", "weak"],
    ["diff", "a.mset"],
    ["validate", "a.mset", "b.mset"],
    ["free", "weak", "p.mset", "--size", "abc"],
    ["free", "weak", "p.mset", "--m", "-1"],
    ["free", "weak", "p.mset", "--m=-1"],
])
def test_help_and_usage_errors_are_argparse_s(argv, capsys):
    want = _parser_exit(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == want
    assert want[0] == (0 if {"-h", "--help"} & set(argv) else 2)


@pytest.mark.parametrize("argv", [
    ["validate", "--format=json", "{broken}"],
    ["validate", "--form", "json", "{broken}"],
    ["validate", "--format", "json", "{broken}"],
    ["validate", "--format", "text", "--format", "json", "{broken}"],
])
def test_argparse_forms_of_an_option_read_as_the_plain_one(argv, capsys):
    broken = fpath("square-broken-st.mset")
    assert main(["validate", broken, "--format", "json"]) == 1
    want = capsys.readouterr()
    assert main([a.format(broken=broken) for a in argv]) == 1
    assert capsys.readouterr() == want


def test_options_may_come_before_positionals(capsys):
    point = fpath("point.mset")
    assert main(["free", "reflexive", point, "--dim", "2", "--budget", "50"]) == 0
    want = capsys.readouterr()
    assert main(["free", "--budget", "50", "reflexive", "--dim", "2", point]) == 0
    assert capsys.readouterr() == want
    assert main(["validate", "--strict", "--format", "json", fpath("pair-groupoid.mset")]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "violations": []}


# words that argparse reads in its own way: help, "--", "-", negative
# numbers, "=", abbreviations, refused values, and every word of the grammar
_ODD = sorted(COMMANDS) + sorted({o for c in COMMANDS.values() for o in c.options}) + [
    "lax", "xml", "abc", "a b", "", "-h", "--help", "--", "-", "-1", "--format=json", "--form",
    "--m=0", "p.mset"]


def _words(arg):
    return st.sampled_from(sorted(arg.choices or ("0", "2", "p.mset")))


@st.composite
def _argvs(draw):
    """A command or another word, then, in any order, its positionals (some
    missing), its options (some repeated) with values (some odd) and odd
    words."""
    head = draw(st.sampled_from(sorted(COMMANDS) + ["-h", "p.mset"]))
    command = COMMANDS.get(head, COMMANDS["free"])
    units = [[draw(_words(a))] for a in command.positionals if draw(st.integers(0, 7))]
    units += draw(st.lists(st.sampled_from(list(command.options.values())).flatmap(
        lambda a: st.one_of(_words(a), _words(a), _words(a), st.sampled_from(_ODD)).map(
            lambda v: [a.name, v])), max_size=4))
    units += draw(st.lists(st.sampled_from(_ODD).map(lambda w: [w]), max_size=2))
    return [head, *(w for unit in draw(st.permutations(units)) for w in unit)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_argvs())
@example(["free", "weak", "p.mset", "--out", "-h"])
@example(["free", "weak", "p.mset", "--out", "--"])
@example(["free", "weak", "p.mset", "--out", "-"])
@example(["free", "weak", "p.mset", "--out", "--dim"])
@example(["free", "weak", "--", "p.mset"])
@example(["free", "weak", "p.mset", "--dim", "-1"])
@example(["validate", ""])
@example(["validate", "--strict", "--strict", "--format", "text", "--format", "json", "p.mset"])
def test_the_table_reads_a_list_as_argparse_does_or_leaves_it_to_argparse(argv):
    if (args := _read_argv(argv)) is not None:
        assert args == _parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    # the installed-script step of the CI workflow
    ["free", "weak", "path2.mset", "--stages", "2", "--out", "p.mset"],
    ["validate", "p.mset"],
    ["validate", "--format", "json", "p.mset"],
    ["stats", "p.mset"],
    ["diff", "p.mset", "p.mset"],
    ["free", "strict", "path2.mset", "--size", "6", "--out", "s.mset"],
    ["validate", "--strict", "s.mset"],
    ["free", "reflexive", "point.mset", "--dim", "2", "--out", "r.mset"],
    # the requests of perfbench/workloads.py
    ["free", "weak", "path2.mset", "--stages", "4", "--size", "12", "--out", "w.mset"],
    ["validate", "d.mset", "--format", "json"],
    ["validate", "d.mset", "--strict"],
    ["free", "reflexive", "d.mset", "--dim", "2", "--out", "r.mset"],
    ["free", "strict", "d.mset", "--dim", "1", "--size", "9", "--out", "s.mset"],
])
def test_the_table_reads_every_list_the_tools_send(argv):
    args = _read_argv(argv)
    assert args is not None
    assert args == _parser().parse_args(argv)
