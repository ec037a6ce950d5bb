import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from braidpbw.braided_space import GenericBraiding
from braidpbw.cli import main
from braidpbw.corpus import sweedler_h4, taft3
from braidpbw.filtration import subspace_from_indices
from braidpbw.findim_hopf import run_all_checks
from braidpbw.multilinear import vec_equal
from braidpbw.reporting import degree_cap_default
from braidpbw.scalars import ONE, Scalar
from braidpbw.serialize import (
    InputError,
    bialgebra_from_json,
    bialgebra_to_json,
    braided_basis_from_json,
    dumps_canonical,
    subspace_from_json,
    subspace_to_json,
)


SUPER_BASIS = {
    "group": {"factors": [2]},
    "bichar": [["-1"]],
    "basis": [{"name": "x", "deg": [0]}, {"name": "th", "deg": [1]}],
}

# symmetric, since chi(x, y) chi(y, x) = 1, but chi(x, y) = zeta_3 has no order
# dividing 2 on the group Z/2 x Z/2
VALUE_ORDER_BASIS = {
    "group": {"factors": [2, 2]},
    "bichar": [["1", '{N:3, poly:"z"}'], ['{N:3, poly:"z^2"}', "1"]],
    "basis": [{"name": "x", "deg": [1, 0]}, {"name": "y", "deg": [0, 1]}],
}


def test_bialgebra_roundtrip(h4, taft):
    for h in (h4, taft):
        doc = bialgebra_to_json(h)
        back = bialgebra_from_json(json.loads(json.dumps(doc)))
        assert back.names == h.names
        for i in range(h.dim):
            for j in range(h.dim):
                assert vec_equal(back.mult[i][j], h.mult[i][j])
            assert vec_equal(back.comult[i], h.comult[i])
            assert vec_equal(back.antipode[i], h.antipode[i])
        assert all(r.ok for r in run_all_checks(back).values())


def test_trunc_grading_roundtrip(corpus):
    from braidpbw.filtration import associated_graded, hopf_filtration

    h = corpus["solvable_pair"]
    yidx = tuple(i for i, nm in enumerate(h.names)
                 if nm == "1" or (nm.startswith("y") and "x" not in nm))
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, yidx)))
    doc = bialgebra_to_json(gr)
    assert "trunc_grading" in doc
    back = bialgebra_from_json(doc)
    assert back.trunc_grading == gr.trunc_grading
    assert all(r.ok for r in run_all_checks(back).values())


def test_subspace_roundtrip(h4):
    sub = subspace_from_indices(h4, (0, 1))
    doc = subspace_to_json(sub)
    back = subspace_from_json(doc, h4)
    assert back == sub


def test_subspace_absent_ambient_dim_is_the_row_length(h4):
    back = subspace_from_json({"rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}, h4)
    assert back == subspace_from_indices(h4, (0, 1))


def test_subspace_dim_mismatch(h4):
    with pytest.raises(InputError):
        subspace_from_json({"rows": [["1", "0"]]}, h4)


def test_braided_basis_parse():
    group, chi, basis = braided_basis_from_json(SUPER_BASIS)
    assert group.invariant_factors == (2,)
    assert basis.names == ("x", "th")
    assert chi.value((1,), (1,)) == -1


def test_malformed_documents():
    with pytest.raises(InputError):
        bialgebra_from_json({"dim": 2})
    with pytest.raises(InputError):
        braided_basis_from_json({"group": {}, "bichar": [], "basis": []})


def test_dumps_canonical_sorted():
    text = dumps_canonical({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc) if isinstance(doc, dict) else doc)
    return str(path)


def test_cli_check_ok(tmp_path, capsys):
    path = _write(tmp_path, "h4.json", bialgebra_to_json(sweedler_h4()))
    assert main(["check", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "algebra: ok" in out


def test_cli_check_corrupted_is_exit_1(tmp_path, capsys):
    doc = bialgebra_to_json(sweedler_h4())
    doc["mult"][2][1] = doc["mult"][1][2]  # force x*g = g*x
    path = _write(tmp_path, "bad.json", doc)
    assert main(["check", "--input", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_check_malformed_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "junk.json", "{not json")
    assert main(["check", "--input", path]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_pipeline_h4(tmp_path, capsys):
    h = sweedler_h4()
    hpath = _write(tmp_path, "h4.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json", subspace_to_json(subspace_from_indices(h, (0, 1))))
    rpath = str(tmp_path / "report.json")
    code = main(["pipeline", "--input", hpath, "--sub", kpath,
                 "--degree", "3", "--report", rpath])
    assert code == 0
    report = json.loads(open(rpath).read())
    assert report["filtration"]["dims"] == [2, 4]
    assert report["R"]["dim"] == 2
    assert report["R"]["c_r_first"] == "-1"
    assert report["bosonization"]["bijective"] is True
    assert report["pbw"]["verdict"] == "PBW_TYPE_TRUE"


@pytest.mark.parametrize("command", ["check", "pipeline"])
def test_cli_format_json_prints_the_report(tmp_path, capsys, command):
    argv = _h4_pipeline(tmp_path, "2")
    if command == "check":
        argv = ["check", *argv[1:3]]
    rpath = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--report", str(rpath)]) == 0
    out = capsys.readouterr().out
    assert out == rpath.read_text()
    assert json.loads(out)["axioms" if command == "pipeline" else "all_ok"]


def test_cli_degree_default_reads_the_cap_on_each_call(tmp_path, monkeypatch):
    h = sweedler_h4()
    hpath = _write(tmp_path, "h4.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json", subspace_to_json(subspace_from_indices(h, (0, 1))))
    rpath = str(tmp_path / "report.json")
    dims = []
    for cap in ("3", "5"):
        monkeypatch.setenv("BRAIDPBW_DEGREE_CAP", cap)
        assert main(["pipeline", "--input", hpath, "--sub", kpath, "--report", rpath]) == 0
        dims.append(json.loads(open(rpath).read())["pbw"]["dims"])
    # the default top degree is the cap minus 2, as the cap stood at each call
    assert [len(d) for d in dims] == [2, 4]


def test_degree_cap_default(monkeypatch):
    monkeypatch.delenv("BRAIDPBW_DEGREE_CAP", raising=False)
    assert degree_cap_default() == 8
    monkeypatch.setenv("BRAIDPBW_DEGREE_CAP", "5")
    assert degree_cap_default() == 5


def test_cli_pipeline_default_degree_below_zero(tmp_path, capsys, monkeypatch):
    # the default top degree is the cap minus 2; a cap of 1 leaves none to run
    argv = _h4_pipeline(tmp_path, "0")[:-2]
    monkeypatch.setenv("BRAIDPBW_DEGREE_CAP", "1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "BRAIDPBW_DEGREE_CAP" in err and "--degree" in err


@pytest.mark.parametrize("value", ["abc", "-1"])
@pytest.mark.parametrize("command", ["pipeline", "commutator"])
def test_cli_bad_degree_cap_is_an_input_error(tmp_path, command, value):
    if command == "pipeline":  # no --degree: the default reads the cap
        h = sweedler_h4()
        args = ["--input", _write(tmp_path, "h4.json", bialgebra_to_json(h)), "--sub",
                _write(tmp_path, "k.json", subspace_to_json(subspace_from_indices(h, (0, 1))))]
    else:
        args = ["--input", _write(tmp_path, "basis.json", SUPER_BASIS),
                "--left", "th", "--right", "th"]
    proc = subprocess.run(
        [sys.executable, "-m", "braidpbw.cli", command, *args],
        capture_output=True, text=True, env={**os.environ, "BRAIDPBW_DEGREE_CAP": value},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:") and "BRAIDPBW_DEGREE_CAP" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_pipeline_rejects_bad_subalgebra(tmp_path, capsys):
    h = sweedler_h4()
    hpath = _write(tmp_path, "h4.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json",
                   subspace_to_json(subspace_from_indices(h, (0, 2))))
    assert main(["pipeline", "--input", hpath, "--sub", kpath, "--degree", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_grk_coinv_pbw_chain(tmp_path, capsys):
    h = taft3()
    hpath = _write(tmp_path, "taft.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json", subspace_to_json(subspace_from_indices(h, (0, 1, 2))))
    grpath = str(tmp_path / "gr.json")
    assert main(["grk", "--input", hpath, "--sub", kpath, "--out", grpath]) == 0
    rpath = str(tmp_path / "r.json")
    assert main(["coinv", "--input", grpath, "--out", rpath]) == 0
    rdoc = json.loads(open(rpath).read())
    assert rdoc["algebra"]["dim"] == 3
    assert {"algebra", "inclusion", "action", "coaction", "k_indices"} <= set(rdoc)
    ralg = _write(tmp_path, "ralg.json", rdoc["algebra"])
    pbwpath = str(tmp_path / "pbw.json")
    assert main(["pbw", "--input", ralg, "--degree", "3", "--report", pbwpath]) == 0
    pdoc = json.loads(open(pbwpath).read())
    assert pdoc["verdict"] == "PBW_TYPE_FALSE"
    assert pdoc["first_failure_degree"] == 2
    # one serializer: the pbw report is the pbw block of the pipeline report
    pipepath = str(tmp_path / "pipeline.json")
    assert main(["pipeline", "--input", hpath, "--sub", kpath, "--degree", "3",
                 "--report", pipepath]) == 0
    assert json.loads(open(pipepath).read())["pbw"] == pdoc


# sha256 of the documents the grk -> coinv -> pbw chain writes: grk --out,
# coinv --out and pbw --report on coinv's algebra, at the given degree
CLI_CHAIN_SHA256 = {
    "taft3": {
        "grk": "7a176c9f181dad8e205fc8b6b91a9193de12f9e5f676f4f681f4528b7985a1e9",
        "coinv": "24c428524c1b9539b79ad68109c9338749eedf7b3f309e04405eb98052162ad8",
        "pbw": "77a45087aa52c59eb5787e5b871bec01ce63474218de5e93da44154b9391113d",
    },
    "poly_plane_3": {
        "grk": "e7bc965ca37c58bf0331fcbee984c5d3a275ff5d7a2924bfa87d867a4f082195",
        "coinv": "25e21ceadd135bc086a230c2289ade30fe227f9d13da7a71b624e78cbebc9726",
        "pbw": "cdb3f46409cb84a55d35ba48d51cbd8018f1c82c73d66ed6e76b57d4dad964dc",
    },
}


@pytest.mark.parametrize("name", sorted(CLI_CHAIN_SHA256))
def test_cli_chain_document_digests(tmp_path, capsys, name):
    from braidpbw.corpus import poly_plane

    h, sub = {"taft3": (taft3(), (0, 1, 2)), "poly_plane_3": (poly_plane(3), (0,))}[name]
    hpath = _write(tmp_path, "h.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json", subspace_to_json(subspace_from_indices(h, sub)))
    paths = {key: str(tmp_path / f"{key}.json") for key in ("grk", "coinv", "pbw")}
    assert main(["grk", "--input", hpath, "--sub", kpath, "--out", paths["grk"]]) == 0
    assert main(["coinv", "--input", paths["grk"], "--out", paths["coinv"]]) == 0
    ralg = _write(tmp_path, "ralg.json", json.loads(open(paths["coinv"]).read())["algebra"])
    assert main(["pbw", "--input", ralg, "--degree", "3", "--report", paths["pbw"]]) == 0
    for key, path in paths.items():
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == CLI_CHAIN_SHA256[name][key], key


def test_cli_word_commands(tmp_path, capsys):
    path = _write(tmp_path, "basis.json", SUPER_BASIS)
    assert main(["nf", "--input", path, "th", "x", "th"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["nf", "--input", path, "x x th"]) == 0
    assert capsys.readouterr().out.strip() == "x^2*th"
    assert main(["hilbert", "--input", path, "--degree", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 2 2 2 2"
    assert main(["commutator", "--input", path, "--left", "th", "--right", "th"]) == 0
    assert capsys.readouterr().out.strip() == "(2)*th*th"
    # distinct letters do not commute in the free algebra, only in the quotient
    assert main(["commutator", "--input", path, "--left", "x", "--right", "th"]) == 0
    assert capsys.readouterr().out.strip() == "x*th + (-1)*th*x"
    # the empty word is the unit, which commutes with everything
    assert main(["commutator", "--input", path, "--left", "", "--right", "th x"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_commutator_reads_the_degree_cap(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "basis.json", SUPER_BASIS)
    monkeypatch.setenv("BRAIDPBW_DEGREE_CAP", "5")
    assert main(["commutator", "--input", path, "--left", "x x x", "--right", "th th th"]) == 2
    assert capsys.readouterr().err == "input error: product degree 6 exceeds cap 5\n"


def test_cli_nf_unknown_generator(tmp_path, capsys):
    path = _write(tmp_path, "basis.json", SUPER_BASIS)
    assert main(["nf", "--input", path, "zz"]) == 2


def test_cli_nf_checks_the_word_before_building(tmp_path, capsys, monkeypatch):
    import braidpbw.cli as cli

    def unreachable(*args):
        raise AssertionError("normal forms built before the word was checked")

    monkeypatch.setattr(cli, "normal_forms", unreachable)
    path = _write(tmp_path, "basis.json", SUPER_BASIS)
    # a word over the degree cap whose last letter is unknown: the letter is named
    assert main(["nf", "--input", path, "x " * 29 + "zz"]) == 2
    assert capsys.readouterr().err == "input error: unknown generator in word: 'zz'\n"


def test_cli_nf_and_hilbert_read_the_degree_cap(tmp_path, capsys, monkeypatch):
    # over the default cap of 8 both exit 2 (ERROR_PATHS); a raised cap admits them
    path = _write(tmp_path, "basis.json", SUPER_BASIS)
    monkeypatch.setenv("BRAIDPBW_DEGREE_CAP", "12")
    assert main(["hilbert", "--input", path, "--degree", "9"]) == 0
    assert capsys.readouterr().out == "1 2 2 2 2 2 2 2 2 2\n"
    assert main(["nf", "--input", path, "x " * 9 + "th"]) == 0
    assert capsys.readouterr().out == "x^9*th\n"


def test_cli_corpus_single_entry(capsys):
    assert main(["corpus", "--entry", "sweedler_h4"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_corpus_unknown_entry(capsys):
    assert main(["corpus", "--entry", "nonsense"]) == 2
    assert "unknown corpus entry" in capsys.readouterr().err


def test_cli_corpus_dir_roundtrip(tmp_path, capsys):
    cdir = str(tmp_path / "corpus")
    for name in ("kc2", "sweedler_h4", "taft3"):
        assert main(["corpus", "--entry", name, "--write-dir", cdir]) == 0
    capsys.readouterr()
    assert main(["corpus", "--dir", cdir]) == 0
    out = capsys.readouterr().out
    assert "sweedler_h4" in out and "taft3" in out and "FAIL" not in out


def test_cli_corpus_dir_selects_entry(tmp_path, capsys):
    cdir = str(tmp_path / "corpus")
    for name in ("kc2", "sweedler_h4"):
        assert main(["corpus", "--entry", name, "--write-dir", cdir]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["corpus", "--dir", cdir, "--entry", "kc2", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "kc2" in out and "sweedler_h4" not in out
    assert sorted(json.loads(report.read_text())["entries"]) == ["kc2"]


def test_cli_corpus_edited_expectation_fails(tmp_path, capsys):
    cdir = tmp_path / "corpus"
    assert main(["corpus", "--entry", "sweedler_h4", "--write-dir", str(cdir)]) == 0
    capsys.readouterr()
    doc = json.loads((cdir / "sweedler_h4.json").read_text())
    doc["expect"]["r_dim"] = 5
    (cdir / "sweedler_h4.json").write_text(dumps_canonical(doc))
    assert main(["corpus", "--dir", str(cdir)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_corpus_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["corpus", "--dir", str(empty)]) == 2


def test_package_root_holds_only_the_error_classes():
    import braidpbw
    import braidpbw.reporting

    assert braidpbw.BraidpbwError is braidpbw.reporting.BraidpbwError
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, braidpbw.scalars; print('braidpbw.pipeline' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "braidpbw.cli", "corpus", "--entry", "kc2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "kc2" in proc.stdout


def _grow(values):
    values.append(values[0])


def _shrink(values):
    values.pop()


@pytest.mark.parametrize("edit", [
    lambda doc: _grow(doc["unit"]),
    lambda doc: _shrink(doc["unit"]),
    lambda doc: _grow(doc["counit"]),
    lambda doc: _grow(doc["mult"][0]),
    lambda doc: _grow(doc["mult"][1][2]),
    lambda doc: _shrink(doc["comult"][1][0]),
    lambda doc: _grow(doc["braiding"][0][1][2]),
    lambda doc: _grow(doc["antipode"][3]),
    lambda doc: doc.update(grading=[0] * 3),
    lambda doc: doc.update(truncation=2, trunc_grading=[0] * 5),
    lambda doc: doc.update(truncation=-1),
    lambda doc: doc.update(grading=[0, 0, 1, -1]),
    lambda doc: doc.update(truncation=2, trunc_grading=[0, -1, 1, 1]),
], ids=["unit-long", "unit-short", "counit-long", "mult-row-long", "mult-entry-long",
        "comult-short", "braiding-long", "antipode-long", "grading-short",
        "trunc-grading-long", "truncation-negative", "grading-negative",
        "trunc-grading-negative"])
def test_cli_check_wrong_length_arrays_exit_2(tmp_path, capsys, edit):
    doc = bialgebra_to_json(sweedler_h4())  # dim 4
    edit(doc)
    path = _write(tmp_path, "bad.json", doc)
    assert main(["check", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [_grow, _shrink], ids=["long", "short"])
def test_cli_pipeline_wrong_length_subspace_rows_exit_2(tmp_path, capsys, edit):
    h = sweedler_h4()
    hpath = _write(tmp_path, "h4.json", bialgebra_to_json(h))
    sub = subspace_to_json(subspace_from_indices(h, (0, 1)))
    edit(sub["rows"][1])
    kpath = _write(tmp_path, "k.json", sub)
    assert main(["pipeline", "--input", hpath, "--sub", kpath, "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: subspace row") and err.count("\n") == 1


TWO_GENERATORS = {
    "group": {"factors": [2]},
    "bichar": [["1"]],
    "basis": [{"name": "x", "deg": [0]}, {"name": "y", "deg": [1]}],
}


def _h4_doc(**changes):
    doc = bialgebra_to_json(sweedler_h4())
    doc.update(changes)
    return doc


def _corpus_dir(tmp_path, *docs):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    for n, doc in enumerate(docs, 1):
        (cdir / f"entry{n if n > 1 else ''}.json").write_text(json.dumps(doc))
    return ["corpus", "--dir", str(cdir)]


def _h4_pipeline(tmp_path, degree):
    h = sweedler_h4()
    hpath = _write(tmp_path, "h4.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json", subspace_to_json(subspace_from_indices(h, (0, 1))))
    return ["pipeline", "--input", hpath, "--sub", kpath, "--degree", degree]


def _h4_counit(text):
    doc = _h4_doc()
    doc["counit"][0] = text
    return doc


def _h4_entry(**fields):
    return dict({"name": "h4", "bialgebra": _h4_doc()}, **fields)


def _h4_idempotent_g():
    """Sweedler's H4 with g.g = g instead of 1, so that its checks fail."""
    h = sweedler_h4()
    g = h.names.index("g")
    mult = [list(row) for row in h.mult]
    mult[g][g] = {g: ONE}
    return bialgebra_to_json(dataclasses.replace(h, mult=tuple(map(tuple, mult))))


def _plane_coproduct_5():
    """poly_plane(2) with the coefficient of 1 (x) x in Delta(x) set to 5."""
    from braidpbw.corpus import poly_plane

    h = poly_plane(2)
    x = h.names.index("x")
    comult = list(h.comult)
    comult[x] = {**comult[x], (0, x): Scalar.from_rational(5)}
    return bialgebra_to_json(dataclasses.replace(h, comult=tuple(comult)))


def _broken_plane_gr():
    """The associated graded of poly_plane(2) with an extra x (x) x term in
    Delta(x), so that its coalgebra checks fail."""
    from braidpbw.corpus import poly_plane
    from braidpbw.filtration import associated_graded, hopf_filtration

    h = poly_plane(2)
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, (0,))))
    x = gr.names.index("x")
    comult = list(gr.comult)
    comult[x] = {**comult[x], (x, x): ONE}
    return bialgebra_to_json(dataclasses.replace(gr, comult=tuple(comult)))


def _reversed_plane():
    """poly_plane(2) on its basis in reverse order, so that degrees fall."""
    from braidpbw.corpus import poly_plane
    from test_shared_tables import _reversed_basis

    return bialgebra_to_json(_reversed_basis(poly_plane(2)))


ERROR_PATHS = {
    # id: (argv from tmp_path, exit code, start of stderr with {tmp} for tmp_path)
    "commutator-over-degree-cap": (
        lambda tmp: ["commutator", "--input", _write(tmp, "b.json", TWO_GENERATORS),
                     "--left", "x x x x x", "--right", "y y y y y"],
        2, "input error: product degree 10 exceeds cap 8"),
    "corpus-dir-unknown-entry": (
        lambda tmp: _corpus_dir(tmp, _h4_entry()) + ["--entry", "nosuch"],
        2, "unknown corpus entry 'nosuch'"),
    "corpus-dir-repeated-name": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(), _h4_entry(expect={"pbw_verdict": "PBW_TYPE_FALSE"})),
        2, "input error: corpus entries {tmp}/corpus/entry.json and {tmp}/corpus/entry2.json "
           "share the name 'h4'"),
    "corpus-entry-without-name": (
        lambda tmp: _corpus_dir(tmp, {"bialgebra": _h4_doc()}),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: 'name'"),
    "corpus-entry-is-a-list": (
        lambda tmp: _corpus_dir(tmp, [1, 2]),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "),
    "pbw-negative-degree": (
        lambda tmp: ["pbw", "--input", _write(tmp, "h4.json", _h4_doc()), "--degree", "-2"],
        2, "input error: degree must be >= 0, got -2"),
    "pipeline-negative-degree": (
        lambda tmp: _h4_pipeline(tmp, "-3"),
        2, "input error: degree must be >= 0, got -3"),
    "hilbert-negative-degree": (
        lambda tmp: ["hilbert", "--input", _write(tmp, "b.json", SUPER_BASIS), "--degree", "-1"],
        2, "input error: degree must be >= 0, got -1"),
    "conductor-zero": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_counit('{N:0, poly:"z"}'))],
        2, "input error: malformed bialgebra document: conductor must be >= 1, got 0"),
    "malformed-scalar-string": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_counit("spam"))],
        2, "input error: malformed bialgebra document: malformed scalar string 'spam'"),
    "scalar-entry-is-a-number": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_counit(1))],
        2, "input error: malformed bialgebra document: malformed scalar string 1"),
    "scalar-entry-is-a-list": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_counit(["1"]))],
        2, "input error: malformed bialgebra document: "),
    "corpus-entry-expect-is-a-list": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(expect=[])),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "expect must be an object, got list"),
    "corpus-entry-degree-is-a-string": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(degree="2")),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "degree must be an integer >= 0, got '2'"),
    "corpus-entry-negative-degree": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(degree=-1)),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "degree must be an integer >= 0, got -1"),
    "corpus-entry-name-is-a-list": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(name=["h4"])),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "name must be a string, got list"),
    "corpus-entry-sub-row-too-short": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(sub={"ambient_dim": 4, "rows": [["1", "0", "0"]]})),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "subspace row: expected a list of 4 entries, got 3"),
    "corpus-entry-bad-scalar": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(bialgebra=_h4_counit("spam"))),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "malformed bialgebra document: malformed scalar string 'spam'"),
    "corpus-entry-sub-is-a-string": (
        lambda tmp: _corpus_dir(tmp, _h4_entry(sub="span(1, g)")),
        2, "input error: malformed corpus entry {tmp}/corpus/entry.json: "
           "malformed subspace document: "),
    "nf-unknown-generator": (
        lambda tmp: ["nf", "--input", _write(tmp, "b.json", SUPER_BASIS), "x", "zz"],
        2, "input error: unknown generator in word: 'zz'"),
    "commutator-unknown-generator": (
        lambda tmp: ["commutator", "--input", _write(tmp, "b.json", SUPER_BASIS),
                     "--left", "x", "--right", "th zz"],
        2, "input error: unknown generator in word: 'zz'"),
    "hilbert-invalid-bicharacter": (
        lambda tmp: ["hilbert", "--input", _write(tmp, "b.json", VALUE_ORDER_BASIS), "--degree", "3"],
        2, "input error: invalid bicharacter:"),
    "nf-invalid-bicharacter": (
        lambda tmp: ["nf", "--input", _write(tmp, "b.json", VALUE_ORDER_BASIS), "y", "x"],
        2, "input error: invalid bicharacter:"),
    "hilbert-non-symmetric": (
        lambda tmp: ["hilbert", "--input", _write(tmp, "b.json", dict(
            SUPER_BASIS, bichar=[['{N:3, poly:"z"}']])), "--degree", "2"],
        2, "input error: braiding is not symmetric"),
    "commutator-invalid-bicharacter": (
        lambda tmp: ["commutator", "--input", _write(tmp, "b.json", dict(
            SUPER_BASIS, bichar=[['{N:3, poly:"z"}']])), "--left", "x", "--right", "th"],
        2, "input error: invalid bicharacter:"),
    "pbw-not-connected": (
        lambda tmp: ["pbw", "--input", _write(tmp, "h4.json", _h4_doc()), "--degree", "2"],
        2, "input error: PBW analysis needs a connected target"),
    "dim-is-a-float": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_doc(dim=4.5))],
        2, "input error: dim must be an integer >= 0, got 4.5"),
    "grading-entry-is-a-float": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_doc(grading=[0, 0.5, 1, 1]))],
        2, "input error: grading must be an integer >= 0, got 0.5"),
    "truncation-is-a-bool": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_doc(truncation=True))],
        2, "input error: truncation must be an integer >= 0, got True"),
    "basis-name-is-not-a-string": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_doc(basis=[1, "g", "x", "gx"]))],
        2, "input error: basis name must be a string, got int"),
    "check-repeated-basis-name": (
        lambda tmp: ["check", "--input", _write(tmp, "h4.json", _h4_doc(basis=["1", "g", "g", "gx"]))],
        2, "input error: basis name 'g' is repeated"),
    "pipeline-repeated-basis-name": (
        lambda tmp: ["pipeline", "--input", _write(tmp, "h.json", _h4_doc(basis=["1", "x", "x", "gx"]))]
        + _h4_pipeline(tmp, "2")[3:],
        2, "input error: basis name 'x' is repeated"),
    "subspace-ambient-dim-is-a-string": (
        lambda tmp: _h4_pipeline(tmp, "2")[:4] + [
            _write(tmp, "k.json", {"ambient_dim": "4", "rows": [["1", "0", "0", "0"]]}),
            "--degree", "2"],
        2, "input error: ambient_dim must be an integer >= 0, got '4'"),
    "braided-basis-factor-is-a-string": (
        lambda tmp: ["hilbert", "--input", _write(tmp, "b.json", dict(
            SUPER_BASIS, group={"factors": ["2"]})), "--degree", "2"],
        2, "input error: factors must be an integer >= 0, got '2'"),
    "hilbert-over-degree-cap": (
        lambda tmp: ["hilbert", "--input", _write(tmp, "b.json", SUPER_BASIS), "--degree", "9"],
        2, "input error: degree 9 exceeds cap 8"),
    "nf-over-degree-cap": (
        lambda tmp: ["nf", "--input", _write(tmp, "b.json", SUPER_BASIS), "x " * 9],
        2, "input error: degree 9 exceeds cap 8"),
    "coinv-ungraded": (
        lambda tmp: ["coinv", "--input", _write(tmp, "h4.json", _h4_doc(grading=None)),
                     "--out", str(tmp / "r.json")],
        2, "input error: input must be graded"),
    "pipeline-no-antipode": (
        lambda tmp: ["pipeline", "--input", _write(tmp, "h4.json", _h4_doc(antipode=None)),
                     "--sub", _write(tmp, "k.json", subspace_to_json(
                         subspace_from_indices(sweedler_h4(), (0, 1)))), "--degree", "2"],
        2, "input error: the pipeline needs a bialgebra with an antipode"),
    "coinv-input-fails-axioms": (
        lambda tmp: ["coinv", "--input", _write(tmp, "gr.json", _broken_plane_gr()),
                     "--out", str(tmp / "r.json")],
        1, "error: [axioms] input bialgebra fails its axiom checks"),
    "grk-input-fails-axioms": (
        lambda tmp: ["grk", "--input", _write(tmp, "h4.json", _h4_idempotent_g()),
                     "--sub", _write(tmp, "k.json", subspace_to_json(
                         subspace_from_indices(sweedler_h4(), (0, 1)))),
                     "--out", str(tmp / "gr.json")],
        1, "error: [axioms] input bialgebra fails its axiom checks"),
    "pbw-input-fails-axioms": (
        lambda tmp: ["pbw", "--input", _write(tmp, "plane.json", _plane_coproduct_5()),
                     "--degree", "2", "--report", str(tmp / "pbw.json")],
        1, "error: [axioms] input bialgebra fails its axiom checks"),
    "coinv-unsorted-basis": (
        lambda tmp: ["coinv", "--input", _write(tmp, "plane.json", _reversed_plane()),
                     "--out", str(tmp / "r.json")],
        2, "input error: parent basis is not sorted by degree"),
    "coinv-no-antipode": (
        lambda tmp: ["coinv", "--input", _write(tmp, "h4.json", _h4_doc(antipode=None)),
                     "--out", str(tmp / "r.json")],
        2, "input error: the graded bialgebra needs an antipode"),
}


# carry the validation report
MULTI_LINE = {"commutator-invalid-bicharacter", "hilbert-invalid-bicharacter", "nf-invalid-bicharacter"}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_cli_error_paths(tmp_path, capsys, case):
    argv, code, head = ERROR_PATHS[case]
    args = argv(tmp_path)
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(head.format(tmp=tmp_path))
    assert "Traceback" not in err
    assert case in MULTI_LINE or err.count("\n") == 1
    # a refused command writes no output file
    assert "--out" not in args or not os.path.exists(args[args.index("--out") + 1])


class _FailsBraidEquation(GenericBraiding):
    """A braiding whose braid-equation verdict is False, whatever its rows."""
    satisfies_braid_equation = False


def test_cli_braid_equation_failure_exits_1(tmp_path, capsys, monkeypatch):
    import braidpbw.pbw as pbw
    from braidpbw.corpus import poly_line

    path = _write(tmp_path, "line.json", bialgebra_to_json(poly_line(2)))
    # the braiding induced on the generator space is built in pbw
    monkeypatch.setattr(pbw, "GenericBraiding", _FailsBraidEquation)
    assert main(["pbw", "--input", path, "--degree", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: induced braiding on the generator space fails the braid equation\n")


def test_pbw_stage_failure_names_the_stage(tmp_path, capsys, monkeypatch):
    import braidpbw.pbw as pbw
    from braidpbw.corpus import poly_plane
    from braidpbw.pipeline import run_pipeline
    from braidpbw.reporting import PipelineError

    h = poly_plane(2)
    k = subspace_from_indices(h, (0,))
    monkeypatch.setattr(pbw, "GenericBraiding", _FailsBraidEquation)
    with pytest.raises(PipelineError) as info:
        run_pipeline(h, k, 2)
    assert info.value.stage == "pbw"
    hpath = _write(tmp_path, "plane.json", bialgebra_to_json(h))
    kpath = _write(tmp_path, "k.json", subspace_to_json(k))
    assert main(["pipeline", "--input", hpath, "--sub", kpath, "--degree", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: [pbw] induced braiding on the generator space fails the braid equation\n")


def test_every_exception_class_derives_from_one_base():
    import importlib
    import inspect
    import pkgutil

    import braidpbw
    from braidpbw.reporting import BraidpbwError

    classes = set()
    for info in pkgutil.iter_modules(braidpbw.__path__):
        module = importlib.import_module(f"braidpbw.{info.name}")
        classes |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException) and cls.__module__.startswith("braidpbw")}
    assert len(classes) >= 7
    for cls in classes:
        assert issubclass(cls, BraidpbwError), cls
        assert cls.__module__ == "braidpbw.reporting", cls
    assert issubclass(InputError, ValueError)


def _scalar_strings(values):
    if isinstance(values, list):
        for v in values:
            yield from _scalar_strings(v)
    elif isinstance(values, str):
        yield values


def test_loaders_parse_each_distinct_scalar_once(monkeypatch):
    import braidpbw.serialize as serialize

    h = taft3()
    doc = json.loads(json.dumps(bialgebra_to_json(h)))
    sub = json.loads(json.dumps(subspace_to_json(subspace_from_indices(h, (0, 1, 2)))))
    calls: list[str] = []
    real = serialize.parse_scalar

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(serialize, "parse_scalar", counting)
    memoised = bialgebra_from_json(doc)
    texts = [t for key in ("unit", "mult", "counit", "comult", "braiding", "antipode")
             for t in _scalar_strings(doc[key])]
    assert sorted(calls) == sorted(set(texts)) and len(texts) > 10 * len(calls)
    calls.clear()
    k = subspace_from_json(sub, memoised)
    assert sorted(calls) == sorted(set(_scalar_strings(sub["rows"])))

    class Unmemoised(dict):
        def __missing__(self, text):
            return serialize.parse_scalar(text)

    monkeypatch.setattr(serialize, "_ParsedScalars", Unmemoised)
    calls.clear()
    plain = bialgebra_from_json(doc)
    assert len(calls) == len(texts)
    assert dumps_canonical(bialgebra_to_json(memoised)) == dumps_canonical(bialgebra_to_json(plain))
    assert subspace_from_json(sub, plain) == k
