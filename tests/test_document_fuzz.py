"""Fuzzing the document layer: one node of a valid corpus entry for Sweedler's
algebra is replaced by an arbitrary JSON value, and ``check`` and
``corpus --dir`` must answer with an exit code (0, 1 or 2), never an
exception.  Likewise one node of a valid braided-basis document over
Q(zeta_3), for ``hilbert``, ``nf`` and ``commutator``."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw.cli import main
from braidpbw.corpus import corpus_entries
from braidpbw.filtration import subspace_from_indices
from braidpbw.serialize import corpus_entry_to_json

SWEEDLER = next(e for e in corpus_entries() if e.name == "sweedler_h4")
H4 = SWEEDLER.build()
ENTRY = json.loads(json.dumps(corpus_entry_to_json(
    SWEEDLER.name, H4, subspace_from_indices(H4, SWEEDLER.sub_indices), SWEEDLER.degree,
    dict(SWEEDLER.expect))))


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


PATHS = list(_paths(ENTRY))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | st.sampled_from(["0", "1", "-1", "1/2", '{N:4, poly:"z"}', "gx"]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=12)


def _replaced(path, value, document=ENTRY):
    doc = json.loads(json.dumps(document))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _exit_code(argv) -> int:
    """main's exit code; an exception escapes and fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _run(doc, tmp):
    entries = Path(tmp, "corpus")
    entries.mkdir()
    (entries / "entry.json").write_text(json.dumps(doc))
    return _exit_code(["corpus", "--dir", str(entries)])


def test_the_unedited_entry_passes(tmp_path):
    assert _run(ENTRY, tmp_path) == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(PATHS), JSON_VALUES)
def test_one_replaced_node_gives_an_exit_code(path, value):
    doc = _replaced(path, value)
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(doc, tmp) in (0, 1, 2)
        if path[:1] == ("bialgebra",):
            bialgebra = Path(tmp, "h4.json")
            bialgebra.write_text(json.dumps(doc["bialgebra"]))
            assert _exit_code(["check", "--input", str(bialgebra)]) in (0, 1, 2)


# two generators of degrees (1, 0) and (0, 1) in Z/3 x Z/3, braided by
# zeta_3 one way and zeta_3^2 the other: a symmetric braiding
ZETA3_BASIS = {
    "group": {"factors": [3, 3]},
    "bichar": [["1", '{N:3, poly:"z"}'], ['{N:3, poly:"z^2"}', "1"]],
    "basis": [{"name": "x", "deg": [1, 0]}, {"name": "y", "deg": [0, 1]}],
}
BASIS_PATHS = list(_paths(ZETA3_BASIS))

# small integers and small conductors only: a group factor or a conductor N
# builds the N-th cyclotomic field, and no cap bounds N yet.  Scalars,
# names and integers come as often as any other JSON value, so that many
# edited documents still parse.
BASIS_VALUES = st.one_of(
    st.integers(-2, 12),
    st.sampled_from(["0", "1", "-1", "1/2", "x", "y", '{N:3, poly:"z"}', '{N:3, poly:"z^2"}',
                     '{N:4, poly:"z"}', '{N:6, poly:"z^2"}', '{N:12, poly:"z^5"}']),
    st.recursive(
        st.none() | st.booleans() | st.integers(-2, 12)
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=6))


def _basis_commands(path):
    return (["hilbert", "--input", path, "--degree", "3"],
            ["nf", "--input", path, "y", "x", "x"],
            ["commutator", "--input", path, "--left", "y x", "--right", "x"])


def test_the_unedited_braided_basis_passes(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(ZETA3_BASIS))
    assert [_exit_code(argv) for argv in _basis_commands(str(path))] == [0, 0, 0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(BASIS_PATHS), BASIS_VALUES)
def test_one_replaced_node_of_a_braided_basis_gives_an_exit_code(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        document = Path(tmp, "basis.json")
        document.write_text(json.dumps(_replaced(path, value, ZETA3_BASIS)))
        for argv in _basis_commands(str(document)):
            assert _exit_code(argv) in (0, 1, 2)
