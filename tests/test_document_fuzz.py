"""Fuzzing the document layer: one node of a valid corpus entry for Sweedler's
algebra is replaced by an arbitrary JSON value, and ``check`` and
``corpus --dir`` must answer with an exit code (0, 1 or 2), never an
exception."""
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


def _replaced(path, value):
    doc = json.loads(json.dumps(ENTRY))
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
