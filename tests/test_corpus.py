"""The corpus builders: their structure constants pinned by digest, the
Taft algebras beyond n = 3 as negative controls, and the demo and corpus
scripts run end to end."""
import hashlib
import os
import subprocess
import sys

import pytest

from braidpbw import corpus
from braidpbw.filtration import subspace_from_indices
from braidpbw.pbw import PBW_TYPE_FALSE
from braidpbw.pipeline import run_pipeline
from braidpbw.serialize import bialgebra_to_json, dumps_canonical
from test_acceptance import CORPUS_REPORT_SHA256
from test_checker_oracle import _quantum_plane

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of dumps_canonical(bialgebra_to_json(h)) for each builder call
# "name arg ..." (T6 is truncation 6, N3 the cube roots of unity): every
# structure constant, recorded while the coproducts and antipodes were still
# derived by hand for each algebra and the diagonal symmetric algebras were
# still straightened by rewriting; a different digest is a different algebra
STRUCTURE_SHA256 = {
    "group_algebra_c2": "ac5a64a8f997124c4b9c3645b3aaff31b4d9d172df7c49c03c40c6484a5d2e51",
    "sweedler_h4": "504d85d26f17d0f588f313cfb9b2386cfca8af401c2e3305bf471d20c85b16ec",
    "taft3": "7a176c9f181dad8e205fc8b6b91a9193de12f9e5f676f4f681f4528b7985a1e9",
    "poly_line T0": "cb3804c01c4ba46ed876e4f1fcfc3c4de035d9353b816f2182306fc70128832d",
    "poly_line T1": "01ddf4cb22989c7c4b2c5788a25e6ce278bdcd7f80312118f5ac7714d35a0c48",
    "poly_line T2": "3a3824af1aa4d9ff9ae41af9b99169a3e42a8a0203e84939665b301657290540",
    "poly_line T3": "f222579d8b299ee6e6bb37cd5ea25f96bdd44868cee556aaccdaf73b70c14588",
    "poly_line T4": "f273d4249f5c3dbd8b47d0379bac14d272ff895ebbf1c8a28a8346a52d04c701",
    "poly_line T5": "8ece1a9de5158e7f1b27851b40c2b26eee3f67c9e7a07eec62bb80599926de68",
    "poly_line T6": "a6ad6a0edb3058a766a6a8e3423899befac8c7bdbac5c4b0f52476eda7f64943",
    "poly_plane T0": "cb3804c01c4ba46ed876e4f1fcfc3c4de035d9353b816f2182306fc70128832d",
    "poly_plane T1": "acfa28e772d18fae446deb71c2f8edf3047cb7ecd1f99162d4ed190d05fe5707",
    "poly_plane T2": "af585c0f74e908f69f7ac9cb809c4ac56b3eede4443b6488fed9d174698dcaa0",
    "poly_plane T3": "e7bc965ca37c58bf0331fcbee984c5d3a275ff5d7a2924bfa87d867a4f082195",
    "poly_plane T4": "5e446baa5f1cec38da620b371ffdfcb9f9d6b2becca9dae695ab8df49d9fda44",
    "poly_plane T5": "13a9d9350f217c8eeda5b20c0e29dd4c0dfce3e1da3c602d34629739f69ff5fc",
    "poly_plane T6": "7d165841b5e0b18465248e7ceb3528f9078b63870f15281ca1202d1cb1291285",
    "super_line T0": "cb3804c01c4ba46ed876e4f1fcfc3c4de035d9353b816f2182306fc70128832d",
    "super_line T1": "5e453c2c85e0201aa88c69fccfe937e6ebe5c85815784fe60e08886e771b475d",
    "super_line T2": "4825530b44862ccbf29ea54942214a1f18483648b7a87356ee6f865b7b868979",
    "super_line T3": "d726816f5c818586a5a3e147f5a5ac67262df935efa2707e5f915018538e28d6",
    "super_line T4": "c7a4db18c4c23040731850bb63c01a4b5e32685b7bb7f32a72857721a9fb5d79",
    "super_line T5": "decf1a1026900407004b609e3d7bb336abb60802ebaca16a098a09b44e87b0e7",
    "super_line T6": "6e89727defe5d35d360b7fd685f770c99768029bdf0f848fafdab4e4a652bc03",
    "color_plane T0": "cb3804c01c4ba46ed876e4f1fcfc3c4de035d9353b816f2182306fc70128832d",
    "color_plane T1": "6dc0730f22753b7d9ede66a9a815ed8914f981257d5fc6c75ddf44f5ea29ed67",
    "color_plane T2": "3920e0d38fa20d48ba3ab6dad715a85ebf2fb9e017cfe3cafe81029aec9adf57",
    "color_plane T3": "e5ba0a09c13891dbeda741f78226c77571460299d3001ddfc5969c452d852b28",
    "color_plane T4": "d2410a6eb2a9d463360df1ed54ea051119f8d322f38ed3a9e5239a74460a6c7d",
    "color_plane T5": "afa541a1d8ae9d36ba2e2075eeacac65847ce30eb6f640e4a36eeeab0af09d07",
    "color_plane T6": "f43759788746aa14936558f150d7b954eb8cc4b76a107e7516dd2bcbf4e70d93",
    "solvable_pair T0": "cb3804c01c4ba46ed876e4f1fcfc3c4de035d9353b816f2182306fc70128832d",
    "solvable_pair T1": "ef45575809c362e8ebfac2fe960d889c74ca57d7cd3f855cf31d2a65720006a3",
    "solvable_pair T2": "38738bc047e10826f9a7cb64ef386a8a27d7bcf3d0edbc795c7b64419ec49e35",
    "solvable_pair T3": "15e6ccfaa786413519b1fc6eeeef13ec71bb8c159b2eeaf979218053e34ed92e",
    "solvable_pair T4": "611e4ebfeeb848a3719f2ba9fa34b184686f300fbc9f405662e162f1c4fa94ad",
    "solvable_pair T5": "d18a6f378d27863d4435942e6cbcfb8177e9d951cecff7cc1fc8b8d150965aef",
    "solvable_pair T6": "cd0c2a574227681ff4887ebea589844de33e04ad9317a0a8439fef16f365d3db",
    "quantum_plane N3 T2": "f693f239a21c70317f973a2ede579f947f5414b2578e35546e21dc94ffd858db",
    "quantum_plane N4 T2": "ecd24153c503be14a475c51e4c0c29f371dfd703ee5d40d61e4592df5554891d",
    "quantum_plane N12 T2": "59fe2f8f6ce1cf9feaf6861a5502a6ffe263ef79550e6a5ca81a56ef58aab4d0",
}


def _build(key: str):
    name, *args = key.split()
    build = _quantum_plane if name == "quantum_plane" else getattr(corpus, name)
    return build(*(int(a[1:]) for a in args))


@pytest.mark.parametrize("key", list(STRUCTURE_SHA256))
def test_structure_constants_match_recorded_digest(key):
    text = dumps_canonical(bialgebra_to_json(_build(key)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STRUCTURE_SHA256[key]


def test_sweedler_is_taft_at_two():
    h4, t2 = bialgebra_to_json(corpus.sweedler_h4()), bialgebra_to_json(corpus.taft(2))
    assert t2.pop("basis") == ["1", "g", "x", "g*x"]
    assert h4.pop("basis") == ["1", "g", "x", "gx"]
    assert h4 == t2


def test_solvable_pair_y_indices_name_the_y_powers():
    for t in range(7):
        names = corpus.solvable_pair(t).names
        ys = tuple(i for i, nm in enumerate(names) if nm == "1" or set(nm) <= set("y^0123456789"))
        assert corpus.solvable_pair_y_indices(t) == ys


@pytest.mark.parametrize("n", [4, 5])
def test_taft_negative_control(n):
    """T_n over K = span(1, g, ..., g^(n-1)): the axioms hold, the induced
    braiding on R is not symmetric, and the PBW verdict fails at degree 2."""
    h = corpus.taft(n)
    report = run_pipeline(h, subspace_from_indices(h, tuple(range(n))), 3)
    assert report["axioms"]["all_ok"]
    assert report["filtration"]["dims"] == [n * (b + 1) for b in range(n)]
    assert report["R"]["c_r_symmetric"] is False
    assert report["pbw"]["verdict"] == PBW_TYPE_FALSE
    assert report["pbw"]["first_failure_degree"] == 2


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env)


def test_demo_script_runs():
    proc = _run_script("relative_pbw_demo.py")
    assert proc.returncode == 0, proc.stderr
    sections = {s.split()[0]: s for s in proc.stdout.split("== ")[1:]}
    assert "PBW verdict         PBW_TYPE_TRUE" in sections["sweedler_h4"]
    assert "PBW_TYPE_FALSE   first failure at degree 2" in sections["taft3"]


def test_run_corpus_script_writes_the_recorded_report(tmp_path):
    report = tmp_path / "report.json"
    proc = _run_script("run_corpus.py", str(report))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CORPUS_REPORT_SHA256
