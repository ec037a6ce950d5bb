"""End-to-end runs: axiom checks, filtration, associated graded,
coinvariants, collapse diagnosis, bosonization, and the PBW verdict,
assembled into one nested report document."""
from __future__ import annotations

from copy import deepcopy

from .coinvariants import (
    bosonization_check,
    check_braiding_collapse,
    compute_R,
    is_central,
    projection_pi,
)
from .filtration import (
    associated_graded,
    check_commutator_filtration,
    hopf_filtration,
)
from .findim_hopf import (
    StructureBialgebra,
    check_commutator_coproduct_all,
    run_all_checks,
)
from .linalg import Subspace
from .pbw import pbw_verdict
from .reporting import BraidpbwError, InputError, PipelineError, require_degree
from .scalars import ZERO


def check_report(h: StructureBialgebra) -> dict:
    reports = run_all_checks(h)
    doc = {name: rep.to_json() for name, rep in reports.items()}
    if h.antipode is None:
        doc["antipode"] = {"subject": "antipode", "ok": None, "checked": 0,
                           "skipped": 0, "violations": [], "note": "no antipode stored"}
    doc["all_ok"] = all(rep.ok for rep in reports.values())
    return doc


def require_axioms(h: StructureBialgebra) -> dict:
    """The axiom report of an input bialgebra; an input that fails any of
    its checks is refused as a failure of the ``axioms`` stage."""
    axioms = check_report(h)
    if not axioms["all_ok"]:
        raise PipelineError("axioms", "input bialgebra fails its axiom checks")
    return axioms


def _stage(stage: str, fn, *args):
    """fn(*args), with a deliberate failure reported as a failure of the stage."""
    try:
        return fn(*args)
    except BraidpbwError as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(h: StructureBialgebra, k_sub: Subspace, degree: int) -> dict:
    """Chain the relative-filtration analysis for a bialgebra and subalgebra."""
    require_degree(degree)
    if h.antipode is None:
        raise InputError("the pipeline needs a bialgebra with an antipode")
    report: dict = {}

    report["axioms"] = require_axioms(h)

    report["commutator_coproduct"] = check_commutator_coproduct_all(h).to_json()

    ladder = _stage("filtration", hopf_filtration, h, k_sub)
    if not ladder.exhaustive:
        raise PipelineError("filtration",
                            "ladder stabilised before exhausting the bialgebra "
                            "(the subalgebra misses part of the coradical)")
    gr = _stage("associated-graded", associated_graded, ladder)
    # associated_graded refuses a ladder whose steps are not categorical or
    # not stable under the antipode, so a finished report holds both true
    report["filtration"] = {"dims": ladder.dims, "exhaustive": True,
                            "categorical_steps": True, "antipode_stable": True}

    commfil = check_commutator_filtration(ladder)
    if commfil is not None:
        report["commutator_filtration"] = commfil.to_json()

    # H graded by its ladder is its own gr H, whose tables are checked above
    gr_checks = deepcopy(report["axioms"]) if gr is h else check_report(gr)
    report["gr"] = {
        "dim": gr.dim,
        "dims_by_degree": [len(gr.degree_indices(n)) for n in range(gr.max_degree() + 1)],
        "axioms": gr_checks,
        "c_commutative": is_central(gr, range(gr.dim)),
    }
    if not gr_checks["all_ok"]:
        raise PipelineError("associated-graded", "graded output fails axiom checks")

    report["projection"] = projection_pi(gr).to_json()

    coinv = _stage("coinvariants", compute_R, gr)
    r_alg = coinv.algebra
    first_positive = next((r for r in range(r_alg.dim) if r_alg.degree(r) > 0), None)
    c_r_first = "0"
    if first_positive is not None:
        entry = r_alg.braiding.rows[first_positive][first_positive]
        c_r_first = str(entry.get((first_positive, first_positive), ZERO))
    report["R"] = {
        "dim": r_alg.dim,
        "dims_by_degree": [len(r_alg.degree_indices(n)) for n in range(r_alg.max_degree() + 1)],
        "names": list(r_alg.names),
        "c_r_symmetric": r_alg.braiding.symmetric,
        "c_r_first": c_r_first,
        "kernel_is_left_ideal": coinv.kernel_is_left_ideal,
        "coradical_matches_grading": coinv.coradical_matches_grading,
    }

    report["centrality"] = check_braiding_collapse(coinv)

    bos_ok, bos_degrees = bosonization_check(coinv)
    report["bosonization"] = {"bijective": bos_ok, "degrees": bos_degrees}

    report["pbw"] = _stage("pbw", pbw_verdict, r_alg, degree).to_json()
    return report


def flat_summary(report: dict) -> dict:
    """Flatten a finished :func:`run_pipeline` report into the fields corpus
    expectations use."""
    return {
        "axioms": "pass" if report["axioms"]["all_ok"] else "fail",
        "filtration_dims": report["filtration"]["dims"],
        "exhaustive": report["filtration"]["exhaustive"],
        "r_dim": report["R"]["dim"],
        "c_r_symmetric": report["R"]["c_r_symmetric"],
        "c_r_first": report["R"]["c_r_first"],
        "i_central": report["centrality"]["i_central"],
        "pi_cocentral": report["centrality"]["pi_cocentral"],
        "c_r_equals_c": report["centrality"]["c_r_equals_c"],
        "gr_c_commutative": report["gr"]["c_commutative"],
        "bosonization": report["bosonization"]["bijective"],
        "pbw_verdict": report["pbw"]["verdict"],
        "first_failure_degree": report["pbw"]["first_failure_degree"],
        "pbw_dims": report["pbw"]["dims"],
    }


def compare_expectations(expect: dict, summary: dict) -> list[str]:
    """Expected key/value pairs that the summary misses."""
    mismatches = []
    for key, want in expect.items():
        got = summary.get(key)
        if got != want:
            mismatches.append(f"{key}: expected {want!r}, got {got!r}")
    return mismatches
