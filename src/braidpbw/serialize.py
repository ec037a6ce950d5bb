"""JSON serialization for bialgebras, subspaces, braided bases, and reports.

Scalars travel as strings: rationals as "p/q", cyclotomics with a declared
conductor as '{N:3, poly:"-1-z"}'.  Structure tensors are dense nested
arrays of scalar strings; reports are dumped with sorted keys so identical
inputs produce byte-identical output.
"""
from __future__ import annotations

import json
from contextlib import contextmanager

from .braided_space import (
    Bicharacter,
    FiniteAbelianGroup,
    GenericBraiding,
    GradedBasis,
)
from .findim_hopf import StructureBialgebra
from .linalg import Subspace
from .multilinear import Vec
from .reporting import InputError
from .scalars import ZERO, Scalar, parse_scalar


@contextmanager
def malformed(what: str):
    """Lookup, type and value failures in the block become InputError(what: ...)."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _s(x: Scalar) -> str:
    return str(x)


def _vec_to_dense(vec: Vec, n: int) -> list[str]:
    out = ["0"] * n
    for i, c in vec.items():
        out[i] = _s(c)
    return out


class _ParsedScalars(dict):
    """One document's memo from scalar text to Scalar: each distinct string is parsed once."""

    def __missing__(self, text):
        value = self[text] = parse_scalar(text)
        return value


def _dense_to_vec(values, parsed: _ParsedScalars) -> Vec:
    out: Vec = {}
    for i, text in enumerate(values):
        c = parsed[text]
        if not c.is_zero():
            out[i] = c
    return out


def _require_shape(values, d: int, depth: int, what: str) -> None:
    """values must nest lists of exactly d entries, depth levels deep."""
    if not isinstance(values, list) or len(values) != d:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise InputError(f"{what}: expected a list of {d} entries, got {got}")
    if depth > 1:
        for v in values:
            _require_shape(v, d, depth - 1, what)


def bialgebra_to_json(h: StructureBialgebra) -> dict:
    d = h.dim
    doc = {
        "dim": d,
        "basis": list(h.names),
        "unit": _vec_to_dense(h.unit, d),
        "mult": [[_vec_to_dense(h.mult[i][j], d) for j in range(d)] for i in range(d)],
        "counit": [_s(c) for c in h.counit],
        "comult": [
            [[_s(h.comult[i].get((j, k), ZERO)) for k in range(d)] for j in range(d)]
            for i in range(d)
        ],
        "braiding": _braiding_dense(h.braiding),
        "antipode": None,
        "grading": list(h.grading) if h.grading is not None else None,
        "truncation": h.truncation,
    }
    if h.antipode is not None:
        doc["antipode"] = [_vec_to_dense(h.antipode[i], d) for i in range(d)]
    if h.trunc_grading is not None and h.trunc_grading != h.grading:
        doc["trunc_grading"] = list(h.trunc_grading)
    return doc


def _braiding_dense(braiding: GenericBraiding) -> list:
    d = braiding.dim
    out = [[[["0" for _ in range(d)] for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for i, row in enumerate(braiding.rows):
        for j, entry in enumerate(row):
            for (k, l), c in entry.items():
                out[i][j][k][l] = _s(c)
    return out


def bialgebra_from_json(doc: dict) -> StructureBialgebra:
    with malformed("malformed bialgebra document"):
        d = int(doc["dim"])
        names = tuple(str(x) for x in doc["basis"])
        if len(names) != d:
            raise InputError("basis length does not match dim")
        for key, depth in (("unit", 1), ("counit", 1), ("mult", 3), ("comult", 3),
                           ("braiding", 4)):
            _require_shape(doc[key], d, depth, key)
        for key, depth in (("antipode", 2), ("grading", 1), ("trunc_grading", 1)):
            if doc.get(key) is not None:
                _require_shape(doc[key], d, depth, key)
        parsed = _ParsedScalars()
        unit = _dense_to_vec(doc["unit"], parsed)
        mult = tuple(
            tuple(_dense_to_vec(doc["mult"][i][j], parsed) for j in range(d)) for i in range(d)
        )
        counit = tuple(parsed[x] for x in doc["counit"])
        comult = []
        for i in range(d):
            entry: dict = {}
            for j in range(d):
                for k in range(d):
                    c = parsed[doc["comult"][i][j][k]]
                    if not c.is_zero():
                        entry[(j, k)] = c
            comult.append(entry)
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                entry = {}
                for k in range(d):
                    for l in range(d):
                        c = parsed[doc["braiding"][i][j][k][l]]
                        if not c.is_zero():
                            entry[(k, l)] = c
                row.append(entry)
            rows.append(row)
        antipode = None
        if doc.get("antipode") is not None:
            antipode = tuple(_dense_to_vec(doc["antipode"][i], parsed) for i in range(d))
        grading = tuple(int(x) for x in doc["grading"]) if doc.get("grading") is not None else None
        trunc_grading = None
        if doc.get("trunc_grading") is not None:
            trunc_grading = tuple(int(x) for x in doc["trunc_grading"])
        truncation = int(doc["truncation"]) if doc.get("truncation") is not None else None
        return StructureBialgebra(
            names=names,
            unit=unit,
            mult=mult,
            counit=counit,
            comult=tuple(comult),
            braiding=GenericBraiding(rows),
            antipode=antipode,
            grading=grading,
            truncation=truncation,
            trunc_grading=trunc_grading,
        )


def subspace_to_json(sub: Subspace) -> dict:
    return {
        "ambient_dim": sub.ambient_dim,
        "rows": [_vec_to_dense(row, sub.ambient_dim) for row in sub.rows],
    }


def subspace_from_json(doc: dict, h: StructureBialgebra | None = None) -> Subspace:
    with malformed("malformed subspace document"):
        rows = doc["rows"]
        ambient_dim = int(doc.get("ambient_dim") or (len(rows[0]) if rows else 0))
        if h is not None and ambient_dim != h.dim:
            raise InputError("subspace ambient dimension does not match the bialgebra")
        for row in rows:
            _require_shape(row, ambient_dim, 1, "subspace row")
        parsed = _ParsedScalars()
        return Subspace.span(ambient_dim, [_dense_to_vec(row, parsed) for row in rows],
                             ambient=h)


def braided_basis_from_json(doc: dict) -> tuple[FiniteAbelianGroup, Bicharacter, GradedBasis]:
    """{"group":{"factors":[...]}, "bichar":[[...]], "basis":[{"name":...,"deg":[...]}]}"""
    with malformed("malformed braided-basis document"):
        group = FiniteAbelianGroup(tuple(int(n) for n in doc["group"]["factors"]))
        table = tuple(tuple(parse_scalar(x) for x in row) for row in doc["bichar"])
        chi = Bicharacter(group, table)
        names = tuple(str(b["name"]) for b in doc["basis"])
        degrees = tuple(group.normalize(tuple(int(x) for x in b["deg"])) for b in doc["basis"])
        return group, chi, GradedBasis(names, degrees)


def coinvariants_to_json(coinv) -> dict:
    """The coinvariant algebra with its five induced tensors."""
    r = coinv.algebra
    d = r.dim
    kn = len(coinv.k_indices)
    action = [[_vec_to_dense(coinv.action[t][b], d) for b in range(d)] for t in range(kn)]
    coact = []
    for b in range(d):
        plane = [["0"] * d for _ in range(kn)]
        for (kt, rr), c in coinv.coaction[b].items():
            plane[kt][rr] = _s(c)
        coact.append(plane)
    return {
        "algebra": bialgebra_to_json(r),
        "inclusion": subspace_to_json(coinv.inclusion),
        "k_indices": list(coinv.k_indices),
        "action": action,
        "coaction": coact,
        "kernel_is_left_ideal": coinv.kernel_is_left_ideal,
        "coradical_matches_grading": coinv.coradical_matches_grading,
    }


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
