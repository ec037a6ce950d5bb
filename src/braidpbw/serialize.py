"""JSON documents for bialgebras, subspaces, braided bases, corpus entries
and reports: the one module that turns documents into objects and back.

Scalars travel as strings: rationals as "p/q", cyclotomics with a declared
conductor as '{N:3, poly:"-1-z"}'.  Structure tensors are dense nested
arrays of scalar strings, written by :func:`_dense` and read back by
:func:`_sparse`, which checks every length as it walks.  Integer fields
are JSON integers >= 0 and names are strings.  Reports are dumped with
sorted keys so identical inputs produce byte-identical output.
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
from .reporting import InputError
from .scalars import parse_scalar


@contextmanager
def malformed(what: str, passing=InputError):
    """Lookup, type and value failures in the block become InputError(what: ...);
    the ``passing`` ones, by default the loaders' own InputErrors, pass through."""
    try:
        yield
    except passing:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"{what}: {exc}") from exc


class _ParsedScalars(dict):
    """One document's memo from scalar text to Scalar: each distinct string is parsed once."""

    def __missing__(self, text):
        value = self[text] = parse_scalar(text)
        return value


def _count(value, what: str) -> int:
    """A JSON integer >= 0; a bool, a float or a string is malformed."""
    if type(value) is not int or value < 0:
        raise InputError(f"{what} must be an integer >= 0, got {value!r}")
    return value


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _entries(values, d: int, what: str) -> list:
    """values, which must be a list of exactly d entries."""
    if not isinstance(values, list) or len(values) != d:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise InputError(f"{what}: expected a list of {d} entries, got {got}")
    return values


def _dense(table, d: int, rows: int, legs: int) -> list:
    """A sparse table as nested lists of scalar strings: ``rows`` levels of
    row tuples, then each sparse vector written out with d entries per leg.
    Its keys are ints for one leg and pairs for two."""
    if rows:
        return [_dense(t, d, rows - 1, legs) for t in table]
    out = ["0"] * d ** legs
    for key, c in table.items():
        out[key if legs == 1 else key[0] * d + key[1]] = str(c)
    return out if legs == 1 else [out[k * d:(k + 1) * d] for k in range(d)]


def _sparse(values, d: int, rows: int, legs: int, what: str, parsed: _ParsedScalars):
    """The inverse of :func:`_dense`: every level must hold d entries, and
    zero coefficients are dropped."""
    values = _entries(values, d, what)
    if rows:
        return tuple(_sparse(v, d, rows - 1, legs, what, parsed) for v in values)
    if legs == 1:
        return {i: c for i, c in enumerate(map(parsed.__getitem__, values)) if not c.is_zero()}
    return {(k, l): c for k, line in enumerate(values)
            for l, c in enumerate(map(parsed.__getitem__, _entries(line, d, what)))
            if not c.is_zero()}


def bialgebra_to_json(h: StructureBialgebra) -> dict:
    d = h.dim
    doc = {
        "dim": d,
        "basis": list(h.names),
        "unit": _dense(h.unit, d, 0, 1),
        "mult": _dense(h.mult, d, 2, 1),
        "counit": [str(c) for c in h.counit],
        "comult": _dense(h.comult, d, 1, 2),
        "braiding": _dense(h.braiding.rows, d, 2, 2),
        "antipode": None if h.antipode is None else _dense(h.antipode, d, 1, 1),
        "grading": list(h.grading) if h.grading is not None else None,
        "truncation": h.truncation,
    }
    if h.trunc_grading is not None and h.trunc_grading != h.grading:
        doc["trunc_grading"] = list(h.trunc_grading)
    return doc


def bialgebra_from_json(doc: dict) -> StructureBialgebra:
    with malformed("malformed bialgebra document"):
        d = _count(doc["dim"], "dim")
        names = tuple(_name(x, "basis name") for x in _entries(doc["basis"], d, "basis"))
        if len(set(names)) < d:
            repeated = next(x for i, x in enumerate(names) if x in names[:i])
            raise InputError(f"basis name {repeated!r} is repeated")
        parsed = _ParsedScalars()
        unit = _sparse(doc["unit"], d, 0, 1, "unit", parsed)
        mult = _sparse(doc["mult"], d, 2, 1, "mult", parsed)
        counit = tuple(parsed[x] for x in _entries(doc["counit"], d, "counit"))
        comult = _sparse(doc["comult"], d, 1, 2, "comult", parsed)
        braiding = _sparse(doc["braiding"], d, 2, 2, "braiding", parsed)
        antipode = doc.get("antipode")
        antipode = None if antipode is None else _sparse(antipode, d, 1, 1, "antipode", parsed)
        fields = {key: tuple(_count(x, key) for x in _entries(doc[key], d, key))
                  for key in ("grading", "trunc_grading") if doc.get(key) is not None}
        if doc.get("truncation") is not None:
            fields["truncation"] = _count(doc["truncation"], "truncation")
        return StructureBialgebra(names=names, unit=unit, mult=mult, counit=counit,
                                  comult=comult, braiding=GenericBraiding(braiding),
                                  antipode=antipode, **fields)


def subspace_to_json(sub: Subspace) -> dict:
    return {"ambient_dim": sub.ambient_dim, "rows": _dense(sub.rows, sub.ambient_dim, 1, 1)}


def subspace_from_json(doc: dict, h: StructureBialgebra | None = None) -> Subspace:
    """The span of the document's rows; an absent ``ambient_dim`` is the
    length of the first row, and ``h``, if given, must have that dimension."""
    with malformed("malformed subspace document"):
        rows = doc["rows"]
        if not isinstance(rows, list):
            raise TypeError(f"rows must be a list, got {type(rows).__name__}")
        width = len(rows[0]) if rows and "ambient_dim" not in doc else 0
        ambient_dim = _count(doc.get("ambient_dim", width), "ambient_dim")
        if h is not None and ambient_dim != h.dim:
            raise InputError("subspace ambient dimension does not match the bialgebra")
        parsed = _ParsedScalars()
        return Subspace.span(ambient_dim, [_sparse(row, ambient_dim, 0, 1, "subspace row", parsed)
                                           for row in rows])


def braided_basis_from_json(doc: dict) -> tuple[FiniteAbelianGroup, Bicharacter, GradedBasis]:
    """{"group":{"factors":[...]}, "bichar":[[...]], "basis":[{"name":...,"deg":[...]}]}"""
    with malformed("malformed braided-basis document"):
        group = FiniteAbelianGroup(tuple(_count(n, "factors") for n in doc["group"]["factors"]))
        table = tuple(tuple(parse_scalar(x) for x in row) for row in doc["bichar"])
        chi = Bicharacter(group, table)
        names = tuple(_name(b["name"], "basis name") for b in doc["basis"])
        degrees = tuple(group.normalize(tuple(_count(x, "deg") for x in b["deg"]))
                        for b in doc["basis"])
        return group, chi, GradedBasis(names, degrees)


def corpus_entry_to_json(name: str, h: StructureBialgebra, k: Subspace | None, degree: int,
                         expect: dict) -> dict:
    """A corpus entry: a bialgebra, its subalgebra or None (axioms only), the
    top degree and the recorded expectations."""
    return {"name": name, "bialgebra": bialgebra_to_json(h),
            "sub": None if k is None else subspace_to_json(k),
            "degree": degree, "expect": expect}


def corpus_entry_name(doc: dict, path: str) -> str:
    """The name of the corpus entry read from ``path``."""
    with malformed(f"malformed corpus entry {path}", passing=()):
        return _name(doc["name"], "name")


def corpus_entry_from_json(doc: dict, path: str) -> tuple:
    """(name, h, k, degree, expect) of the corpus entry read from ``path``;
    every error message names the file."""
    name = corpus_entry_name(doc, path)
    with malformed(f"malformed corpus entry {path}", passing=()):
        h = bialgebra_from_json(doc["bialgebra"])
        k = None if doc.get("sub") is None else subspace_from_json(doc["sub"], h)
        degree, expect = _count(doc.get("degree", 0), "degree"), doc.get("expect", {})
        if not isinstance(expect, dict):
            raise TypeError(f"expect must be an object, got {type(expect).__name__}")
        return name, h, k, degree, expect


def coinvariants_to_json(coinv) -> dict:
    """The coinvariant algebra with its five induced tensors."""
    r = coinv.algebra
    d = r.dim
    coact = []
    for b in range(d):
        plane = [["0"] * d for _ in coinv.k_indices]
        for (kt, rr), c in coinv.coaction[b].items():
            plane[kt][rr] = str(c)
        coact.append(plane)
    return {
        "algebra": bialgebra_to_json(r),
        "inclusion": subspace_to_json(coinv.inclusion),
        "k_indices": list(coinv.k_indices),
        "action": _dense(coinv.action, d, 2, 1),
        "coaction": coact,
        "kernel_is_left_ideal": coinv.kernel_is_left_ideal,
        "coradical_matches_grading": coinv.coradical_matches_grading,
    }


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_canonical(path: str, doc) -> None:
    """Write a document as :func:`dumps_canonical` renders it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
