"""Command-line front end.

Subcommands:
  check       axiom checkers on a bialgebra JSON file
  pipeline    filtration / graded / coinvariants / PBW chain for (H, K)
  corpus      run the built-in corpus against its recorded expectations
  nf          normal form of a word in the braided symmetric algebra
  commutator  braided commutator of two words in the free algebra
  hilbert     graded dimensions of the braided symmetric algebra
  grk         write the associated graded bialgebra of (H, K)
  coinv       write the coinvariant algebra of a graded bialgebra
  pbw         PBW report for a connected graded bialgebra

Exit codes: 0 success; 1 a check, an expectation or a named stage failed;
2 malformed input, or an argument beyond a limit.  A traceback is an
engine bug.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .braided_space import GenericBraiding, diagonal_braiding
from .corpus import corpus_entries
from .coinvariants import compute_R
from .filtration import associated_graded, hopf_filtration, subspace_from_indices
from .pbw import pbw_document, pbw_verdict
from .pipeline import check_report, compare_expectations, flat_summary, run_pipeline
from .reporting import BraidpbwError, InputError
from .scalars import ONE
from .serialize import (
    bialgebra_from_json,
    bialgebra_to_json,
    braided_basis_from_json,
    coinvariants_to_json,
    dumps_canonical,
    load_json_file,
    malformed,
    subspace_from_json,
    subspace_to_json,
)
from .symmetric_algebra import monomial_str, normal_form, normal_forms, require_symmetric
from .tensor_algebra import TensorAlgebra, degree_cap_default

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(doc, args) -> None:
    text = dumps_canonical(doc)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(text)


def cmd_check(args) -> int:
    h = bialgebra_from_json(load_json_file(args.input))
    doc = check_report(h)
    _emit(doc, args)
    if args.format == "text":
        for name in ("algebra", "coalgebra", "bialgebra", "antipode"):
            entry = doc.get(name)
            if entry is None:
                continue
            status = {True: "ok", False: "FAIL", None: "skipped"}[entry["ok"]]
            print(f"{name}: {status} ({entry['checked']} checks, {entry['skipped']} skipped)")
            for v in entry["violations"][:10]:
                print(f"  {v['axiom']} at {tuple(v['witness'])}: {v['lhs']} != {v['rhs']}")
    return EXIT_OK if doc["all_ok"] else EXIT_FAIL


def cmd_pipeline(args) -> int:
    h = bialgebra_from_json(load_json_file(args.input))
    k = subspace_from_json(load_json_file(args.sub), h)
    degree = degree_cap_default() - 2 if args.degree is None else args.degree
    report = run_pipeline(h, k, degree)
    _emit(report, args)
    if args.format == "text":
        summary = flat_summary(report)
        for key in sorted(summary):
            print(f"{key}: {summary[key]}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    entries = corpus_entries()
    if args.dir:
        names = sorted(os.listdir(args.dir)) if os.path.isdir(args.dir) else []
        paths = [os.path.join(args.dir, n) for n in names if n.endswith(".json")]
        if not paths:
            print(f"no corpus entries found in {args.dir}", file=sys.stderr)
            return EXIT_INPUT
        docs = [(path, load_json_file(path)) for path in paths]
        runs, paths_by_name = [], {}
        for path, doc in docs:
            what = f"malformed corpus entry {path}"
            with malformed(what):
                name = doc["name"]
                if not isinstance(name, str):
                    raise TypeError(f"name must be a string, got {type(name).__name__}")
                if name in paths_by_name:
                    raise InputError(f"corpus entries {paths_by_name[name]} and {path} "
                                     f"share the name {name!r}")
                paths_by_name[name] = path
                if args.entry and name != args.entry:
                    continue
                try:
                    h = bialgebra_from_json(doc["bialgebra"])
                    sub = doc.get("sub")
                    k = None if sub is None else subspace_from_json(sub, h)
                except InputError as exc:  # the loaders' own messages name no file
                    raise InputError(f"{what}: {exc}") from exc
                degree, expect = doc.get("degree", 0), doc.get("expect", {})
                if type(degree) is not int or degree < 0:
                    raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
                if not isinstance(expect, dict):
                    raise TypeError(f"expect must be an object, got {type(expect).__name__}")
                runs.append((name, h, k, degree, expect))
    else:
        runs = []
        for entry in entries:
            if args.entry and entry.name != args.entry:
                continue
            h = entry.build()
            k = None if entry.sub_indices is None else subspace_from_indices(h, entry.sub_indices)
            runs.append((entry.name, h, k, entry.degree, dict(entry.expect)))
    if not runs:
        print(f"unknown corpus entry {args.entry!r}", file=sys.stderr)
        return EXIT_INPUT
    results = {}
    failures = 0
    for name, h, k, degree, expect in runs:
        try:
            if k is None:
                summary = {"axioms": "pass" if check_report(h)["all_ok"] else "fail"}
            else:
                summary = flat_summary(run_pipeline(h, k, degree))
        except BraidpbwError as exc:
            summary = {"error": str(exc)}
        mism = compare_expectations(expect, summary)
        ok = not mism
        failures += 0 if ok else 1
        results[name] = {"ok": ok, "summary": summary, "mismatches": mism}
        print(f"{name:>24}  {'ok' if ok else 'FAIL'}"
              + ("" if ok else "  |  " + "; ".join(mism)))
    doc = {"entries": results, "failures": failures}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(doc))
    if args.write_dir:
        _write_corpus_dir(args.write_dir, args.entry)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _write_corpus_dir(path: str, only: str | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    for entry in corpus_entries():
        if only and entry.name != only:
            continue
        h = entry.build()
        doc = {
            "name": entry.name,
            "bialgebra": bialgebra_to_json(h),
            "sub": None,
            "degree": entry.degree,
            "expect": dict(entry.expect),
        }
        if entry.sub_indices is not None:
            doc["sub"] = subspace_to_json(subspace_from_indices(h, entry.sub_indices))
        with open(os.path.join(path, f"{entry.name}.json"), "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(doc))


def _symmetric_forms(args, top: int):
    """Generator names and symmetric-algebra normal forms of a braided basis
    document; symmetry is checked before the bicharacter."""
    _, chi, basis = braided_basis_from_json(load_json_file(args.input))
    require_symmetric(GenericBraiding.diagonal(
        [[chi.value(a, b) for b in basis.degrees] for a in basis.degrees]))
    return basis.names, normal_forms(diagonal_braiding(chi, basis), top)


def cmd_nf(args) -> int:
    letters = " ".join(args.word).split()
    names, (_, table) = _symmetric_forms(args, len(letters))
    try:
        word = tuple(names.index(t) for t in letters)
    except ValueError as exc:
        raise InputError(f"unknown generator in word: {exc}") from exc
    parts = [monomial_str(names, w) if c.is_one() else f"({c})*{monomial_str(names, w)}"
             for w, c in sorted(normal_form(table, word).items())]
    print(" + ".join(parts) or "0")
    return EXIT_OK


def cmd_commutator(args) -> int:
    _, chi, basis = braided_basis_from_json(load_json_file(args.input))
    braiding = diagonal_braiding(chi, basis)
    alg = TensorAlgebra(braiding, list(basis.names))
    try:
        left = {tuple(alg.names.index(t) for t in args.left.split()): ONE}
        right = {tuple(alg.names.index(t) for t in args.right.split()): ONE}
    except ValueError as exc:
        raise InputError(f"unknown generator in word: {exc}") from exc
    print(alg.render(alg.commutator(left, right)))
    return EXIT_OK


def cmd_hilbert(args) -> int:
    _, (standard, _) = _symmetric_forms(args, args.degree)
    print(" ".join(str(len(ws)) for ws in standard))
    return EXIT_OK


def cmd_grk(args) -> int:
    h = bialgebra_from_json(load_json_file(args.input))
    k = subspace_from_json(load_json_file(args.sub), h)
    grres = associated_graded(h, hopf_filtration(h, k))
    doc = bialgebra_to_json(grres.algebra)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))
    print(f"associated graded written to {args.out} "
          f"(dims {[len(grres.algebra.degree_indices(n)) for n in range(grres.algebra.max_degree() + 1)]})")
    return EXIT_OK


def cmd_coinv(args) -> int:
    gr = bialgebra_from_json(load_json_file(args.input))
    coinv = compute_R(gr)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(coinvariants_to_json(coinv)))
    print(f"coinvariant algebra written to {args.out} (dim {coinv.algebra.dim})")
    return EXIT_OK


def cmd_pbw(args) -> int:
    h = bialgebra_from_json(load_json_file(args.input))
    report = pbw_verdict(h, args.degree)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(pbw_document(report)))
    print(f"verdict: {report.verdict}")
    print("dims (target, symmetric):", report.degreewise_dims)
    if report.first_failure_degree is not None:
        print(f"first failure degree: {report.first_failure_degree}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidpbw",
        description="exact engine for braided bialgebras: axioms, filtrations, "
                    "coinvariants, PBW verdicts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checkers on a bialgebra")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--report")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("pipeline", help="full relative-filtration analysis")
    p.add_argument("--input", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--degree", type=int,
                   help="top degree (default: the degree cap minus 2, read when the command runs)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--report")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("corpus", help="run the built-in corpus")
    p.add_argument("--entry")
    p.add_argument("--dir", help="load corpus entries from a directory instead")
    p.add_argument("--report")
    p.add_argument("--write-dir", help="also export the built-in corpus as JSON files")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("nf", help="normal form of a word in a braided basis")
    p.add_argument("--input", required=True)
    p.add_argument("word", nargs="+")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("commutator", help="braided commutator of two words")
    p.add_argument("--input", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("hilbert", help="graded dimensions of the symmetric algebra")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("grk", help="associated graded bialgebra of (H, K)")
    p.add_argument("--input", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_grk)

    p = sub.add_parser("coinv", help="coinvariant algebra of a graded bialgebra")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_coinv)

    p = sub.add_parser("pbw", help="PBW report for a connected graded bialgebra")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_pbw)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BraidpbwError as exc:
        label = "input error" if isinstance(exc, InputError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
