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
import math
import os
import sys

from .braided_space import GenericBraiding, diagonal_braiding
from .corpus import corpus_entries
from .coinvariants import compute_R
from .filtration import associated_graded, hopf_filtration, subspace_from_indices
from .multilinear import add_term
from .pbw import pbw_verdict
from .pipeline import check_report, compare_expectations, flat_summary, require_axioms, run_pipeline
from .reporting import (BraidpbwError, InputError, degree_cap_default, render_combination,
                        require_degree, require_under_cap)
from .scalars import ONE
from .serialize import (
    bialgebra_from_json,
    bialgebra_to_json,
    braided_basis_from_json,
    coinvariants_to_json,
    corpus_entry_from_json,
    corpus_entry_name,
    corpus_entry_to_json,
    dumps_canonical,
    load_json_file,
    subspace_from_json,
    write_canonical,
)
from .symmetric_algebra import monomial_str, normal_form, normal_forms, require_symmetric

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(doc, args) -> None:
    if args.report:
        write_canonical(args.report, doc)
    if args.format == "json":
        sys.stdout.write(dumps_canonical(doc))


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
    degree = args.degree
    if degree is None:
        degree = degree_cap_default() - 2
        if degree < 0:
            raise InputError(f"the default degree, BRAIDPBW_DEGREE_CAP minus 2, is {degree}; "
                             "raise BRAIDPBW_DEGREE_CAP or pass --degree")
    report = run_pipeline(h, k, degree)
    _emit(report, args)
    if args.format == "text":
        summary = flat_summary(report)
        for key in sorted(summary):
            print(f"{key}: {summary[key]}")
    return EXIT_OK


def _built(entry) -> tuple:
    """(name, h, k, degree, expect) of a built-in corpus entry."""
    h = entry.build()
    k = None if entry.sub_indices is None else subspace_from_indices(h, entry.sub_indices)
    return entry.name, h, k, entry.degree, dict(entry.expect)


def cmd_corpus(args) -> int:
    if args.dir:
        names = sorted(os.listdir(args.dir)) if os.path.isdir(args.dir) else []
        paths = [os.path.join(args.dir, n) for n in names if n.endswith(".json")]
        if not paths:
            print(f"no corpus entries found in {args.dir}", file=sys.stderr)
            return EXIT_INPUT
        runs, paths_by_name = [], {}
        for path, doc in [(path, load_json_file(path)) for path in paths]:
            name = corpus_entry_name(doc, path)
            if name in paths_by_name:
                raise InputError(f"corpus entries {paths_by_name[name]} and {path} "
                                 f"share the name {name!r}")
            paths_by_name[name] = path
            if not args.entry or name == args.entry:
                runs.append(corpus_entry_from_json(doc, path))
    else:
        runs = [_built(e) for e in corpus_entries() if not args.entry or e.name == args.entry]
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
        write_canonical(args.report, doc)
    if args.write_dir:
        _write_corpus_dir(args.write_dir, args.entry)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _write_corpus_dir(path: str, only: str | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    for entry in corpus_entries():
        if not only or entry.name == only:
            write_canonical(os.path.join(path, f"{entry.name}.json"),
                            corpus_entry_to_json(*_built(entry)))


def _symmetric_forms(args, top: int, letters=()):
    """Generator names, the indices of a word's letters, and the symmetric-
    algebra normal forms through degree top of a braided basis document.
    The letters and the degree cap are checked before anything is built, and
    symmetry before the bicharacter."""
    _, chi, basis = braided_basis_from_json(load_json_file(args.input))
    word = _word(basis.names, letters)
    require_under_cap(top, "degree")
    require_symmetric(GenericBraiding.diagonal(
        [[chi.value(a, b) for b in basis.degrees] for a in basis.degrees]))
    return basis.names, word, normal_forms(diagonal_braiding(chi, basis), top)


def _word(names, letters) -> tuple[int, ...]:
    """The generator indices of a word given as a sequence of generator names."""
    for t in letters:
        if t not in names:
            raise InputError(f"unknown generator in word: {t!r}")
    return tuple(names.index(t) for t in letters)


def cmd_nf(args) -> int:
    letters = " ".join(args.word).split()
    names, word, (_, table) = _symmetric_forms(args, len(letters), letters)
    print(render_combination((monomial_str(names, w), c)
                             for w, c in sorted(normal_form(table, word).items())))
    return EXIT_OK


def cmd_commutator(args) -> int:
    """uv - q vu in the free algebra, where the diagonal braiding moves the
    word u past the word v with q the product of q_ab over letters a of u and
    b of v."""
    _, chi, basis = braided_basis_from_json(load_json_file(args.input))
    rows = diagonal_braiding(chi, basis).rows
    names = basis.names
    u, v = _word(names, args.left.split()), _word(names, args.right.split())
    require_under_cap(len(u) + len(v), "product degree")
    q = math.prod((rows[a][b][(b, a)] for a in u for b in v), start=ONE)
    out = {u + v: ONE}
    add_term(out, v + u, -q)
    print(render_combination(("*".join(names[i] for i in w) or "1", c)
                             for w, c in sorted(out.items())))
    return EXIT_OK


def cmd_hilbert(args) -> int:
    _, _, (standard, _) = _symmetric_forms(args, args.degree)
    print(" ".join(str(len(ws)) for ws in standard))
    return EXIT_OK


def cmd_grk(args) -> int:
    h = bialgebra_from_json(load_json_file(args.input))
    k = subspace_from_json(load_json_file(args.sub), h)
    require_axioms(h)
    gr = associated_graded(hopf_filtration(h, k))
    write_canonical(args.out, bialgebra_to_json(gr))
    print(f"associated graded written to {args.out} "
          f"(dims {[len(gr.degree_indices(n)) for n in range(gr.max_degree() + 1)]})")
    return EXIT_OK


def cmd_coinv(args) -> int:
    gr = bialgebra_from_json(load_json_file(args.input))
    require_axioms(gr)
    coinv = compute_R(gr)
    write_canonical(args.out, coinvariants_to_json(coinv))
    print(f"coinvariant algebra written to {args.out} (dim {coinv.algebra.dim})")
    return EXIT_OK


def cmd_pbw(args) -> int:
    h = bialgebra_from_json(load_json_file(args.input))
    require_degree(args.degree)
    require_axioms(h)
    report = pbw_verdict(h, args.degree)
    if args.report:
        write_canonical(args.report, report.to_json())
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
