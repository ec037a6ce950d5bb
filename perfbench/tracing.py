"""Tracing from outside the engine: wrappers around the public functions of
each layer, installed in every module namespace that binds them.

Modules import layer functions with ``from .x import f``, so a name can be
bound in several namespaces (``pipeline`` binds ``compute_R``, ``coinvariants``
binds ``rank``); each binding is replaced.  Spanned functions record a span
(name, start, end, parent) kept in memory; counted functions only count, since
they run hundreds of thousands of times per pass.  Scalar operations also keep
a decimated sample of their operands for the replay timings.
"""
from __future__ import annotations

import os
import sys
import time
from array import array

from braidpbw.scalars import Scalar

# (metric key, module, attribute); several attributes may share one key, and a
# call nested directly inside a call of the same key is not counted again.
SPANNED = (
    ("linalg.rref", "linalg", "rref"),
    ("linalg.coords", "linalg", "Subspace.coords"),
    ("linalg.coords", "linalg", "Subspace.reduce"),
    ("linalg.coords", "linalg", "Subspace.contains_vector"),
    ("braided_space.braid_check", "braided_space", "braid_check"),
    ("braided_space.is_symmetric", "braided_space", "is_symmetric"),
    ("findim_hopf.check_braided_algebra", "findim_hopf", "check_braided_algebra"),
    ("findim_hopf.check_braided_coalgebra", "findim_hopf", "check_braided_coalgebra"),
    ("findim_hopf.check_braided_bialgebra", "findim_hopf", "check_braided_bialgebra"),
    ("findim_hopf.check_antipode", "findim_hopf", "check_antipode"),
    ("findim_hopf.check_commutator_coproduct_all", "findim_hopf", "check_commutator_coproduct_all"),
    ("filtration.hopf_filtration", "filtration", "hopf_filtration"),
    ("filtration.wedge", "filtration", "wedge"),
    ("filtration.associated_graded", "filtration", "associated_graded"),
    ("filtration.check_commutator_filtration", "filtration", "check_commutator_filtration"),
    ("coinvariants.compute_R", "coinvariants", "compute_R"),
    ("coinvariants.projection_pi", "coinvariants", "projection_pi"),
    ("coinvariants.check_braiding_collapse", "coinvariants", "check_braiding_collapse"),
    ("coinvariants.bosonization_check", "coinvariants", "bosonization_check"),
    ("pbw.compute_Q", "pbw", "compute_Q"),
    ("pbw.pbw_verdict", "pbw", "pbw_verdict"),
    ("pbw.pbw_basis", "pbw", "pbw_basis"),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline"),
    ("pipeline.check_report", "pipeline", "check_report"),
    ("serialize.load_json_file", "serialize", "load_json_file"),
    ("serialize.bialgebra_from_json", "serialize", "bialgebra_from_json"),
    ("serialize.subspace_from_json", "serialize", "subspace_from_json"),
    ("serialize.dumps_canonical", "serialize", "dumps_canonical"),
    ("cli.main", "cli", "main"),
)

COUNTED = (
    ("multilinear.slot_ops", "multilinear", "slot_apply"),
    ("multilinear.slot_ops", "multilinear", "slot_pair"),
    ("multilinear.slot_ops", "multilinear", "slot_merge"),
    ("multilinear.slot_ops", "multilinear", "slot_split"),
    ("multilinear.slot_ops", "multilinear", "slot_scalar"),
    ("multilinear.mul_at", "multilinear", "mul_at"),
    ("multilinear.braid_at", "multilinear", "braid_at"),
    ("scalars.parse_scalar", "scalars", "parse_scalar"),
)

# findim_hopf checkers whose ValidationReports are summed into checks/skips
REPORTING = {key for key, _, _ in SPANNED if key.startswith("findim_hopf.")}

SAMPLE_CAP = 256  # operand samples kept per (operation, conductor)


class OperandSample:
    """Every stride-th operand tuple, the stride doubling when the buffer fills,
    so the sample spreads over the whole traced pass."""

    __slots__ = ("items", "stride", "seen")

    def __init__(self):
        self.items: list = []
        self.stride = 1
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if self.seen % self.stride:
            return
        self.items.append(item)
        if len(self.items) >= 2 * SAMPLE_CAP:
            self.items = self.items[1::2]
            self.stride *= 2


class Tracer:
    def __init__(self):
        # spans as columns, so that keeping them adds no objects for the
        # garbage collector to scan: name, start, end, parent span index
        self.span_names: list[str] = []
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack: list[list] = []   # [key, span index, seconds in wrapped children]
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.samples: dict[tuple[str, int], OperandSample] = {}
        self.largest_rref: tuple = ()  # (cells, rows) of the largest input
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # -- bookkeeping ------------------------------------------------------

    def reset_pass(self) -> None:
        """Clear per-pass statistics; spans and operand samples are kept."""
        self.stats.clear()
        self.counts.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin(self, key: str) -> None:
        """Open a span for the benchmark itself (a pass or an operation)."""
        self.span_parent.append(self.stack[-1][1] if self.stack else -1)
        self.stack.append([key, len(self.span_names), 0.0])
        self.span_names.append(key)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())

    def end(self) -> float:
        now = time.perf_counter()
        key, idx, child = self.stack.pop()
        self.span_end[idx] = now
        dur = now - self.span_start[idx]
        if self.stack:
            self.stack[-1][2] += dur
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        return dur

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.span_names, self.span_start, self.span_end, self.span_parent))

    def sample(self, op: str, conductor: int, item) -> None:
        s = self.samples.get((op, conductor))
        if s is None:
            s = self.samples[(op, conductor)] = OperandSample()
        s.offer(item)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, key, fn):
        stack, begin, end = self.stack, self.begin, self.end
        reporting = key in REPORTING
        is_rref = key == "linalg.rref"
        is_load = key == "serialize.load_json_file"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            if is_rref:
                args = (list(args[0]),) + args[1:]
                self._note_rref(args[0])
            elif is_load:
                self._note_load(args[0] if args else kwargs["path"])
            begin(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if reporting and hasattr(result, "checked"):
                self.count("findim_hopf.checks", result.checked)
                self.count("findim_hopf.checks_skipped", result.skipped)
            if is_rref:
                self.count("linalg.rref.rank", len(result[0]))
            return result

        return wrapper

    def _note_rref(self, rows: list) -> None:
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self.count("linalg.rref.rows", len(rows))
        self.count("linalg.rref.cells", cells)
        if not self.largest_rref or cells > self.largest_rref[0]:
            self.largest_rref = (cells, [tuple(r) for r in rows])

    def _note_load(self, path) -> None:
        try:
            self.count("serialize.input_bytes", os.path.getsize(path))
        except OSError:
            pass

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _scalar_methods(self) -> dict[str, object]:
        mul, add, sub, inverse = Scalar.__mul__, Scalar.__add__, Scalar.__sub__, Scalar.inverse
        count, sample = self.count, self.sample

        def t_mul(a, b):
            count("scalars.mul")
            na, nb = a.conductor, b.conductor
            if na == nb:
                if na != 1:
                    count("scalars.mul_cyclotomic")
                sample("mul", na, (a, b))
            elif na != 1 and nb != 1:
                count("scalars.mul_cyclotomic")
            return mul(a, b)

        def t_add(a, b):
            count("scalars.add")
            if a.conductor == b.conductor:
                sample("add", a.conductor, (a, b))
            return add(a, b)

        def t_sub(a, b):
            count("scalars.add")
            if a.conductor == b.conductor:
                sample("add", a.conductor, (a, b))
            return sub(a, b)

        def t_inverse(a):
            count("scalars.inverse")
            sample("inverse", a.conductor, (a,))
            return inverse(a)

        return {"__mul__": t_mul, "__add__": t_add, "__sub__": t_sub, "inverse": t_inverse}

    def _build_wrappers(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every binding of every traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "braidpbw" or name.startswith("braidpbw."))]
        out = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for key, mod, attr in table:
                original = _resolve(mod, attr)
                wrapper = make(key, original)
                if "." in attr:  # a method: its class is its only binding
                    cls_name, meth = attr.split(".")
                    out.append((getattr(sys.modules["braidpbw." + mod], cls_name), meth, wrapper))
                    continue
                out.extend((m, name, wrapper) for m in modules
                           for name, value in vars(m).items() if value is original)
        out.extend((Scalar, meth, wrapper) for meth, wrapper in self._scalar_methods().items())
        return out

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        assert not self._patches, "tracer already installed"
        for owner, name, wrapper in self._wrappers:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []


def _resolve(mod: str, attr: str):
    obj = sys.modules["braidpbw." + mod]
    for part in attr.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj

