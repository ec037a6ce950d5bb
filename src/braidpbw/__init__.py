"""Exact structure-constant engine for braided bialgebras.

Scalars live in cyclotomic fields with exact arithmetic; bialgebras are
dense structure-constant tensors; every theorem-shaped statement in the
package is checked by exhaustive evaluation or exact linear algebra.

Callers import what they use from the modules (``braidpbw.pipeline``,
``braidpbw.pbw``, ...); the package root holds only the error classes, so
importing one module loads only what that module needs.
"""

from .reporting import BraidpbwError, DegreeCapExceeded, InputError

__version__ = "0.1.0"
