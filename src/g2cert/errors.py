"""Exception types shared across the package.

Each exception carries the exact offending object (a residual polynomial, a
determinant, an index triple) so that failures are reproducible without
re-running the computation that discovered them.
"""

from __future__ import annotations


class G2CertError(Exception):
    """Base class for all package errors."""


class MissingVariable(G2CertError):
    """An evaluation assignment does not cover every variable."""


class ExpansionMismatch(G2CertError):
    """A nonnegativity witness does not expand to its target polynomial."""

    def __init__(self, difference):
        self.difference = difference
        super().__init__(f"witness expansion differs from target by {difference}")


class SingularSymbolicSystem(G2CertError):
    """A symbolic linear system has identically vanishing determinant."""

    def __init__(self, determinant):
        self.determinant = determinant
        super().__init__("symbolic linear system is singular (determinant is 0)")


class DimensionMismatch(G2CertError):
    """Operands live on spaces of different dimension."""


class DegreeZero(G2CertError):
    """Contraction of a 0-form was requested."""


class DegreeMismatch(G2CertError):
    """A top-degree coefficient was requested of a non-top form."""


class JacobiFailure(G2CertError):
    """d^2 != 0 for a structure-equation tuple."""

    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__(f"d^2(e^{index}) = {residual} != 0")


class NotAnIdeal(G2CertError):
    """A subspace that must be an ideal is not one."""


class LeibnizViolation(G2CertError):
    """A candidate derivation violates the Leibniz identity."""

    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        i, j, k = triple
        super().__init__(f"Leibniz fails on ([e{i},e{j}], e^{k}) with residual {residual}")


class NilradicalNotInvariant(G2CertError):
    """A derivation family does not preserve the declared nilradical."""


class KSquareNotScalar(G2CertError):
    """K_psi^2 is not a scalar multiple of the identity (convention bug)."""


class NonNumericEntries(G2CertError):
    """A numeric operation received symbolic entries."""


class WitnessMismatch(G2CertError):
    """A shipped lambda witness does not match the computed polynomial."""


class NotIdenticallyZero(G2CertError):
    """A claimed identically-zero quantity has a nonzero residual."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"nonzero residual: {residual}")


class IdentityMismatch(G2CertError):
    """A claimed polynomial identity fails."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"identity fails with residual: {residual}")


class IdentityFailure(G2CertError):
    """A gauge-transport verification step failed."""


class AtomFalsified(G2CertError):
    """Substituted values make a domain atom a false constant."""

    def __init__(self, atom, subs):
        self.atom = atom
        self.subs = subs
        values = ", ".join(f"{k} = {v}" for k, v in sorted(subs.items()))
        super().__init__(f"the substitution {values} makes the atom {atom} false")


class AtomUnsatisfiableAfterBudget(G2CertError):
    """The rejection sampler exhausted its budget without a valid sample."""


class IndexOutOfRange(G2CertError):
    """A basis index in the DSL exceeds the declared dimension."""


class DslSyntaxError(G2CertError):
    """Structure-equation or expression text failed to parse."""

    def __init__(self, text, pos, expected):
        self.text = text
        self.pos = pos
        self.expected = expected
        super().__init__(f"syntax error at position {pos} (expected {expected}): {text[max(0, pos - 10):pos + 10]!r}")


class ValidationFailure(G2CertError):
    """A catalog entry failed validation on load."""

    def __init__(self, entry_name, cause):
        self.entry_name = entry_name
        self.cause = cause
        super().__init__(f"catalog entry {entry_name!r}: {cause}")


# What stored or catalog data that lacks a field or holds a value of the wrong
# form raises while it is parsed or verified.
MALFORMED = (G2CertError, KeyError, IndexError, ValueError, TypeError, AttributeError)
