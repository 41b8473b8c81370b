"""Exception types and structured validation reports."""

from __future__ import annotations

from collections import namedtuple

from .record import Record, assign


class ProlongError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Cayley table validation
# ---------------------------------------------------------------------------

class MalformedTable(ProlongError, ValueError):
    """The table is empty, ragged, or has an entry outside 0..order-1."""


class IdentityNotAtZero(ProlongError):
    pass


class NotLatinSquare(ProlongError):
    pass


class NotAssociative(ProlongError):
    """The table fails associativity; carries the first failing (a, b, c)."""

    def __init__(self, witness: tuple[int, int, int]):
        a, b, c = witness
        super().__init__(f"({a}*{b})*{c} != {a}*({b}*{c})")
        self.witness = witness


class MissingInverse(ProlongError):
    pass


class NotHomomorphism(ProlongError):
    pass


class NotSubgroup(ProlongError):
    pass


class NotAbelian(ProlongError):
    pass


class NotNormal(ProlongError):
    pass


class ImageNotNormal(ProlongError):
    pass


class OrderBoundExceeded(ProlongError):
    pass


# ---------------------------------------------------------------------------
# Short exact sequences and ladders
# ---------------------------------------------------------------------------

class NotInjective(ProlongError):
    pass


class NotSurjective(ProlongError):
    pass


class NotExact(ProlongError):
    pass


class NotCentral(ProlongError):
    """The kernel of a row is not central in its middle group."""


class InvalidProlongation(ProlongError):
    """Raised when an operation needs a valid ladder but validation failed."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid prolongation: " + "; ".join(
            f"{item.name}: {item.detail or 'failed'}" for item in report.failures()))
        self.report = report


# ---------------------------------------------------------------------------
# Cochain complex
# ---------------------------------------------------------------------------

class DegreeOutOfRange(ProlongError):
    pass


class NotNormalized(ProlongError):
    pass


class SizeBoundExceeded(ProlongError):
    pass


class NotCocycle(ProlongError):
    pass


# ---------------------------------------------------------------------------
# Crossed modules
# ---------------------------------------------------------------------------

class InvalidCrossedModule(ProlongError):
    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid crossed module: " + "; ".join(
            f"{item.name}: {item.detail or 'failed'}" for item in report.failures()))
        self.report = report


class KernelNotPreserved(ProlongError):
    pass


class FiberDependentAction(ProlongError):
    pass


# ---------------------------------------------------------------------------
# Obstruction and crossed products
# ---------------------------------------------------------------------------

class PreconditionFailed(ProlongError):
    """A crossed-product precondition failed; carries the violating tuple."""

    def __init__(self, which: str, witness: tuple):
        super().__init__(f"crossed product precondition {which!r} fails at {witness}")
        self.which = which
        self.witness = witness


class NotCentralValue(ProlongError):
    pass


class NotInKernel(ProlongError):
    pass


class ObstructionNonzero(ProlongError):
    """The obstruction class does not vanish; carries its coordinates."""

    def __init__(self, coordinates: tuple[int, ...], invariant_factors: tuple[int, ...]):
        super().__init__(
            f"obstruction class {list(coordinates)} is nonzero in H^3 "
            f"with invariant factors {list(invariant_factors)}")
        self.coordinates = tuple(coordinates)
        self.invariant_factors = tuple(invariant_factors)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class MismatchedFrame(ProlongError):
    pass


class MismatchedBase(ProlongError):
    pass


class SearchBoundExceeded(ProlongError):
    pass


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class CertificateFailed(ProlongError):
    """A self-check of a computed result failed: the code, not the input, is wrong."""


def certify(ok: bool, message: str) -> None:
    """Raise CertificateFailed unless ok; unlike assert, python -O keeps it."""
    if not ok:
        raise CertificateFailed(message)


# ---------------------------------------------------------------------------
# Scenario ingestion
# ---------------------------------------------------------------------------

class ScenarioError(ProlongError):
    pass


class ShapeError(ScenarioError):
    """A value in a scenario document has the wrong JSON shape."""


# ---------------------------------------------------------------------------
# Validation reports
# ---------------------------------------------------------------------------

class CheckItem(namedtuple("CheckItem", ("name", "ok", "detail"), defaults=("",))):
    """One checked invariant: its name, whether it holds, and a detail.

    A tuple, not a record: `derive` builds a report's items on
    every call and keeps none, so an item costs one tuple.
    """

    __slots__ = ()


class ValidationReport(Record):
    """Outcome of a structural validation: one item per checked invariant.

    Reports never raise; callers that need strictness test `.ok` themselves.
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple[CheckItem, ...]):
        assign(self, "items", items)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(item for item in self.items if not item.ok)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": item.name, "ok": item.ok, "detail": item.detail}
                for item in self.items
            ],
        }

    def __str__(self) -> str:
        lines = []
        for item in self.items:
            mark = "ok  " if item.ok else "FAIL"
            suffix = f" ({item.detail})" if item.detail else ""
            lines.append(f"{mark} {item.name}{suffix}")
        return "\n".join(lines)
