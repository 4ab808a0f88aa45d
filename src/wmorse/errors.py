"""Exception hierarchy shared by the whole package.

Two families matter to callers: ``ValidationError`` means the input data
itself is malformed (bad document, broken divisibility, invalid Morse
values), while ``HypothesisError`` means the data is fine but the
requested operation's precondition does not hold (no free face, cell not
critical, and so on). The command line maps the first family to exit
code 2 and the second to exit code 3. ``InternalInvariantError`` is a
bug in the package itself and exits 1.
"""

from __future__ import annotations


class WmorseError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WmorseError):
    """Malformed input: documents, complexes, weights or Morse values."""


class HypothesisError(WmorseError):
    """Structurally valid input that fails an operation's precondition."""


class InternalInvariantError(WmorseError):
    """A result broke an identity the package reports; checked even under -O."""


# --- complex validation -------------------------------------------------

class NotFaceClosed(ValidationError):
    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"missing face {list(self.missing)}")


class DivisibilityViolation(ValidationError):
    def __init__(self, face, coface, w_face, w_coface):
        self.face = tuple(face)
        self.coface = tuple(coface)
        self.w_face = w_face
        self.w_coface = w_coface
        super().__init__(
            f"w({list(self.face)})={w_face} does not divide "
            f"w({list(self.coface)})={w_coface}"
        )


class DuplicateVertex(ValidationError):
    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"repeated vertex in {list(self.vertices)}")


class DuplicateSimplex(ValidationError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"simplex {list(self.simplex)} listed twice")


class NotACycle(ValidationError):
    def __init__(self, dimension):
        self.dimension = dimension
        super().__init__(f"chain is not in the kernel of the dimension-{dimension} boundary")


# --- Morse function validation ------------------------------------------

class MorseViolation(ValidationError):
    """One or more cells break the discrete Morse conditions.

    ``violations`` is a list of (simplex, condition, witnesses) triples
    where condition is 1 (too many low cofaces) or 2 (too many high faces).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = [
            f"{list(s)}: condition ({c}) fails with witnesses {[list(w) for w in ws]}"
            for s, c, ws in self.violations
        ]
        super().__init__("not a discrete Morse function: " + "; ".join(lines))


# --- sequence ingestion --------------------------------------------------

class UnweightedSymbol(ValidationError):
    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"no weight given for symbol {symbol!r}")


class ZeroLetterWeight(ValidationError):
    def __init__(self, symbol, weight):
        self.symbol = symbol
        self.weight = weight
        super().__init__(f"letter weight for {symbol!r} must be a positive integer, got {weight}")


# --- documents ------------------------------------------------------------

def quoted(text: str) -> str:
    """Input text for a message: quoted in full up to 60 characters,
    else its first 20 and its length, so no message grows with input."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


class DocumentError(ValidationError):
    """Unreadable or schema-violating input file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


# --- operation preconditions ----------------------------------------------

class NotFreeFace(HypothesisError):
    def __init__(self, simplex, step_index=None):
        self.simplex = tuple(simplex)
        self.step_index = step_index
        at = "" if step_index is None else f" (entry {step_index} of the steps)"
        super().__init__(f"{list(self.simplex)} is not a free face{at}")


class NotMaximal(HypothesisError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"{list(self.simplex)} is not a maximal simplex")


class ZeroWeight(HypothesisError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"{list(self.simplex)} has weight zero")


class HypothesisFailed(HypothesisError):
    """A cell inside the collapse window is critical or not w-simple."""

    def __init__(self, simplex, reason):
        self.simplex = tuple(simplex)
        self.reason = reason  # "critical" or "not-w-simple"
        super().__init__(f"{list(self.simplex)} is {reason} inside the window")


class NotCritical(HypothesisError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"{list(self.simplex)} is not critical")


class ExtraCritical(HypothesisError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"window contains another critical cell {list(self.simplex)}")


class NoValidAPrime(HypothesisError):
    def __init__(self, simplex, value):
        self.simplex = tuple(simplex)
        self.value = value
        super().__init__(
            f"{list(self.simplex)} shares the value {value} with the chosen cell; "
            "no admissible lower threshold exists"
        )


class WSimpleFailed(HypothesisError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"{list(self.simplex)} is not w-simple")
