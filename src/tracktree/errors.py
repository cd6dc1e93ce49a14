"""Exception vocabulary shared by all tracktree modules."""


class TrackTreeError(Exception):
    """Base class for every error raised by this package."""


# --- group models ---------------------------------------------------------

class UnknownLetter(TrackTreeError):
    pass


class ModelMismatch(TrackTreeError):
    pass


class RadiusTooLarge(TrackTreeError):
    pass


class SearchBudgetExceeded(TrackTreeError):
    pass


# --- windows and families -------------------------------------------------

class CertificationFailure(TrackTreeError):
    """A translate A*g could not be certified over a window.

    Its message names the difference A + A*g as (1, g): the window leaves
    the translate undecided on a core key, or the difference touches the
    boundary shell.  Enlarging the radius (or, for a translation longer
    than the margin, the margin) is the standard fix.
    """

    def __init__(self, g, detail):
        super().__init__(f"uncertified difference for (1, {g}): {detail}")


class ConflictingRule(TrackTreeError):
    pass


# --- pattern combinatorics ------------------------------------------------

class ParityViolation(TrackTreeError):
    """Odd triangle perimeter: impossible for symmetric-difference metrics,
    so it signals corrupted input data."""

    def __init__(self, u, v, w):
        super().__init__(f"odd perimeter on triple {u}, {v}, {w}")


class NegativeCorner(TrackTreeError):
    def __init__(self, u, v, w):
        super().__init__(f"negative corner count on triple {u}, {v}, {w}")


class NonNestedSquare(TrackTreeError):
    """Crossing witness found by the square decomposition."""

    def __init__(self, cosets, vertices):
        self.cosets = cosets
        self.vertices = vertices
        super().__init__(f"cosets {sorted(cosets)} cross on square {vertices}")


class NotTotal(TrackTreeError):
    """Two label classes on one edge are incomparable (falsification witness)."""

    def __init__(self, c1, c2, edge):
        self.c1 = c1
        self.c2 = c2
        self.edge = edge
        super().__init__(f"classes of {c1!r} and {c2!r} incomparable on edge {edge}")


# --- tree construction ----------------------------------------------------

class NotNested(TrackTreeError):
    pass


class DisconnectedTree(TrackTreeError):
    pass


class OutsideCertifiedDomain(TrackTreeError):
    pass


# --- harness --------------------------------------------------------------

class TooLarge(TrackTreeError):
    pass


class ParseError(TrackTreeError):
    pass


class IoError(TrackTreeError):
    pass
