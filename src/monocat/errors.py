"""Exception types raised by validation and construction routines.

Every structural failure carries enough data to name the first offending
entry, pair, or triple, so callers (and the CLI) can report it verbatim.
"""


class AlgebraError(Exception):
    """Base class for structural violations detected at validation time."""


class FormatError(AlgebraError):
    """Malformed input data: bad shape, unparseable text, missing fields."""


class NotAssociative(AlgebraError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"associativity fails at ({i},{j},{k}): (i*j)*k != i*(j*k)")


class OutOfRange(AlgebraError):
    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"table entry at ({i},{j}) is not an element index")


class InvalidIdentity(AlgebraError):
    def __init__(self, e: int, witness: int):
        self.element = e
        self.witness = witness
        super().__init__(f"element {e} is not a two-sided identity (fails on {witness})")


class BadSubset(AlgebraError):
    """Subset members out of range, or a subset that is not closed/absorbing."""


class EmptyIdeal(AlgebraError):
    """Ideals are nonempty by standing convention."""


class EmptyGenerators(AlgebraError):
    pass


class CarrierMismatch(AlgebraError):
    """Two subsets were combined that live in different carrier semigroups."""


class NotAGroup(AlgebraError):
    pass


class NotSimple(AlgebraError):
    pass


class NotIdempotent(AlgebraError):
    def __init__(self, e: int):
        self.element = e
        super().__init__(f"element {e} is not idempotent")


class IsAGroup(AlgebraError):
    """The input monoid is a group; use the groupoid construction instead."""


class AIsGroup(AlgebraError):
    """Standardization is only defined when the left endomorphism monoid is not a group."""


class GSideNotGroup(AlgebraError):
    pass


class NotAGroupAction(AlgebraError):
    def __init__(self, slot: str, member):
        self.slot, self.element = slot, member
        super().__init__(f"G does not act on {slot} as a group at {member}")


class EmptyBimodule(AlgebraError):
    pass


class DecompositionFailure(AlgebraError):
    """Internal inconsistency while decomposing a simple semigroup."""


class TheoremViolation(AlgebraError):
    """A fact the library proves for valid inputs failed at run time."""


def require(holds: bool, message: str = "") -> None:
    """Raise ``TheoremViolation(message)`` unless ``holds``.

    The checked form of an ``assert`` for a theorem: ``python -O`` strips
    assert statements, but not this.
    """
    if not holds:
        raise TheoremViolation(message)


class MonoidMismatch(AlgebraError):
    """Tensor factors do not share the middle monoid."""


class MiddleMonoidMismatch(AlgebraError):
    """Category composition requires equal middle endomorphism monoids."""


class IllDefinedAction(AlgebraError):
    """An induced action on tensor classes depends on the representative."""


class IllDefinedComposition(AlgebraError):
    """A composition on tensor classes depends on the representative."""


class UnitLawViolation(AlgebraError):
    def __init__(self, side: str, x: int):
        self.side = side
        self.element = x
        super().__init__(f"{side} unit law fails at element {x}")


class ActionLawViolation(AlgebraError):
    def __init__(self, side: str, a: int, b: int, x: int):
        self.side = side
        self.triple = (a, b, x)
        super().__init__(f"{side} action law fails at ({a},{b},{x})")


class CommutationViolation(AlgebraError):
    def __init__(self, a: int, x: int, b: int):
        self.triple = (a, x, b)
        super().__init__(f"actions do not commute at ({a},{x},{b}): (a*x)*b != a*(x*b)")


class GroupTooLarge(AlgebraError):
    def __init__(self, order: int, bound: int):
        self.order = order
        self.bound = bound
        super().__init__(f"group of order {order} exceeds the isomorphism-search bound {bound}")


class BoundsExceeded(AlgebraError):
    pass
