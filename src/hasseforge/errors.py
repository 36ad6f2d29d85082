"""Exception types, and require, the check that raises InvariantViolation.

Everything mathematical that can go wrong gets its own class so tests can
assert the precise failure mode instead of matching message strings.
"""


class HasseForgeError(Exception):
    """Base class for all library errors."""


class InvalidSpec(HasseForgeError):
    """Ring/shape parameters violate a structural requirement."""


class InvalidDatum(HasseForgeError):
    """Module datum fails a kernel/image axiom or a flag containment."""


class InvalidLift(HasseForgeError):
    """Lifted datum fails F*V = V*F = p or does not reduce to its mod-p shadow."""


class NotNested(HasseForgeError):
    """Submodule pair handed to a quotient is not actually nested."""


class WellDefinednessViolation(HasseForgeError):
    """A map does not descend to the requested quotient."""


class InvariantViolation(HasseForgeError):
    """An identity that is supposed to hold exactly failed on concrete data."""


class NotComplementary(HasseForgeError):
    """Subspace pair fed to the complementary-pair determinant identity has wrong dimensions."""


class RetryExhausted(HasseForgeError):
    """Randomized constructor ran out of attempts."""


def require(cond, msg):
    """Raise InvariantViolation(msg) unless cond: the check of an identity
    that must hold exactly, kept under python -O, which strips asserts."""
    if not cond:
        raise InvariantViolation(msg)
