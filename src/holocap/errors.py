"""Exception types shared across the toolkit.

Every domain-level failure derives from :class:`HolocapError` so callers (and
the CLI) can distinguish "the mathematics said no" from programming errors.
Pipeline stages attach their stage name via the ``stage`` attribute.
"""

from __future__ import annotations


class HolocapError(Exception):
    """Base class for all toolkit failures."""

    #: name of the pipeline stage that raised, when applicable
    stage: str | None = None

    def with_stage(self, stage: str) -> "HolocapError":
        self.stage = stage
        return self


class GreenUndefinedPolarSet(HolocapError):
    """Green function requested on a set whose capacity estimate is polar."""


class UnboundedSet(HolocapError):
    """Predicate has an unbounded (or non-finite) bounding box."""


class GammaPolar(HolocapError):
    """Iterated projection capacity fell below the polar threshold."""


class DegreeGrowthViolated(HolocapError):
    """Declared degree-growth constants are contradicted by the data."""


class WindowEmpty(HolocapError):
    """Radius-profile tail window contains no usable indices."""


class AllStrataPolar(HolocapError):
    """No radius stratum up to ``i_max`` has a non-polar sample cloud."""


class NoUniformStratum(HolocapError):
    """Doubling search exhausted without finding a non-polar sublevel set."""


class NotSublinear(HolocapError):
    """Tail degree slope never drops below the sublinearity tolerance."""


class FloatOverflow(HolocapError):
    """A bound of the computation exceeds the float range."""


class OutsideCertifiedDomain(HolocapError):
    """Evaluation point lies outside the certificate's convergence domain."""


class InsufficientData(HolocapError):
    """Tail tolerance unreachable with the available indices.

    Carries ``achievable_tail_bound``, the best bound the data supports.
    """

    def __init__(self, message: str, achievable_tail_bound: float):
        super().__init__(message)
        self.achievable_tail_bound = achievable_tail_bound
