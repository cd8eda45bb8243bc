"""Certificates and the one bound test that every verdict goes through.

A residual passes its bound iff `residual <= bound`. Every check in the
package asks `within`, so a NaN residual (or bound) fails the check it
belongs to and names that check's axiom, and `<=` is the comparison
everywhere. A margin that must stay strictly above a cut (a positivity or
a dimension) asks `clears`, `margin > cut`, which a NaN fails as well.
Residuals are folded with numcore.worst, never with Python's max.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Certificate:
    """Verdict plus named residuals of the checks that produced it."""

    ok: bool
    residuals: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    failed_axiom: str | None = None


def within(residual, bound):
    """The bound test: residual <= bound. A NaN never passes it."""
    return residual <= bound


def clears(margin, cut):
    """The margin test: margin > cut. A NaN never passes it."""
    return margin > cut


def judged(residuals: dict, checks, details=None) -> Certificate:
    """Certificate over named residuals. checks lists (key, bound, axiom)
    in order of priority; the first residual outside its bound names the
    failed axiom."""
    failed = [axiom for key, bound, axiom in checks if not within(residuals[key], bound)]
    return Certificate(
        not failed, residuals, details or {}, failed_axiom=failed[0] if failed else None
    )


def bounded(key: str, residual, bound, axiom, details=None) -> Certificate:
    """One-residual certificate: ACCEPT iff the residual is within bound."""
    return judged({key: residual}, [(key, bound, axiom)], details)
