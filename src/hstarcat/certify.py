"""Certificates and the one bound test that every verdict goes through.

A residual passes its bound iff `residual <= bound`. Every check in the
package asks `within`, so a NaN residual (or bound) fails the check it
belongs to and names that check's axiom, and `<=` is the comparison
everywhere. A margin that must stay strictly above a cut (a positivity or
a dimension) asks `clears`, `margin > cut`, which a NaN fails as well.
Residuals are folded with numcore.worst, never with Python's max. Every
Certificate comes from judged, which runs both tests.
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
    """The one place a Certificate is made: a verdict over named residuals.
    checks lists (key, bound, axiom), which passes iff within(value, bound),
    or (key, cut, axiom, clears) for a margin, in order of priority; the
    first check that fails names the failed axiom. A key may name a value
    in details, which the report does not print, rather than a residual."""
    details = details or {}
    values = {**details, **residuals}
    failed = [
        axiom
        for key, bound, axiom, *test in checks
        if not (test[0] if test else within)(values[key], bound)
    ]
    return Certificate(not failed, residuals, details, failed[0] if failed else None)


def bounded(key: str, residual, bound, axiom, details=None) -> Certificate:
    """One-residual certificate: ACCEPT iff the residual is within bound."""
    return judged({key: residual}, [(key, bound, axiom)], details)
