"""Lightweight certificates shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Certificate:
    """Verdict plus named residuals of the checks that produced it."""

    ok: bool
    residuals: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    failed_axiom: str | None = None
