"""Bundled example categories.

The JSON files under data/ are the single source of the bundled data;
each records its provenance. F-symbol matrices for the non-pointed
examples are the externally standard ones; they are never trusted on
load — every load re-runs the full validator (pentagon and F-unitarity)
and raises InputError on failure. One deliberately corrupted data set,
fibonacci_corrupt, is bundled as a negative control: load refuses it, and
the CLI reads it as an input file like any other (fusion validate).
"""

from __future__ import annotations

import json
from importlib import resources

from .fusion import FusionData, validate
from .numcore import InputError

NAMES = ("hilb", "hilb_z2", "hilb_z3", "fibonacci", "ising", "m2_hilb")


def load(name: str) -> FusionData:
    """Load a bundled category from the packaged JSON and re-validate it;
    data that fails validation, such as the negative control, is an
    InputError."""
    text = resources.files(__package__).joinpath(f"data/{name}.json").read_text()
    data = FusionData.from_json(json.loads(text))
    cert = validate(data)
    if not cert.ok:
        raise InputError(f"bundled data {name} failed validation: {cert.failed_axiom}")
    return data
