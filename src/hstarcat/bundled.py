"""Bundled example categories.

The JSON files under data/ are the single source of the bundled data;
each records its provenance. F-symbol matrices for the non-pointed
examples are the externally standard ones; they are never trusted on
load — every load re-runs the full validator (pentagon and F-unitarity)
and raises InputError on failure. One deliberately corrupted data set is
bundled as a negative control.
"""

from __future__ import annotations

import json
from importlib import resources

from .fusion import FusionData, validate
from .numcore import InputError

NAMES = ("hilb", "hilb_z2", "hilb_z3", "fibonacci", "ising", "m2_hilb")


def load(name: str, trust: bool = False) -> FusionData:
    """Load a bundled category from the packaged JSON and re-validate it.

    Negative-control files are loadable only with trust=True, since they
    fail validation by design.
    """
    text = resources.files(__package__).joinpath(f"data/{name}.json").read_text()
    data = FusionData.from_json(json.loads(text))
    if not trust:
        cert = validate(data)
        if not cert.ok:
            raise InputError(
                f"bundled data {name} failed validation: {cert.failed_axiom}"
            )
    return data
