"""The benchmark's seeded fusion-category families (bench/families.py),
loaded once by file path for the tests, since bench/ is not a package:
`from bench_families import fam`."""

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location(
    "families", pathlib.Path(__file__).resolve().parents[1] / "bench" / "families.py"
)
fam = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fam)
