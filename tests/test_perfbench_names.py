"""Every function the benchmark tracer rebinds exists in the package.

perfbench/spans.py names the functions it spans and counts; a rename in
src/ would otherwise surface only when a traced benchmark run crashes.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for table in (spans.SPANNED, spans.COUNTED):
        for module, names in table.items():
            home = importlib.import_module(f"ainfcat.{module}")
            for qual in names:
                obj = home
                for part in qual.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    missing.append(f"{module}.{qual}")
    assert not missing
