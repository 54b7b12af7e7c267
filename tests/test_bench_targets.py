"""The bench harness traces entry points by name; each one must exist in the package."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: importlib.import_module(f"curvecoh.{name}") for name in spans.LAYERS}
    targets = spans._targets(SimpleNamespace(**modules))
    # Tracer.install looks each one up in its owner's own namespace
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not callable(vars(owner).get(attr))]
    assert missing == []
