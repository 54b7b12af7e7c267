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


#: CPython's parser doubles its token array when a module passes this many tokens,
#: and the bench harness's ``peak_rss_mb`` steps up with it (it compiles the package on setup)
TOKEN_LIMIT = 8192


def test_every_module_stays_below_the_parser_token_step():
    import tokenize

    package = Path(__file__).resolve().parents[1] / "src" / "curvecoh"
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    sizes = {}
    for path in sorted(package.glob("*.py")):
        with open(path, "rb") as fh:
            sizes[path.name] = sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skipped)
    assert sizes and max(sizes.values()) < TOKEN_LIMIT, sizes
