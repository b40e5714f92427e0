"""The benchmark's tracer (``perfbench/tracing.py``) wraps package
functions by name, and ``perfbench/run.py --trace 1`` crashes on a name
that no longer exists.  Its ``LAYERS`` table is read from the source
here, without importing or running the tracer."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    )
    assert "sim" in layers and "deliver_bit_exact" in layers["sim"]
    missing = [
        f"codedcache.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"codedcache.{layer}"), name, None))
    ]
    assert missing == []
