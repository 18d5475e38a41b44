"""The traced benchmark wraps warpcurve attributes by name.

perfbench/layers.py looks each wrapped attribute up with getattr when a
traced run starts; a renamed one would break ``perfbench/run.py --trace 1``
without failing any library test, so every target is checked here.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in layers.targets()
               if not hasattr(owner, attr)]
    assert missing == []
