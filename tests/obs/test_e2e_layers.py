"""The end-to-end benchmark's layer table still resolves against the library.

``benchmarks/e2e/layers.py`` wraps public names of ``repro`` to attribute
traced time to layers.  A name that stops resolving after a rename or a
move is reported as missing and skipped, so its per-layer metric silently
reads zero.  This test loads that table as it is and checks that every
name resolves, gets wrapped, and is put back exactly by ``restore()``.
"""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"
_ABSENT = object()


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers_under_test", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    layers = _load_layers()
    owners = {}
    for names in layers.LAYERS.values():
        for dotted in names:
            owner, attr = layers._resolve(dotted)
            owners[dotted] = (owner, attr, vars(owner).get(attr, _ABSENT))
    restore, missing = layers.install(layers.SpanRecorder())
    try:
        assert missing == []
        for dotted, (owner, attr, original) in owners.items():
            assert vars(owner).get(attr, _ABSENT) is not original, dotted
    finally:
        restore()
    for dotted, (owner, attr, original) in owners.items():
        assert vars(owner).get(attr, _ABSENT) is original, dotted
