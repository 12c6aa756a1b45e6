"""Every function perfbench's tracer wraps still exists.

``perfbench/tracer.py`` names the functions it wraps in
``LAYER_FUNCTIONS``; a traced run dies with ``AttributeError`` if one of
them is gone.  The tracer is loaded by path, and each name is resolved
the way ``Tracer.install`` resolves it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [
        (span, module, attr)
        for span, targets in tracer.LAYER_FUNCTIONS.items()
        for module, attr in targets
    ]


@pytest.mark.parametrize("span,module,attr", _layer_functions(), ids=str)
def test_traced_name_resolves(span, module, attr):
    owner = importlib.import_module(f"ctxpred.{module}")
    class_name, _, method = attr.rpartition(".")
    if class_name:
        raw = vars(getattr(owner, class_name))[method]
        assert callable(getattr(raw, "__func__", raw)), (span, attr)
    else:
        assert callable(getattr(owner, attr)), (span, attr)
