"""The benchmark's span wrappers name library attributes that must exist.

``layerbench/spans.py`` replaces module attributes by name; a library change
that drops or renames one breaks ``layerbench/run.py --trace 1`` with an
``AttributeError``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from layerbench import spans  # noqa: E402


@pytest.mark.parametrize(
    "mod, attr", [(mod, attr) for mod, attr, _ in spans.WRAPPED],
    ids=[f"{mod.__name__}.{attr}" for mod, attr, _ in spans.WRAPPED],
)
def test_wrapped_attribute_resolves(mod, attr):
    assert callable(getattr(mod, attr))


def test_installed_wraps_and_restores():
    originals = [getattr(mod, attr) for mod, attr, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    with tracer.installed():
        for (mod, attr, _), fn in zip(spans.WRAPPED, originals):
            wrapped = getattr(mod, attr)
            assert wrapped is not fn
            assert wrapped.__wrapped__ is fn
    assert [getattr(mod, attr) for mod, attr, _ in spans.WRAPPED] == originals
