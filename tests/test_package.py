"""The names the package root exports."""

from __future__ import annotations

import frgeo


def test_every_exported_name_resolves():
    # ``from frgeo import *`` fails on the first name of __all__ that is gone
    missing = [name for name in frgeo.__all__ if not hasattr(frgeo, name)]
    assert not missing
    namespace: dict = {}
    exec("from frgeo import *", namespace)
    assert set(frgeo.__all__) <= set(namespace)
