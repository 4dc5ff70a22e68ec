"""The package's one binding of numpy, loaded on first attribute access.

A call that never touches an array -- ``fields``, ``plan``, ``verify`` (both
influence oracles run on Python ints and floats), ``losses --components``,
``--help``, an input error -- then runs without importing numpy.  If numpy
is already imported, ``np`` is that module.  No other genfields module may run
an ``import numpy`` statement: the import machinery reads ``__spec__`` from
the module it finds in ``sys.modules``, which loads a lazy one at once.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
