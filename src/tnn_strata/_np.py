"""The package's one numpy binding, loaded on first attribute access.

The exact verbs (``param``, ``cell-of``, ``tnn``, ``project``, ``rho``,
``psi``) never touch a float, and importing numpy costs more than the rest
of a command's start-up.  Modules take ``np`` from here instead of
``import numpy as np``: the name is numpy's module object, executed the
first time any attribute of it is read, and from then on it is numpy.
"""

import importlib.util
import sys


def _lazy_numpy():
    """numpy as already imported, or registered in ``sys.modules`` to
    execute on its first attribute access (the ``importlib.util.LazyLoader``
    recipe)."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
