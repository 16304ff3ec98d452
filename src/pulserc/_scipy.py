"""SciPy's compiled extensions, each run from its file: ``find_spec`` finds SciPy
without running scipy/__init__ (``__import__`` only raises if SciPy is missing)."""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

if sys.platform == "win32":  # its wheels add their OpenBLAS DLL directory in scipy/__init__
    import scipy  # noqa: F401
_ROOT = (find_spec("scipy") or __import__("scipy")).submodule_search_locations[0]


def _load(package: str, name: str):
    where = os.path.join(_ROOT, package)
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(f"scipy.{package}.{name}")
    if spec is None:
        raise ImportError(f"SciPy's extension module {name} is missing from {where}")
    spec.loader.exec_module(module := module_from_spec(spec))
    return module


_flapack = _load("linalg", "_flapack")  # dpotrf, dpotrs: the ridge readout
_sigtools = _load("signal", "_sigtools")  # _linear_filter: the "full" filter's scan
