"""The package's one binding of numpy, imported on its first attribute read.

Later reads are plain lookups in numpy's namespace.  Without numpy, the first
raises the ModuleNotFoundError that ``cli.main`` reports."""

import importlib


class _Numpy:
    def __getattr__(self, name):  # the first read, or a miss for numpy's own __getattr__
        numpy = importlib.import_module("numpy")
        self.__dict__ = numpy.__dict__
        return getattr(numpy, name)


np = _Numpy()
