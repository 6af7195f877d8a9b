"""numpy, imported on the first attribute a command reads, so commands that
compute nothing start without it, and neither do those on a small lattice
(A2 to CT12), whose rows stay Python ints from the search to the verdict
(enumeration, spectrum and report.certify).  The code that runs only on
arrays is kept in sphdesign._arrays, imported where it is first needed
and, on the enumeration and vector-file paths, before numpy itself.  A
proxy, not importlib's LazyLoader: the import statement's module lock
keeps a first use from two threads safe."""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
else:
    class _Numpy:
        def __getattr__(self, name):
            import numpy    # cached per name: later reads skip this call
            return vars(self).setdefault(name, getattr(numpy, name))
    np = _Numpy()
