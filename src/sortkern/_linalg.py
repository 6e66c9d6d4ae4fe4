"""scipy.linalg, imported on first use.

Importing scipy.linalg takes about 0.3 s, most of `import sortkern.cli`:
its array-API layer loads numpy.f2py, numpy.testing and numpy.ma. Only the
Gram solve of fit and the eigensolver of nystrom_spectrum need it, so they
reach it through this module, and a command that does neither never pays.
A runner that times its fits calls load() first, so no timing absorbs the
import.
"""


def load():
    """The scipy.linalg module, imported by the first call."""
    import scipy.linalg

    return scipy.linalg


def eigh(a, **kwargs):
    """scipy.linalg.eigh(a, **kwargs)."""
    return load().eigh(a, **kwargs)
