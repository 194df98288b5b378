"""Exact subgaussian norms of centered indicator variables.

A centered indicator with success probability p takes the value 1 - p with
probability p and -p otherwise.  Its subgaussian norm, the smallest tau with
E exp(t X) <= exp(tau^2 t^2) for all t, has a closed form; this package
computes it, the companion quantities around it (extremal point, growth-rate
asymptotics, a moment-based norm), and certified tail bounds for weighted
sums of such indicators, checked against exact and Monte Carlo oracles.

Each module's __all__ lists its public names; the package re-exports them.
They load on first use (PEP 562), so that `import subgauss` alone imports
no numpy and the command line's start-up can fork before it does.
"""

from ._version import __version__


def __getattr__(name: str):
    """A submodule, loaded alone; or a public name, which loads the API:
    core, errors, optimize, oracles, report, sums and verify, re-exported
    in that order."""
    import importlib
    import importlib.util

    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from . import spec` asks for the submodule here first
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f"{__name__}.{name}")
    names = globals()
    if "__all__" not in names:
        public = ["__version__"]
        for module in ("core", "errors", "optimize", "oracles", "report", "sums", "verify"):
            api = importlib.import_module(f"{__name__}.{module}")
            names.update((n, getattr(api, n)) for n in api.__all__)
            public += api.__all__
        names["__all__"] = public
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return [n for n in globals() if n not in ("__getattr__", "__dir__")]
