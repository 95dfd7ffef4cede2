"""Registry mapping experiment names to analysis factories.

Experiment modules register their analysis class at import time::

    @register_analysis("table1")
    class Table1Analysis(Analysis):
        ...

The experiments runner builds its suite from this registry; any new
figure, predictor study, or sweep plugs into ``runner all`` by
registering a pass -- no runner changes needed.
"""

_REGISTRY = {}


def register_analysis(name):
    """Class decorator registering an :class:`Analysis` factory.

    Re-registering the same class is allowed (``python -m
    repro.experiments.table2`` imports the module once as ``__main__``
    and once under its package name); a *different* factory under an
    existing name is a collision and raises.
    """
    def wrap(factory):
        existing = _REGISTRY.get(name)
        if existing is not None \
                and existing.__qualname__ != factory.__qualname__:
            raise ValueError("analysis %r already registered" % name)
        _REGISTRY[name] = factory
        return factory
    return wrap


def make_analysis(name, *args, **kwargs):
    """A fresh instance of the analysis registered under *name*."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown analysis %r (known: %s)"
                       % (name, ", ".join(sorted(_REGISTRY)))) from None
    return factory(*args, **kwargs)
