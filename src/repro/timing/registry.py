"""Registry mapping timing-model names to factories.

Built-ins register at import time; third-party models plug into the
runner CLI by registering a factory -- no engine or runner changes
needed::

    @register_timing("mymodel", params=("latency",))
    def make_mymodel(latency=0):
        return MyModel(latency)

:func:`make_timing` resolves a CLI-style spec string
(``name[:k=v,...]``, e.g. ``overhead:spawn=8,squash=4``) or passes an
existing :class:`~repro.timing.base.TimingModel` through unchanged.
Every error raised for a bad spec is a :class:`ValueError` with a
human-readable message, so callers (the runner) can surface it as a
clean CLI error rather than a traceback.
"""

from repro.timing.base import TimingModel

_REGISTRY = {}      # name -> (factory, valid param names)


def register_timing(name, params=()):
    """Decorator registering a timing-model factory under *name*.

    *params* lists the keyword arguments the factory accepts; specs
    naming any other parameter are rejected up front.  Re-registering
    the same factory is allowed; a different one under a taken name
    raises.
    """
    def wrap(factory):
        existing = _REGISTRY.get(name)
        if existing is not None \
                and existing[0].__qualname__ != factory.__qualname__:
            raise ValueError("timing model %r already registered" % name)
        _REGISTRY[name] = (factory, tuple(params))
        return factory
    return wrap


def timing_names():
    """Registered model names, in registration order."""
    return list(_REGISTRY)


def parse_timing_spec(spec):
    """Split ``name[:k=v,...]`` into ``(name, {param: int})``."""
    name, _, rest = spec.strip().partition(":")
    name = name.strip()
    if not name:
        raise ValueError("empty timing-model name in %r" % spec)
    params = {}
    if rest:
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    "malformed timing parameter %r in %r "
                    "(expected k=v)" % (item, spec))
            try:
                params[key] = int(value.strip())
            except ValueError:
                raise ValueError(
                    "timing parameter %r in %r is not an integer"
                    % (item, spec)) from None
    return name, params


def make_timing(spec):
    """A :class:`TimingModel` from *spec*.

    *spec* is ``None`` (the ideal model), an existing model instance
    (returned as-is), or a ``name[:k=v,...]`` string resolved through
    the registry.
    """
    if spec is None:
        from repro.timing.models import IdealTiming
        return IdealTiming()
    if isinstance(spec, TimingModel):
        return spec
    name, params = parse_timing_spec(spec)
    try:
        factory, valid = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown timing model %r (known: %s)"
            % (name, ", ".join(timing_names()))) from None
    unknown = sorted(set(params) - set(valid))
    if unknown:
        raise ValueError(
            "unknown parameter(s) %s for timing model %r (valid: %s)"
            % (", ".join(unknown), name,
               ", ".join(valid) if valid else "none"))
    return factory(**params)
