"""Frozen records: the class decorator behind mpde's result and data types.

``@record`` gives a class of annotated fields an ``__init__`` taking the
fields positionally or by keyword (trailing fields may have defaults) that
calls ``__post_init__`` if the class has one, ``__repr__``, ``__eq__`` and
``__hash__`` on the field tuple, ``__match_args__``, and assignment and
deletion that raise AttributeError: what the standard library's frozen
data classes give.  The methods are closures, so decorating a class
compiles no code, and the module needs only ``operator`` (which ``fractions``
loads anyway) where the standard library's data class module loads
``inspect``; a cold ``mpde`` call starts faster for it.
"""

from __future__ import annotations

import operator


def record(cls):
    """Make ``cls`` a frozen record of the fields it annotates itself.

    A field's default is the value the class body assigns to it.  Fields
    are set with ``object.__setattr__``, which ``__post_init__`` may use to
    reset them; ``functools.cached_property`` stores its values in the
    instance ``__dict__``.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names
                if name in cls.__dict__}
    if any(name not in defaults for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows "
                        f"one with a default")
    post_init = getattr(cls, "__post_init__", None)
    title = f"{cls.__name__}.__init__()"
    # not through ``self.__dict__``: reading it would turn the instance's
    # inline attribute values into a dict, and every field read slower
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title} takes {len(names) + 1} positional "
                            f"arguments but {len(args) + 1} were given")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in defaults:
                set_field(self, name, defaults[name])
            else:
                raise TypeError(f"{title} missing required argument {name!r}")
        if kwargs:  # a keyword naming no field, or a field given by position
            name = next(iter(kwargs))
            fault = ("multiple values for argument" if name in names
                     else "an unexpected keyword argument")
            raise TypeError(f"{title} got {fault} {name!r}")
        if post_init is not None:
            post_init(self)

    get = operator.attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join([f"{name}={getattr(self, name)!r}"
                             for name in names]) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
