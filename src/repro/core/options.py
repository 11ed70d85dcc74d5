"""The options schema: every run and compile knob declared once.

A knob is a dataclass field declared with :func:`knob`, which keeps its
help text, bounds, choices and CLI flag in the field's metadata; its
type is the field's annotation.  ``CompileOptions``, ``RunOptions`` and
``RetryPolicy`` declare every knob this way, and each consumer reads
that one declaration:

* the library -- the options classes call :func:`check` from
  ``__post_init__``, so a bad value raises :class:`OptionError` (a
  :class:`ValueError`) however it arrived;
* the ``verilog2qmasm`` CLI -- :func:`add_arguments` generates the
  flags and :func:`from_args` builds the options from them;
* the service -- :func:`check_value` checks each submitted wire field
  against the knob it maps to.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing
from typing import Any, Dict, Optional, Sequence, Tuple, Union

#: Accepted value classes and their description, by annotated type.
#: ``bool`` is an ``int`` in Python, so other kinds reject it explicitly.
_KINDS: Dict[type, Tuple[Tuple[type, ...], str]] = {
    int: ((numbers.Integral,), "an integer"),
    float: ((numbers.Real,), "a number"),
    bool: ((bool,), "a boolean"),
    str: ((str,), "a string"),
    tuple: ((tuple, list), "a list"),
    dict: ((dict,), "an object"),
}
_SCHEMA_KEYS = {"minimum", "maximum", "exclusive_minimum", "choices", "const", "metavar"}


class OptionError(ValueError):
    """A knob value outside its declared type, bounds or choices.

    Attributes:
        name: the field name (library keyword and service wire field).
        reason: the violation, worded to follow the name
            (``"must be >= 1, got 0"``).
        flag: the knob's canonical CLI flag, or None.
    """

    def __init__(self, name: str, reason: str, flag: Optional[str] = None):
        super().__init__(f"{name} {reason}")
        self.name = name
        self.reason = reason
        self.flag = flag


def knob(
    default: Any, *, help: str, flag: Union[None, str, Sequence[str]] = None, **schema: Any
) -> Any:
    """Declare a user-facing option field.

    Args:
        default: the library default (a consumer may override it, as
            the CLI does with 1000 reads).
        help: one-line documentation; also the CLI flag's help.
        flag: CLI option string(s), canonical first; None keeps the knob
            off the command line.
        **schema: ``minimum``/``maximum`` (inclusive),
            ``exclusive_minimum``, ``choices`` (for a tuple field, the
            allowed elements), ``const`` (the flag takes no argument and
            stores this value) and ``metavar`` (integers default to N).
    """
    unknown = set(schema) - _SCHEMA_KEYS
    if unknown:
        raise TypeError(f"unknown knob schema key(s): {sorted(unknown)}")
    flags = (flag,) if isinstance(flag, str) else flag
    return dataclasses.field(default=default, metadata={"help": help, "flag": flags, **schema})


@functools.lru_cache(maxsize=None)
def _kinds(cls: type) -> Dict[str, Tuple[type, bool]]:
    """``{field: (base type, optional)}`` resolved from annotations."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        optional = typing.get_origin(hint) is Union and type(None) in args
        if optional:
            hint = next(a for a in args if a is not type(None))
        kinds[name] = (typing.get_origin(hint) or hint, optional)
    return kinds


def _check(cls: type, field: dataclasses.Field, value: Any) -> None:
    meta = field.metadata
    kind, optional = _kinds(cls)[field.name]
    if value is None and optional:
        return

    def fail(reason: str) -> None:
        flag = meta["flag"][0] if meta.get("flag") else None
        raise OptionError(field.name, reason, flag)

    accepted, description = _KINDS[kind]
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        fail(f"must be {description}")
    choices = meta.get("choices")
    if choices is not None:
        unknown = [v for v in (value if kind is tuple else (value,)) if v not in choices]
        if unknown:
            allowed = ", ".join(map(str, choices))
            fail(f"must be one of {allowed}, got {', '.join(map(str, unknown))}")
    if "minimum" in meta and value < meta["minimum"]:
        fail(f"must be >= {meta['minimum']}, got {value}")
    if "exclusive_minimum" in meta and value <= meta["exclusive_minimum"]:
        fail(f"must be > {meta['exclusive_minimum']}, got {value}")
    if "maximum" in meta and value > meta["maximum"]:
        fail(f"must be <= {meta['maximum']}, got {value}")


def check(options: Any) -> None:
    """Validate every knob of a dataclass instance (``__post_init__``)."""
    for field in dataclasses.fields(options):
        if "help" in field.metadata:
            _check(type(options), field, getattr(options, field.name))


def check_value(cls: type, name: str, value: Any) -> None:
    """Validate one value against field ``name`` of dataclass ``cls``."""
    _check(cls, cls.__dataclass_fields__[name], value)


def _flagged(cls: type) -> list:
    return [f for f in dataclasses.fields(cls) if f.metadata.get("flag")]


def add_arguments(parser: Any, cls: type, defaults: Optional[Dict[str, Any]] = None) -> None:
    """Add an ``argparse`` flag, stored under the field name, for every
    knob of ``cls`` that has one; ``defaults`` overrides declared ones."""
    for field in _flagged(cls):
        meta = field.metadata
        kind, _ = _kinds(cls)[field.name]
        kwargs: Dict[str, Any] = {
            "dest": field.name,
            "default": (defaults or {}).get(field.name, field.default),
            "help": meta["help"],
        }
        if "const" in meta:
            kwargs.update(action="store_const", const=meta["const"])
        elif kind is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs.update(
                type=kind,
                choices=meta.get("choices"),
                metavar=meta.get("metavar", "N" if kind is int else None),
            )
        parser.add_argument(*meta["flag"], **kwargs)


def from_args(cls: type, args: Any, **extra: Any) -> Any:
    """Build ``cls`` from flags parsed per :func:`add_arguments`;
    ``extra`` supplies or overrides fields (nested policies, implied
    flags).  Raises :class:`OptionError` naming the flag."""
    values = {field.name: getattr(args, field.name) for field in _flagged(cls)}
    return cls(**{**values, **extra})
