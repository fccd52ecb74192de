"""The one value check of every config field, option and wire message field,
and of ``HospitalDataset`` and ``metrics.EvalResult``: its annotated type, where
a bool counts only as a bool, an int also as a float, and a float must be finite."""

from __future__ import annotations

import math
from functools import cache
from typing import get_args, get_origin, get_type_hints

__all__ = ["check_type", "check_fields"]


@cache
def _rule(kind) -> tuple[tuple[type, ...], bool, tuple, object, str]:
    """What ``check_type`` asks of a ``kind``: the types a value may have, whether a bool
    counts, a ``tuple[...]``'s (index, item kind)s or ``tuple[X, ...]``'s X, and its name."""
    args = get_args(kind) if get_origin(kind) is tuple else ()
    each = args[0] if args[1:] == (Ellipsis,) else None
    items = () if each else tuple(enumerate(args))
    kinds = (tuple,) if args else get_args(kind) or (kind,)
    allowed = kinds + (int,) if float in kinds else kinds
    return allowed, bool in kinds, items, each, kind.__name__ if type(kind) is type else str(kind)


def check_type(key: str, value, kind) -> None:
    """Raise ValueError naming ``key`` unless ``value`` is a ``kind``: a type, a union
    such as ``str | None``, or a ``tuple[...]`` or ``tuple[X, ...]``, checked item by item."""
    allowed, bool_counts, items, each, name = _rule(kind)
    if (not isinstance(value, allowed) or (not bool_counts and isinstance(value, bool))
            or items and len(value) != len(items)):
        raise ValueError(f"{key} must be {name}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    for i, item_kind in items:
        check_type(f"{key}[{i}]", value[i], item_kind)
    if each is not None:
        for i, item in enumerate(value):
            check_type(f"{key}[{i}]", item, each)


_type_hints = cache(get_type_hints)  # per class: its annotated fields' types


def check_fields(obj, **minimums: int) -> None:
    """``check_type`` of every annotated field of the dataclass ``obj``, then
    ``<field> must be >= <minimum>`` for each field given below its minimum."""
    for name, kind in _type_hints(type(obj)).items():
        check_type(name, getattr(obj, name), kind)
    for name, minimum in minimums.items():
        if getattr(obj, name) < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {getattr(obj, name)}")
