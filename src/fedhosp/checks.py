"""The one value check of every config field, option and wire message field,
and of ``HospitalDataset`` and ``metrics.EvalResult``: its annotated type, where
a bool counts only as a bool, an int also as a float, a float must be finite and
a ``tuple[X, ...]`` holds only Xs; then, where a class asks, its minimum or its
fixed set of allowed values. A class states the rules of the fields it holds, and
a sub-config's field has its ``ExperimentConfig`` key's name, so an error names
the key a user set. Also ``MAX_PARAMS``, the largest model, which bounds a frame
on the wire too."""

from __future__ import annotations

import math
from functools import cache
from typing import get_args, get_origin, get_type_hints

__all__ = ["MAX_PARAMS", "check_type", "check_choice", "check_fields"]

# Bound on ModelArch.n_params, and so on the length of a frame on the wire:
# 67x the 14,801 of a 294-input, 50-unit MLP.
# A federation holds about two dozen float64 vectors of that length (per
# hospital the model, Adam's four-vector workspace and frames on the wire;
# the server's copies and its aggregate). Measured as the growth of peak RSS
# (ru_maxrss) over the RSS before the call, a 2-round, 2-hospital in-process
# run_federation of a 5000-input, 50-unit MLP (250,101 parameters), its
# hospitals answering inline, peaks at about 145 bytes per parameter: about
# 0.15 GB at the bound.
MAX_PARAMS = 1_000_000


@cache
def _rule(kind) -> tuple[tuple[type, ...], bool, object, str, frozenset]:
    """What ``check_type`` asks of a ``kind``: the types a value may have, whether a bool
    counts, ``tuple[X, ...]``'s X, its name, and the exact types whose every value
    passes (not float: it must also be finite)."""
    each = get_args(kind)[0] if get_origin(kind) is tuple else None
    kinds = (tuple,) if each else get_args(kind) or (kind,)
    allowed = kinds + (int,) if float in kinds else kinds
    name = kind.__name__ if type(kind) is type else str(kind)
    return allowed, bool in kinds, each, name, frozenset(allowed) - {float, tuple}


def check_type(key: str, value, kind) -> None:
    """Raise ValueError naming ``key`` unless ``value`` is a ``kind``: a type, a union
    such as ``str | None``, or a ``tuple[X, ...]``, checked item by item."""
    allowed, bool_counts, each, name, _ = _rule(kind)
    if not isinstance(value, allowed) or (not bool_counts and isinstance(value, bool)):
        raise ValueError(f"{key} must be {name}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    # One pass over the items' types; only then, to name the first bad item, one by one.
    if each is not None and not _rule(each)[4].issuperset(map(type, value)):
        for i, item in enumerate(value):
            check_type(f"{key}[{i}]", item, each)


def check_choice(key: str, value, choices: tuple) -> None:
    """Raise ValueError naming ``key`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{key} must be one of {choices}, got {value!r}")


_type_hints = cache(get_type_hints)  # per class: its annotated fields' types


def check_fields(obj, **rules: int | tuple) -> None:
    """``check_type`` of every annotated field of the dataclass ``obj``, then each
    rule: a tuple is the field's allowed values (``check_choice``), an int its
    minimum (``<field> must be >= <minimum>``)."""
    for name, kind in _type_hints(type(obj)).items():
        check_type(name, getattr(obj, name), kind)
    for name, rule in rules.items():
        value = getattr(obj, name)
        if type(rule) is tuple:
            check_choice(name, value, rule)
        elif value < rule:
            raise ValueError(f"{name} must be >= {rule}, got {value}")
