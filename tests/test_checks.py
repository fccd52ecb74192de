"""The one value check: every field of every public config class, and every
scalar or ``tuple`` field of every wire message, ``HospitalDataset``,
``metrics.EvalResult``, ``Points`` and ``FeatureMatrix``, refuses a value of
the wrong type, a bool for a number and a non-finite float, naming the field
in the rule's words. The cases are
generated from the classes' annotations and from ``transport.MESSAGE_TYPES``,
so a field or message added later is covered without editing this file. Every
field that holds one of a fixed set of names refuses any other by one rule."""

from __future__ import annotations

import math
import re
from dataclasses import fields
from typing import get_args, get_type_hints

import numpy as np
import pytest

from fedhosp import metrics, transport
from fedhosp.checks import check_type
from fedhosp.data import HospitalDataset, PartitionPlan, SyntheticConfig
from fedhosp.experiment import ExperimentConfig
from fedhosp.features import FeatureMatrix, Points
from fedhosp.federation import FedConfig, local_test_accuracy
from fedhosp.models import ModelArch, TrainConfig

# wire type -> a valid value of a message field
_WIRE_VALID = {"u32": 1, "u64": 1, "f64": 0.5, "params": np.zeros(1)}

# class -> the arguments of a valid instance
VALID = {
    SyntheticConfig: {"n_episodes": 100},
    PartitionPlan: {"strategy": "equal_iid", "n_hospitals": 2},
    ModelArch: {"kind": "mlp", "input_dim": 3},
    TrainConfig: {"epochs": 1, "seed": 0},
    FedConfig: {"n_hospitals": 2, "rounds": 1},
    ExperimentConfig: {},
    HospitalDataset: {"hospital_id": 0, "train_x": np.zeros((2, 3)), "train_y": [0, 1],
                      "test_x": np.zeros((1, 3)), "test_y": [1]},
    metrics.EvalResult: {"auroc": 0.5, "auprc": 0.5, "accuracy": 0.5, "n": 1},
    Points: {"episode_ids": ("a", "b"), "labels": np.array([0, 1]), "variables": ("hr",),
             "episode": np.array([1]), "variable": np.array([0]), "hour": np.array([1.0]),
             "value": np.array([2.0])},
    FeatureMatrix: {"rows": np.zeros((2, 42)), "episode_ids": ("a", "b"),
                    "labels": np.array([0, 1]), "variables": ("hr",)},
    **{cls: {name: _WIRE_VALID[wire] for name, wire in cls.FIELDS}
       for cls in transport.MESSAGE_TYPES if cls.FIELDS},
}
# annotation -> values of the wrong type, or non-finite; arrays have their own tests
WRONG = {
    np.ndarray: (),
    int: (2.5, True, np.int64(3), "3", None),
    float: (math.nan, math.inf, -math.inf, np.float32(0.5), "0.5", True, None),
    bool: (1, "yes", None),
    str: (3, b"x", None),
    str | None: (3, b"x"),
    tuple[str, ...]: (("a", 3), (None, "b"), ["a", "b"], "ab", None),
}


def _cases():
    for cls, valid in VALID.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            for value in WRONG[hints[f.name]]:
                yield pytest.param(cls, valid, f.name, hints[f.name], value,
                                   id=f"{cls.__name__}.{f.name}={value!r}")


def _rule_words(kind) -> str:
    """A pattern of the rule's words for a wrong ``kind`` value: the name of the
    kind or of one of its parts, or ``finite``."""
    names = (k.__name__ if type(k) is type else str(k) for k in (kind, *get_args(kind)))
    return "|".join(map(re.escape, (*names, "finite")))


@pytest.mark.parametrize("cls, valid, name, kind, value", _cases())
def test_every_config_field_refuses_a_wrong_value_by_name(cls, valid, name, kind, value):
    cls(**valid)
    with pytest.raises(ValueError, match=rf"^{name}(\[\d\])? must be ({_rule_words(kind)}), got "):
        cls(**{**valid, name: value})


@pytest.mark.parametrize("value, kind, message", [
    (1, float, None),
    (1.5, float, None),
    (True, bool, None),
    (None, str | None, None),
    (True, int, "x must be int, got True"),
    (math.nan, float, "x must be finite, got nan"),
    (-math.inf, float | None, "x must be finite, got -inf"),
    (3, str | None, "x must be str | None, got 3"),
    ((), tuple[str, ...], None),
    (("a", "b", "c"), tuple[str, ...], None),
    (("a", "b", 3), tuple[str, ...], "x[2] must be str, got 3"),
    (["a"], tuple[str, ...], "x must be tuple[str, ...], got ['a']"),
    ((1, 0.5, math.nan), tuple[float, ...], "x[2] must be finite, got nan"),
    ((np.str_("a"), "b"), tuple[str, ...], None),
    ((1, 2, True), tuple[int, ...], "x[2] must be int, got True"),
    ((1, 2.0), tuple[float, ...], None),
])
def test_check_type_states_the_one_rule(value, kind, message):
    if message is None:
        check_type("x", value, kind)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_type("x", value, kind)


@pytest.mark.parametrize("owner, field", [
    (ModelArch, "kind"), (FedConfig, "gate_metric"), (PartitionPlan, "strategy"),
    (ExperimentConfig, "model"), (ExperimentConfig, "mode"),
    (ExperimentConfig, "gate_metric"), (ExperimentConfig, "partition_strategy"),
    (local_test_accuracy, "gate_metric"),
], ids=lambda x: getattr(x, "__name__", x))
def test_every_choice_field_refuses_an_unknown_name_by_the_one_rule(owner, field):
    with pytest.raises(ValueError, match=rf"^{field} must be one of \(.*\), got 'f1'$"):
        if owner is local_test_accuracy:
            arch = ModelArch("lr", input_dim=3)
            owner(HospitalDataset(**VALID[HospitalDataset]), np.zeros(arch.n_params), arch, "f1")
        else:
            owner(**{**VALID[owner], field: "f1"})
