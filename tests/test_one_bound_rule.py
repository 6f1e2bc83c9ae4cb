"""Every number of a run config and of a checkpoint header is bounded by `schema.within`.

A new int or float field needs a `within` declaration on the field, or an
entry in `helpers.UNBOUNDED` saying why it has none; and each class holding
a bounded field runs `schema.check_bounds` on construction, so no class
writes its own range check for one field.
"""

import dataclasses
import math
import re

import pytest
from helpers import UNBOUNDED, number_fields

from icdscribe.checkpoint import CheckpointHeader
from icdscribe.config import RunConfig
from icdscribe.errors import ContractError
from icdscribe.schema import Interval, within

ROOTS = (RunConfig, CheckpointHeader)
FIELDS = {f"{cls.__name__}.{f.name}": f for root in ROOTS for _, cls, f in number_fields(root)}


def instances(obj):
    """`obj` and every dataclass instance under it."""
    yield obj
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if dataclasses.is_dataclass(item):
                yield from instances(item)


def bounded_values():
    """(instance, field name, its Interval) of each bounded field, on default-built roots."""
    header = CheckpointHeader(RunConfig(), ["a"], step=0, parameters=[], optimizer=0)
    seen = set()
    for obj in instances(header):
        for f in dataclasses.fields(obj):
            key = f"{type(obj).__name__}.{f.name}"
            if "within" in f.metadata and key not in seen:
                seen.add(key)
                yield pytest.param(obj, f.name, f.metadata["within"], id=key)


def test_every_number_is_bounded_or_named_unbounded():
    unbounded = {name for name, f in FIELDS.items() if "within" not in f.metadata}
    assert unbounded == set(UNBOUNDED)


def test_every_bounded_field_is_reached():
    reached = {value.id for value in bounded_values()}
    assert reached == {name for name, f in FIELDS.items() if "within" in f.metadata}


@pytest.mark.parametrize("obj, name, bound", bounded_values())
def test_construction_refuses_nan_and_values_past_each_end(obj, name, bound):
    for value in (math.nan, bound.low - 1, bound.high + 1):
        if value in bound:  # `- 1` and `+ 1` do not move an infinite end
            continue
        with pytest.raises(ContractError, match=re.escape(f"{name} {value} outside {bound}")):
            dataclasses.replace(obj, **{name: value})


def test_brackets_close_or_open_each_end():
    for ends, inside in [("[]", [0.0, 0.5, 1.0]), ("()", [0.5]), ("[)", [0.0, 0.5]),
                         ("(]", [0.5, 1.0])]:
        bound = Interval(0.0, 1.0, ends)
        assert [v for v in (-1e-300, 0.0, 0.5, 1.0, 1.0 + 1e-15) if v in bound] == inside
        assert str(bound) == f"{ends[0]}0, 1{ends[1]}"


def test_an_infinite_high_is_open_unless_closed_by_name():
    assert within(1)["within"] == Interval(1, math.inf, "[)")
    assert math.inf not in within(1)["within"]
    assert math.inf in within(-100.0, math.inf, "[]")["within"]
