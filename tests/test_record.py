"""Each genfields record class against a twin that dataclasses builds from the same fields."""

import dataclasses

import numpy as np
import pytest

from genfields import (
    ArchSpec,
    ChannelStats,
    EulerAngles,
    FieldRecord,
    FieldTable,
    FootprintResult,
    LayerRange,
    LayerSpec,
    MaskPlan,
    ReuseTable,
    Semantics,
    SparsityReport,
    StyleLayout,
    TopKSet,
)

VEC = np.array([0.5, 1.5])

# class: (eq, the fields of one instance in order, one field changed as (name, value))
CASES = {
    LayerSpec: (True, ("conv0", 3, 1, 4, 4), ("style_label", "s0")),
    ArchSpec: (True, ("a", 4, (LayerSpec("conv0", 3, 1, 4, 4),)), ("base_resolution", 8)),
    FieldRecord: (True, ("conv0", "s0", 4, 3, 4), ("generative_field", 5)),
    FieldTable: (True, ("a", (FieldRecord("conv0", None, 4, 3, 4),)), ("notes", ("note",))),
    EulerAngles: (True, (0.1, -0.2, 0.3), ("roll", 0.0)),
    FootprintResult: (True, (1, Semantics.NEAREST, 2, 5, 7, False), ("clipped", True)),
    ChannelStats: (False, (VEC, VEC + 1, 3, 1e-8), ("sample_count", 0)),
    SparsityReport: (False, (VEC, VEC, 0.5, 2), ("tests", 3)),
    TopKSet: (True, (2, frozenset({3, 1})), ("k", 3)),
    ReuseTable: (False, ((1, 3), {1: 0.5, 3: 1.0}, np.eye(2)), ("rates", {})),
    LayerRange: (True, ("conv0", None, 4, 0, 4), ("stop", 5)),
    StyleLayout: (True, ("a", (LayerRange("conv0", "s0", 4, 0, 4),)), ("arch_name", "b")),
    MaskPlan: (False, (("conv0",), (3, 3), range(0, 4), 8), ("total_dims", 9)),
}


def _twin(cls, eq):
    """``@dataclass(frozen=True, eq=eq)`` over ``cls``'s annotated fields, defaults and checks."""
    defaults = vars(cls)
    specs = [(name, object, dataclasses.field(default=defaults[name])) if name in defaults
             else (name, object) for name in cls.__annotations__]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True, eq=eq)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    eq, values, (changed, value) = CASES[cls]
    twin = _twin(cls, eq)
    names = cls.__match_args__
    assert names == twin.__match_args__
    kwargs = dict(zip(names, values))
    mine = cls(*values), cls(**dict(reversed(kwargs.items()))), cls(**{**kwargs, changed: value})
    theirs = twin(*values), twin(**kwargs), twin(**{**kwargs, changed: value})

    assert [repr(obj) for obj in mine] == [repr(obj) for obj in theirs]
    for obj in mine:
        assert list(vars(obj)) == list(names)
    assert all(vars(mine[0])[name] is v for name, v in zip(names, values))

    def relations(a, b, other):
        return a == a, a == b, a != b, a == other, a != other

    assert relations(*mine) == relations(*theirs) == (True, eq, not eq, False, True)
    assert mine[0] != theirs[0]
    if eq:
        assert hash(mine[0]) == hash(mine[1]) == hash(theirs[0]) == hash(theirs[1])
    else:
        assert hash(mine[0]) == object.__hash__(mine[0])

    for obj in (mine[0], theirs[0]):
        for name in (names[0], "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)

    for make in (cls, twin):
        with pytest.raises(TypeError):
            make(**{name: v for name, v in kwargs.items() if name != names[0]})
        with pytest.raises(TypeError):
            make(*values, unknown=1)
        with pytest.raises(TypeError):
            make(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError):
            make(*range(len(names) + 1))


@pytest.mark.parametrize("cls, values", [
    (EulerAngles, (0.1, 2.0, 0.0)),
    (ChannelStats, (VEC, VEC, 3, 1.0)),
    (ChannelStats, (VEC, np.array([0.5]), 3, 1e-8)),
], ids=["EulerAngles", "ChannelStats-floor", "ChannelStats-shape"])
def test_record_validators_still_raise(cls, values):
    errors = []
    for make in (cls, _twin(cls, CASES[cls][0])):
        with pytest.raises(ValueError) as info:
            make(*values)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
