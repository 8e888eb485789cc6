import dataclasses
import subprocess
import sys

import pytest

from lievessiot.automorphic import AutomorphicField, GroupElement
from lievessiot.darboux import SO3Field, SpherePoint
from lievessiot.elliptic import (CurvePoint, PendulumAudit, PendulumParams, TangencyReport,
                                 WeierstrassCurve)
from lievessiot.homspace import (FlagCoords, FlagSystem, PlaneCoords, ReductionResult,
                                  RiccatiSystem)
from lievessiot.parsing import parse_matrix, parse_ratfunc

from support import src_env


@pytest.mark.parametrize("cls", [ReductionResult, TangencyReport, PendulumAudit])
def test_record_behaves_like_a_frozen_dataclass(cls):
    names = cls.__slots__
    ref = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    values = [f"v{k}" for k in range(len(names))]
    record = cls(*values)
    assert repr(record) == repr(ref(*values))
    assert record == cls(**dict(zip(names, values)))
    assert hash(record) == hash(cls(*values))
    assert record != cls(*values[:-1], "other")
    assert record != ref(*values)
    with pytest.raises(AttributeError):
        setattr(record, names[0], "other")
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)


# Each builds a fresh value from fresh parses, so equal values share no field objects.
VALUES = {
    "PlaneCoords": lambda: PlaneCoords(3, 1, parse_matrix("[t; 1/t]")),
    "FlagCoords": lambda: FlagCoords(parse_matrix("[1, 0; t, 1]")),
    "RiccatiSystem": lambda: RiccatiSystem(parse_matrix("[t, 1; 0, -t]"), 1),
    "FlagSystem": lambda: FlagSystem(parse_matrix("[t, 1; 0, -t]")),
    "SO3Field": lambda: SO3Field(parse_ratfunc("t"), 1, parse_ratfunc("1/t")),
    "SpherePoint": lambda: SpherePoint("3/5", "4/5", 0),
    "WeierstrassCurve": lambda: WeierstrassCurve(4, -4),
    "CurvePoint": lambda: CurvePoint(parse_ratfunc("1"), parse_ratfunc("2")),
    "CurvePoint.infinity": CurvePoint.infinity,
    "PendulumParams": lambda: PendulumParams(2),
    "AutomorphicField": lambda: AutomorphicField(parse_matrix("[0, 1; t, 0]")),
    "GroupElement": lambda: GroupElement(parse_matrix("[1, t; 0, 1]")),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_value_types_are_immutable_and_hashable(make):
    value, same = make(), make()
    assert value is not same and value == same and hash(value) == hash(same)
    # every field, the caches of the two-form matrices and the size property n
    fields = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    for name in fields + ["n"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same


def test_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, lievessiot, lievessiot.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=src_env())
    assert proc.returncode == 0 and proc.stdout == "[]\n"
