import dataclasses
import subprocess
import sys

import pytest

from lievessiot.elliptic import PendulumAudit, TangencyReport
from lievessiot.homspace import ReductionResult

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


def test_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, lievessiot, lievessiot.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=src_env())
    assert proc.returncode == 0 and proc.stdout == "[]\n"
