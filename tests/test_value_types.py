"""The value types are frozen, slotted dataclasses: no instance dict, no
field assignment, and equal instances hash alike."""

import dataclasses

import pytest

from bigmcg import gf2hom, qinf, shark

from strategies import frac_twist

# each factory builds a fresh instance
EXAMPLES = {
    shark.EndPerm: lambda: shark.compose(shark.shift_power(2), frac_twist(-1, 2)),
    shark.Nu: lambda: shark.Nu(frac_twist(1, 3)),
    shark.Shift: lambda: shark.Shift(-1),
    shark.GenWord: lambda: shark.GenWord((shark.Shift(1), shark.Nu(frac_twist(-2, 0)))),
    qinf.BinarySeq: lambda: qinf.BinarySeq((2, 3, 5)),
    gf2hom.GradedAut: lambda: gf2hom.GradedAut.from_rows(2, 1, 0, [0b10, 0b01, 0b1000, 0b0100]),
}


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_value_type_is_frozen_and_slotted(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert not hasattr(a, "__dict__")
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field.name, getattr(a, field.name))
