"""Value records hash like the tuple of their compared fields, computed on
first use and kept in the one slot `Record` declares."""

import pytest

from prolong.cohomology import pi_module
from prolong.extensions import ShortExtension
from prolong.fixtures import builtin
from prolong.groups import Homomorphism


def _records():
    """A fresh PiModule, Homomorphism and ShortExtension, each with the
    fields its equality compares."""
    z2, z3, z6 = builtin("Z2"), builtin("Z3"), builtin("Z6")
    module = pi_module(z2, z3, ((0, 1, 2), (0, 2, 1)))
    j = Homomorphism(z3, z6, (0, 2, 4))
    p = Homomorphism(z6, z2, (0, 1, 0, 1, 0, 1))
    row = ShortExtension(j, p)
    return [(module, ("pi", "a", "action")), (j, ("source", "target", "map")),
            (row, ("a", "b", "g", "j", "p"))]


@pytest.mark.parametrize("index", range(3))
def test_value_record_stores_the_hash_of_its_compared_fields(index):
    obj, fields = _records()[index]
    with pytest.raises(AttributeError):
        obj._hash                       # nothing stored before the first call
    expected = hash(tuple(getattr(obj, name) for name in fields))
    assert hash(obj) == expected
    assert obj._hash == expected        # stored by the first call
    assert hash(obj) == expected
