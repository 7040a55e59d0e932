import pytest

from shockstab.scheme import Scheme


def test_label_names_variant_at_fifth_order_and_cap():
    assert Scheme(solver="hll", order=1).label() == "hll-o1/primitive"
    assert Scheme(solver="roe", order=5, space="characteristic").label() == "roe-o5-z/characteristic"
    # capped and uncapped schemes are told apart, hybrids included
    assert Scheme(cap="first").label() != Scheme().label()
    assert Scheme(solver="hybrid-1", cap="second").label() != Scheme(solver="hybrid-1").label()


@pytest.mark.parametrize("name, value", [
    ("space", "primtive"),
    ("weno_variant", "jz"),
    ("roe_delta0", 0.0),
    ("roe_delta0", float("inf")),
    ("solver", "rusanov"),
    ("order", 3),
    ("cap", "third"),
])
def test_invalid_scheme_rejected_at_construction(name, value):
    with pytest.raises(ValueError):
        Scheme(**{name: value})
