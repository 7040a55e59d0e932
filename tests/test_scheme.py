from dataclasses import replace

import pytest

from shockstab.reconstruction import config_for_cap, config_for_order
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


@pytest.mark.parametrize("scheme", [Scheme(), Scheme(cap="second", space="characteristic"),
                                    Scheme(solver="hybrid-1", cap="smoothest-third")])
def test_configs_are_built_once_per_scheme(scheme):
    # rhs asks for both configs on every call; they are made at construction
    for axis in ("x", "y"):
        _, order = scheme.per_direction(axis)
        recon = config_for_order(order, weno_variant=scheme.weno_variant, space=scheme.space)
        assert scheme.recon_config(axis) == recon
        assert scheme.recon_config(axis) is scheme.recon_config(axis)
        cap = None if scheme.cap == "none" else config_for_cap(scheme.cap, recon)
        assert scheme.cap_config(axis) == cap
        assert scheme.cap_config(axis) is scheme.cap_config(axis)
    # the cache is no field: equal schemes compare and hash alike
    assert scheme == replace(scheme) and hash(scheme) == hash(replace(scheme))
