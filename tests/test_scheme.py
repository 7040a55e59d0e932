import itertools
from dataclasses import replace

import numpy as np
import pytest

from shockstab.reconstruction import ReconConfig
from shockstab.scheme import CAP_TO_KIND, HYBRID_PARTS, ORDER_TO_KIND, Scheme


def test_label_names_variant_at_fifth_order_and_cap():
    assert Scheme(solver="hll", order=1).label() == "hll-o1/primitive"
    assert Scheme(solver="roe", order=5, space="characteristic").label() == "roe-o5-z/characteristic"
    # capped and uncapped schemes are told apart, hybrids included
    assert Scheme(cap="first").label() != Scheme().label()
    assert Scheme(solver="hybrid-1", cap="second").label() != Scheme(solver="hybrid-1").label()
    # a hybrid's fifth-order part reconstructs with the WENO variant
    assert Scheme(solver="hybrid-1", weno_variant="js").label() == "hybrid-1-js/primitive"


def _part_signature(scheme):
    """What a scheme computes: per part the faces, solver, kind, space and
    cap, and the WENO variant of a fifth-order part."""
    return [
        (orientations, solver, cfg.kind, cfg.space, cap and (cap.kind, cap.space),
         cfg.weno_variant if cfg.kind == "weno5" else None)
        for orientations, solver, cfg, cap in scheme.parts
    ]


def test_equal_labels_build_equal_parts():
    # error messages name a scheme by its label: two schemes that share one
    # must compute the same faces the same way
    by_label = {}
    for solver, order, variant, space, cap in itertools.product(
            ("roe", "hll", "hllc", "van_leer", *HYBRID_PARTS), (1, 2, 5), ("js", "z"),
            ("conservative", "primitive", "characteristic"),
            ("none", "first", "second", "smoothest-third")):
        if solver in HYBRID_PARTS and order != 5:
            continue  # a hybrid takes its orders from HYBRID_PARTS
        scheme = Scheme(solver=solver, order=order, weno_variant=variant, space=space, cap=cap)
        by_label.setdefault(scheme.label(), []).append(_part_signature(scheme))
    for label, signatures in by_label.items():
        assert all(s == signatures[0] for s in signatures), label


@pytest.mark.parametrize("settings", [
    pytest.param({"space": "primtive"}, id="space-primtive"),
    pytest.param({"weno_variant": "jz"}, id="weno_variant-jz"),
    pytest.param({"solver": "rusanov"}, id="solver-rusanov"),
    pytest.param({"order": 3}, id="order-3"),
    # an order is an integer: a bool or a float of an allowed order is refused
    pytest.param({"order": True}, id="order-True"),
    pytest.param({"order": 5.0}, id="order-5.0"),
    pytest.param({"order": np.float64(2)}, id="order-float64-2"),
    pytest.param({"cap": "third"}, id="cap-third"),
    # a hybrid's orders come from HYBRID_PARTS: any other order is ignored
    pytest.param({"solver": "hybrid-1", "order": 1}, id="hybrid-1-order-1"),
    pytest.param({"solver": "hybrid-2", "order": 2}, id="hybrid-2-order-2"),
])
def test_invalid_scheme_rejected_at_construction(settings):
    with pytest.raises(ValueError):
        Scheme(**settings)


def test_numpy_integer_order_is_accepted():
    scheme = Scheme(order=np.int64(2))
    assert scheme == Scheme(order=2) and scheme.label() == Scheme(order=2).label()


@pytest.mark.parametrize("scheme", [Scheme(), Scheme(cap="second", space="characteristic"),
                                    Scheme(solver="hybrid-1", cap="smoothest-third")])
def test_configs_are_built_once_per_scheme(scheme):
    # rhs asks for the parts on every call; they are made at construction
    assert scheme.parts is scheme.parts
    assert [orientations for orientations, *_ in scheme.parts] == (
        [("x",), ("y",)] if scheme.solver in HYBRID_PARTS else [("x", "y")])
    for orientations, solver, recon, cap in scheme.parts:
        if scheme.solver in HYBRID_PARTS:
            expect_solver, order = HYBRID_PARTS[scheme.solver][orientations[0]]
        else:
            expect_solver, order = scheme.solver, scheme.order
        assert solver == expect_solver
        assert recon == ReconConfig(kind=ORDER_TO_KIND[order], weno_variant=scheme.weno_variant,
                                    space=scheme.space)
        cap_kind = CAP_TO_KIND.get(scheme.cap)
        assert cap == (None if cap_kind is None else replace(recon, kind=cap_kind))
    # the cache is no field: equal schemes compare and hash alike
    assert scheme == replace(scheme) and hash(scheme) == hash(replace(scheme))
