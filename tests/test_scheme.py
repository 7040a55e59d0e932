import itertools
from dataclasses import replace

import numpy as np
import pytest

from shockstab import fields, marching, shock_problem as sp
from shockstab.reconstruction import ReconConfig
from shockstab.scheme import CAP_TO_KIND, HYBRID_PARTS, ORDER_TO_KIND, Scheme

SOLVERS = ("roe", "hll", "hllc", "van_leer", *HYBRID_PARTS)
SPACES = ("conservative", "primitive", "characteristic")
CAPS = ("none", "first", "second", "smoothest-third")
# the formal order of each reconstruction kind
KIND_ORDER = {"first": 1, "muscl": 2, "eno3": 3, "weno5": 5}


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
            SOLVERS, (1, 2, 5), ("js", "z"), SPACES, CAPS):
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
        # a part carries the cap only where it lowers the part's order
        cap_kind = CAP_TO_KIND.get(scheme.cap)
        lowers = cap_kind is not None and KIND_ORDER[cap_kind] < KIND_ORDER[recon.kind]
        assert cap == (replace(recon, kind=cap_kind) if lowers else None)
    if scheme.solver == "hybrid-1":  # its first-order x part takes no ENO3 cap
        assert [cap and cap.kind for *_, cap in scheme.parts] == [None, "eno3"]
    # the cache is no field: equal schemes compare and hash alike
    assert scheme == replace(scheme) and hash(scheme) == hash(replace(scheme))


def test_a_cap_never_raises_the_order():
    for solver, order, space, cap in itertools.product(SOLVERS, (1, 2, 5), SPACES, CAPS):
        if solver in HYBRID_PARTS and order != 5:
            continue
        for _, _, recon, cap_cfg in Scheme(solver=solver, order=order, space=space,
                                           cap=cap).parts:
            assert cap_cfg is None or KIND_ORDER[cap_cfg.kind] < KIND_ORDER[recon.kind], (
                solver, order, space, cap)


def _rhs(field, scheme):
    states = fields.apply_boundaries(field, scheme.space == "primitive")
    return marching.rhs(field, states, scheme)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("order, caps", [
    pytest.param(1, CAPS[1:], id="o1"), pytest.param(2, ("second", "smoothest-third"), id="o2")])
def test_a_cap_at_or_above_the_order_leaves_the_residual_alone(order, caps, space):
    # on the raw shock an ENO3 state at the shock's faces, or a MUSCL one on
    # a first-order part, moves max|rhs| by 63 to 2.0e3 of its 2.1e3 to 4.1e3:
    # a cap at or above the part's order is no cap
    field = sp.build_initial_field(sp.ShockProblemConfig(nx=11, ny=4, epsilon=0.3))
    plain = _rhs(field, Scheme(solver="roe", order=order, space=space))
    for cap in caps:
        capped = _rhs(field, Scheme(solver="roe", order=order, space=space, cap=cap))
        assert capped.tobytes() == plain.tobytes(), cap


@pytest.mark.parametrize("space", SPACES)
def test_a_hybrid_caps_only_its_higher_order_part(space):
    # hybrid-1's first-order van Leer x faces keep their states under a MUSCL cap
    scheme = Scheme(solver="hybrid-1", space=space, cap="second")
    assert [cap and cap.kind for *_, cap in scheme.parts] == [None, "muscl"]
    field = sp.build_initial_field(sp.ShockProblemConfig(nx=11, ny=4, epsilon=0.3))
    states = fields.apply_boundaries(field, space == "primitive")
    (_, _, capped), _ = marching.face_reconstructions(field, states, scheme, linearise=True)
    (_, _, plain), _ = marching.face_reconstructions(field, states, replace(scheme, cap="none"),
                                                     linearise=True)
    assert capped.W.tobytes() == plain.W.tobytes()
    assert capped.lin.tobytes() == plain.lin.tobytes()
