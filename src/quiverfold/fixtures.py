"""Hand-calibrated desk examples: the four-subspace star, the three-vertex
line with its flip, and the bipartite counterexample quiver.

The star quiver has corners "1".."4" pointing into the centre "5".  Its
regular simple representations of the named six-element family are pinned
to explicit support pairs so that twist orbits come out in a fixed order,
and the one-parameter tube family T(lam) is pinned to the column ratios
1, lam, infinity, 0 at the four corners.  The regular simples' twist
orbits and complementary sums are checked by isomorphism search over five
fields in ``tests/test_fixtures.py``; the tube parameter action is checked
against its closed form on every call.
"""

from __future__ import annotations

from .errors import BadParameter, CrossCheckFailed, UnknownVertex
from .gf import FiniteField
from .quiver import Automorphism, Quiver, _integer, validate_automorphism, validate_quiver
from .reps import Representation, is_isomorphic, make_representation, twist_auto


def build_a3_flip() -> tuple[Quiver, Automorphism]:
    """Three-vertex line 1 -> 2 <- 3 with the end-swapping flip."""
    q = validate_quiver(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "3", "2")],
    )
    a = validate_automorphism(q, {"1": "3", "3": "1"})
    return q, a


def build_dtilde4() -> tuple[Quiver, Automorphism, Automorphism]:
    """Four-subspace star (corners "1".."4" into centre "5") with its
    rotation of order four and its corner three-cycle."""
    q = validate_quiver(
        ["1", "2", "3", "4", "5"],
        [("r1", "1", "5"), ("r2", "2", "5"), ("r3", "3", "5"), ("r4", "4", "5")],
    )
    four = validate_automorphism(q, {"1": "2", "2": "3", "3": "4", "4": "1"})
    three = validate_automorphism(q, {"1": "2", "2": "3", "3": "1"})
    return q, four, three


def build_counterexample() -> tuple[Quiver, Automorphism]:
    """Complete bipartite quiver on 3 + 2 vertices with the order-six
    rotation; its fold is the Cartan pair (3, 2)."""
    xs = ["x1", "x2", "x3"]
    ys = ["y1", "y2"]
    arrows = [(f"{x}{y}", x, y) for x in xs for y in ys]
    q = validate_quiver(xs + ys, arrows)
    a = validate_automorphism(
        q, {"x1": "x2", "x2": "x3", "x3": "x1", "y1": "y2", "y2": "y1"}
    )
    return q, a


# --- the six-element regular family on the star ---

_REGULAR_SUPPORTS = {
    "E0": ("1", "2"),
    "E0'": ("2", "3"),
    "E0''": ("1", "3"),
    "E1": ("3", "4"),
    "E1'": ("1", "4"),
    "E1''": ("2", "4"),
}


def _canonical_regular_name(name: str) -> str:
    flat = name.replace("′", "'").replace("″", "''")
    flat = flat.replace("₀", "0").replace("₁", "1")
    if flat in _REGULAR_SUPPORTS:
        return flat
    raise UnknownVertex(
        f"no regular simple named {name!r}; choose one of "
        f"{sorted(_REGULAR_SUPPORTS)}"
    )


def regular_simple(name: str, fld: FiniteField) -> Representation:
    """One of the six regular simple star representations: two corners
    mapped identically onto a one-dimensional centre."""
    q, _, _ = build_dtilde4()
    supp = _REGULAR_SUPPORTS[_canonical_regular_name(name)]
    dims = tuple(1 if v in supp else 0 for v in ("1", "2", "3", "4")) + (1,)
    mats = {f"r{v}": ((1,),) for v in supp}
    return make_representation(q, fld, dims, mats)


def tube_rep(lam: int, fld: FiniteField) -> Representation:
    """The dimension-(1,1,1,1,2) tube representative with corner columns at
    the projective points 1, lam, infinity, 0.  lam must avoid 0 and 1,
    which already name other columns."""
    lam = _integer(lam, "parameter")
    if not 0 <= lam < fld.q:
        raise BadParameter(f"parameter {lam} is not an element of {fld.spec}")
    if lam in (0, 1):
        raise BadParameter(
            "parameters 0 and 1 collide with the fixed columns of the tube "
            "family; pick lam outside {0, 1}"
        )
    q, _, _ = build_dtilde4()
    mats = {
        "r1": ((1,), (1,)),
        "r2": ((1,), (lam,)),
        "r3": ((0,), (1,)),
        "r4": ((1,), (0,)),
    }
    return make_representation(q, fld, (1, 1, 1, 1, 2), mats)


def _mobius_four(fld: FiniteField, lam: int) -> int:
    # lam / (lam - 1)
    return fld.div(lam, fld.sub(lam, 1))


def _mobius_three(fld: FiniteField, lam: int) -> int:
    # 1 / (1 - lam)
    return fld.inv(fld.sub(1, lam))


def tube_parameter_action(a: Automorphism, fld: FiniteField) -> dict[int, int]:
    """How twisting along `a` permutes the tube parameters, found by
    isomorphism search over the whole parameter line.

    For the two bundled automorphisms of the star the result is also checked
    against its closed fractional-linear form.
    """
    q, four, three = build_dtilde4()
    if a.quiver != q:
        raise UnknownVertex("tube parameters are only defined on the star quiver")
    params = [x for x in range(fld.q) if x not in (0, 1)]
    out: dict[int, int] = {}
    for lam in params:
        twisted = twist_auto(a, tube_rep(lam, fld))
        matches = [mu for mu in params if is_isomorphic(twisted, tube_rep(mu, fld))]
        if len(matches) != 1:
            raise CrossCheckFailed(
                f"twisted tube at {lam} matched parameters {matches}, expected one"
            )
        out[lam] = matches[0]
    formulas = {four: ("four-cycle", _mobius_four), three: ("three-cycle", _mobius_three)}
    if a in formulas:
        label, formula = formulas[a]
        for lam, mu in out.items():
            if mu != formula(fld, lam):
                raise CrossCheckFailed(
                    f"{label} tube action at {lam} gave {mu}, "
                    f"formula gives {formula(fld, lam)}"
                )
    return out

