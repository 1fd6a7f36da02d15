"""Materialized set and nullity categories, carrier actions, assignments.

The nullity category over a batch of carriers has one object per (carrier,
null family) pair and one morphism per set map that sends null sets to null
sets.  The `materialize` command builds it and checks its category laws.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .fincat import (
    EngineError,
    FinCategory,
    FunctorData,
    Mor,
    ValidationReport,
    Violation,
    _picker,
    _violation,
    build_preorder,
)
from .order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    all_down_sets,
    cardinality_nullity,
    failed_transports,
    preimage_nullity,
    preservation_witness,
    proper_nullity,
    trivial_nullity,
    union_all,
)


def carrier_id(s: FiniteSet) -> str:
    return "[" + ",".join(s.elements) + "]"


def family_id(s: FiniteSet, masks) -> str:
    return "|".join(s.label(m) for m in sorted(masks))


def _map_id(dom_id: str, cod_id: str, images: tuple[int, ...]) -> str:
    return f"{dom_id}>{cod_id}#{','.join(map(str, images))}"


def all_set_maps(dom: FiniteSet, cod: FiniteSet):
    """Every map dom -> cod as an images tuple, in lexicographic order."""
    return itertools.product(range(cod.size), repeat=dom.size)


def _code(images, q: int) -> int:
    """A map's place in `all_set_maps` order, given its images in q points."""
    code = 0
    for i in images:
        code = code * q + i
    return code


@functools.cache
def _code_table(p: int, q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """table[g][f] is the code of g after f, for maps f: p -> q and
    g: q -> r (carrier sizes) given by their codes."""
    fs = list(itertools.product(range(q), repeat=p))
    return tuple(
        tuple(_code([g[j] for j in f], r) for f in fs)
        for g in itertools.product(range(r), repeat=q)
    )


def _maps_category(
    name: str, carriers: dict[str, FiniteSet], admits, prefix: str = ""
) -> tuple[FinCategory, dict[str, SetMap]]:
    """One object per entry of `carriers` (object id -> carrier) and one
    morphism per set map f: a -> b with `admits(f, a, b)`, composed as maps.
    Morphism ids are `prefix` followed by `_map_id`.

    Maps are composed by their codes (see `_code`), through one code table
    per triple of carrier sizes, straight into the category's rows.
    `admits` must be closed under composition and hold for identities.

    Returns (category, morphism id -> SetMap).
    """
    objs = list(carriers)
    size = [carriers[o].size for o in objs]
    mors: list[Mor] = []
    setmap: dict[str, SetMap] = {}
    # by_code[a][b][k]: index of the morphism a -> b with code k, or -1;
    # codes[a][b]: the codes admitted a -> b, in order.
    by_code = [[[] for _ in objs] for _ in objs]
    codes = [[[] for _ in objs] for _ in objs]
    for a, oa in enumerate(objs):
        ca = carriers[oa]
        for b, ob in enumerate(objs):
            cb = carriers[ob]
            for k, images in enumerate(all_set_maps(ca, cb)):
                f = SetMap(ca, cb, images)
                if admits(f, oa, ob):
                    mid = prefix + _map_id(oa, ob, images)
                    by_code[a][b].append(len(mors))
                    codes[a][b].append(k)
                    mors.append(Mor(mid, oa, ob))
                    setmap[mid] = f
                else:
                    by_code[a][b].append(-1)

    identity = {}
    for a, oa in enumerate(objs):
        i = by_code[a][a][_code(range(size[a]), size[a])]
        if i < 0:
            raise EngineError(f"{name}: the identity of {oa} is not admitted")
        identity[oa] = mors[i].name

    # Morphisms run by domain, then codomain, then code, and so do rows.
    rows = []
    for b in range(len(objs)):
        # For each a with maps a -> b: a reader of the codes admitted a -> b.
        into_b = [(a, _picker(codes[a][b])) for a in range(len(objs)) if codes[a][b]]
        for c in range(len(objs)):
            # Where a code goes a -> c, and the code table for the sizes.
            parts = [
                (by_code[a][c].__getitem__, pick, _code_table(size[a], size[b], size[c]))
                for a, pick in into_b
            ]
            for k in codes[b][c]:
                row: list[int] = []
                for into, pick, table in parts:
                    row += map(into, pick(table[k]))
                rows.append(row)
    return FinCategory.from_rows(name, objs, mors, identity, rows), setmap


def set_category(name: str, carriers) -> tuple[FinCategory, dict, dict]:
    """The full category of the given carriers and all maps between them.

    Returns (category, object id -> FiniteSet, morphism id -> SetMap).
    """
    distinct: list[FiniteSet] = []
    for c in carriers:
        if c not in distinct:
            distinct.append(c)
    obj_ids = [carrier_id(c) for c in distinct]
    if len(set(obj_ids)) != len(obj_ids):
        raise EngineError("set_category: carrier label collision")
    obj_carrier = dict(zip(obj_ids, distinct))
    cat, mor_map = _maps_category(name, obj_carrier, lambda f, a, b: True)
    return cat, obj_carrier, mor_map


class MaterializedNullity(NamedTuple):
    category: FinCategory
    structure: dict[str, NullityStructure]  # object id -> structure
    setmap: dict[str, SetMap]  # morphism id -> underlying map


def materialize_nullity_category(
    name: str, carriers, max_carrier: int = 3
) -> MaterializedNullity:
    """All null families on the given carriers and all null-preserving maps."""
    distinct: list[FiniteSet] = []
    for c in carriers:
        if c.size > max_carrier:
            raise EngineError(
                f"materialize: carrier size {c.size} exceeds bound {max_carrier}"
            )
        if c not in distinct:
            distinct.append(c)

    structure: dict[str, NullityStructure] = {}
    for c in distinct:
        cid = carrier_id(c)
        for masks in all_down_sets(c):
            oid = f"{cid}{family_id(c, masks)}"
            if oid in structure:
                raise EngineError("materialize: object label collision")
            structure[oid] = NullityStructure(c, masks)

    obj_carrier = {o: n.carrier for o, n in structure.items()}
    cat, setmap = _maps_category(
        name,
        obj_carrier,
        lambda f, a, b: preservation_witness(f, structure[a].masks, structure[b].masks) is None,
    )
    # Forgetting the null families is faithful: it certifies associativity.
    cat.faithful = (carrier_functor(f"forget[{name}]", cat, obj_carrier, setmap),)
    return MaterializedNullity(cat, structure, setmap)


def nullity_fiber_preorder(carrier: FiniteSet) -> tuple[FinCategory, dict[str, frozenset[int]]]:
    """All null families on one carrier, ordered by inclusion.

    This is the single-carrier, identity-maps-only face of the nullity
    category; joins and meets exist here, so it is where the brute-force
    cross-checks of the fast union/intersection paths run.
    """
    fams = all_down_sets(carrier)
    ids = {family_id(carrier, ms): ms for ms in fams}
    labels = [family_id(carrier, ms) for ms in fams]
    leq = [
        (la, lb)
        for la in labels
        for lb in labels
        if ids[la] <= ids[lb]
    ]
    return build_preorder(f"downsets{carrier_id(carrier)}", labels, leq), ids


# ---------------------------------------------------------------------------
# Carrier actions (set-valued payloads riding on a functor).


def carrier_of(gamma: FunctorData, x: str) -> FiniteSet:
    if gamma.carrier_obj is None or x not in gamma.carrier_obj:
        raise EngineError(f"functor {gamma.name} has no carrier for object {x!r}")
    return gamma.carrier_obj[x]


def setmap_of(gamma: FunctorData, m: str) -> SetMap:
    if gamma.carrier_mor is None or m not in gamma.carrier_mor:
        raise EngineError(f"functor {gamma.name} has no set map for morphism {m!r}")
    return gamma.carrier_mor[m]


def check_carrier_action(gamma: FunctorData, *, max_violations: int = 20) -> ValidationReport:
    """Check that the carrier payload is itself functorial.

    Endpoints must match the object carriers, identities must be identity
    maps, and payload composition must agree with the source's table.
    """
    src = gamma.source
    violations: list[Violation] = []
    checked = {"endpoints": 0, "identities": 0, "composition": 0}
    for m in src.morphisms:
        checked["endpoints"] += 1
        sm = setmap_of(gamma, m.name)
        if sm.dom != carrier_of(gamma, m.dom) or sm.cod != carrier_of(gamma, m.cod):
            violations.append(_violation("carrier-endpoints", morphism=m.name))
    for x in src.objects:
        checked["identities"] += 1
        if not setmap_of(gamma, src.id_of(x)).is_identity():
            violations.append(_violation("carrier-identity", object=x))
    for g, f in src.composable_pairs():
        checked["composition"] += 1
        lhs = setmap_of(gamma, f).then(setmap_of(gamma, g))
        if lhs != setmap_of(gamma, src.compose(g, f)):
            violations.append(_violation("carrier-composition", g=g, f=f))
        if len(violations) >= max_violations:
            break
    return ValidationReport(not violations, checked, violations)


def carrier_functor(name: str, src: FinCategory, obj: dict, mor: dict) -> FunctorData:
    """Package a carrier action as an honest functor into its set category."""
    cat, obj_carrier, mor_setmap = set_category(f"Set[{name}]", list(obj.values()))
    rev = {carrier_id(c): oid for oid, c in obj_carrier.items()}
    obj_map = {x: rev[carrier_id(obj[x])] for x in src.objects}
    mor_map = {}
    for m in src.morphisms:
        sm = mor[m.name]
        mor_map[m.name] = _map_id(obj_map[m.dom], obj_map[m.cod], sm.images)
    return FunctorData(name, src, cat, obj_map, mor_map, carrier_obj=dict(obj), carrier_mor=dict(mor))


# ---------------------------------------------------------------------------
# Nullity assignments along a carrier action.


def transports_of(gamma: FunctorData, morphisms=None) -> list[tuple[str, SetMap, str, str]]:
    """(name, set map, dom, cod) of the given morphisms (default: all, in
    declared order), as `order.failed_transports` reads them."""
    src = gamma.source
    if morphisms is None:
        morphisms = [m.name for m in src.morphisms]
    return [(m, setmap_of(gamma, m), src.dom(m), src.cod(m)) for m in morphisms]


def check_nullity_assignment(
    gamma: FunctorData,
    assignment: dict[str, NullityStructure],
    *,
    max_violations: int = 20,
) -> ValidationReport:
    """Does every morphism send null sets to null sets?

    This is exactly the condition for the assignment to lift the carrier
    action to a functor into the nullity category.
    """
    src = gamma.source
    violations: list[Violation] = []
    checked = {"objects": 0, "morphisms": 0}
    for x in src.objects:
        checked["objects"] += 1
        n = assignment.get(x)
        if n is None:
            violations.append(_violation("assignment-missing", object=x))
        elif n.carrier != carrier_of(gamma, x):
            violations.append(_violation("assignment-carrier", object=x))
    if violations:
        return ValidationReport(False, checked, violations[:max_violations])
    moves = transports_of(gamma)
    masks = {x: assignment[x].masks for x in src.objects}
    failures = list(itertools.islice(failed_transports(masks, moves), max_violations))
    # Morphisms are counted up to the last violation kept.
    checked["morphisms"] = len(moves)
    if len(failures) == max_violations:
        checked["morphisms"] = [t[0] for t in moves].index(failures[-1][0]) + 1
    violations = [
        _violation(
            "null-not-preserved",
            morphism=m,
            null_set=assignment[src.dom(m)].carrier.label(bad),
        )
        for m, bad in failures
    ]
    return ValidationReport(not violations, checked, violations)


def bar_null(
    gamma: FunctorData, assignment: dict[str, NullityStructure]
) -> dict[str, NullityStructure]:
    """Saturation sweep: a set is null at x when some incoming morphism
    pulls it back to a null set.

    Always contains the original assignment (identities are incoming) and
    applying it twice changes nothing.
    """
    src = gamma.source
    out: dict[str, NullityStructure] = {}
    for x in src.objects:
        pieces = []
        for m in src.morphisms:
            if m.cod == x:
                pieces.append(preimage_nullity(setmap_of(gamma, m.name), assignment[m.dom]))
        out[x] = union_all(carrier_of(gamma, x), pieces)
    return out


def is_saturated(gamma: FunctorData, assignment: dict[str, NullityStructure]) -> bool:
    bar = bar_null(gamma, assignment)
    return all(bar[x].masks == assignment[x].masks for x in gamma.source.objects)


def base_nullity(kind: str, carrier: FiniteSet, k: int | None = None) -> NullityStructure:
    """Finite surrogate base structures: trivial, proper, cardinality k."""
    if kind == "trivial":
        return trivial_nullity(carrier)
    if kind == "proper":
        return proper_nullity(carrier)
    if kind == "cardinality":
        if k is None:
            raise EngineError("base_nullity: cardinality kind needs k")
        return cardinality_nullity(carrier, k)
    raise EngineError(f"base_nullity: unknown kind {kind!r}")
