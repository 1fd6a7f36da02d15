"""Materialized set and nullity categories, carrier actions, assignments.

The nullity category over a batch of carriers has one object per (carrier,
null family) pair and one morphism per set map that sends null sets to null
sets.  The `materialize` command builds it and checks its category laws.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from operator import itemgetter
from typing import NamedTuple

from .fincat import (
    MAX_VIOLATIONS,
    EngineError,
    FinCategory,
    FunctorData,
    Mor,
    ValidationReport,
    Violation,
    _violation,
    build_preorder,
)
from .order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    all_down_sets,
    failed_transports,
    preimage_nullity,
    subset_images,
    union_all,
)

# The most composition entries `set_category` builds: one carrier of 4
# elements holds 2^16 of them, one of 5 elements 5^10.
MAX_SET_ENTRIES = 1 << 20
# The largest carrier `materialize_nullity_category` takes, and the most
# morphisms its category may have.
MAX_MATERIALIZED_CARRIER = 3
MAX_MATERIALIZED_MORPHISMS = 8192


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


class _Maps(NamedTuple):
    """The maps `_admitted_maps` admits.  by_code[a][b][k] is the index of
    the morphism a -> b with code k (see `_code`), or -1; codes[a][b] lists
    the codes admitted a -> b, in order."""

    carriers: dict[str, FiniteSet]  # object id -> carrier
    mors: list[Mor]
    setmap: dict[str, SetMap]  # morphism id -> underlying map
    by_code: list[list[list[int]]]
    codes: list[list[list[int]]]


def _admitted_maps(carriers: dict[str, FiniteSet], admits, prefix: str = "") -> _Maps:
    """One morphism per set map f: a -> b between entries of `carriers`
    with `admits(f, a, b)`, by domain, then codomain, then code.  Morphism
    ids are `prefix` followed by `_map_id`.  Each map is built once per
    pair of carriers, and object pairs over the same carriers share it."""
    objs = list(carriers)
    mors: list[Mor] = []
    setmap: dict[str, SetMap] = {}
    by_code = [[[] for _ in objs] for _ in objs]
    codes = [[[] for _ in objs] for _ in objs]
    maps_over: dict[tuple[FiniteSet, FiniteSet], list[SetMap]] = {}
    for a, oa in enumerate(objs):
        ca = carriers[oa]
        for b, ob in enumerate(objs):
            cb = carriers[ob]
            fs = maps_over.get((ca, cb))
            if fs is None:
                fs = maps_over[ca, cb] = [SetMap(ca, cb, i) for i in all_set_maps(ca, cb)]
            for k, f in enumerate(fs):
                if admits(f, oa, ob):
                    mid = prefix + _map_id(oa, ob, f.images)
                    by_code[a][b].append(len(mors))
                    codes[a][b].append(k)
                    mors.append(Mor(mid, oa, ob))
                    setmap[mid] = f
                else:
                    by_code[a][b].append(-1)
    return _Maps(carriers, mors, setmap, by_code, codes)


def _picker(places):
    """A function reading a list at `places` into a tuple."""
    if len(places) == 1:
        p = places[0]
        return lambda r: (r[p],)
    return itemgetter(*places) if places else lambda r: ()


def _maps_category(name: str, maps: _Maps) -> FinCategory:
    """The category of `maps`, composed by their codes (see `_code`)
    through one code table per triple of carrier sizes, straight into the
    rows.  The maps must be closed under composition and hold the
    identities."""
    objs = list(maps.carriers)
    size = [maps.carriers[o].size for o in objs]
    mors, by_code, codes = maps.mors, maps.by_code, maps.codes
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
                rows.append(array("h", row))
    return FinCategory.from_rows(name, objs, mors, identity, rows)


def set_category(name: str, carriers) -> tuple[FinCategory, dict, dict]:
    """The full category of the given carriers and all maps between them.

    Refuses, before it enumerates a map, carriers whose composition rows
    would hold more than MAX_SET_ENTRIES entries: the row of each map
    b -> c has one entry per map into b, and there are q^p maps p -> q.

    Each morphism's image tuple is kept as the category's `images`, which
    proves it associative in one pass over its rows (see
    `validate_category`); it carries no functor certificate, so it can be
    the target of one.

    Returns (category, object id -> FiniteSet, morphism id -> SetMap).
    """
    distinct: list[FiniteSet] = []
    for c in carriers:
        if c not in distinct:
            distinct.append(c)
    sizes = [c.size for c in distinct]
    entries = sum(sum(q**b for q in sizes) * sum(b**p for p in sizes) for b in sizes)
    if entries > MAX_SET_ENTRIES:
        raise EngineError(
            f"{name}: {entries} composition entries exceed bound {MAX_SET_ENTRIES}"
        )
    obj_ids = [carrier_id(c) for c in distinct]
    if len(set(obj_ids)) != len(obj_ids):
        raise EngineError("set_category: carrier label collision")
    obj_carrier = dict(zip(obj_ids, distinct))
    maps = _admitted_maps(obj_carrier, lambda f, a, b: True)
    cat = _maps_category(name, maps)
    cat.images = [maps.setmap[m.name].images for m in maps.mors]
    return cat, obj_carrier, maps.setmap


class MaterializedNullity(NamedTuple):
    category: FinCategory
    structure: dict[str, NullityStructure]  # object id -> structure
    setmap: dict[str, SetMap]  # morphism id -> underlying map


def materialize_nullity_category(name: str, carriers) -> MaterializedNullity:
    """All null families on the given carriers and all null-preserving maps."""
    distinct: list[FiniteSet] = []
    for c in carriers:
        if c.size > MAX_MATERIALIZED_CARRIER:
            raise EngineError(
                f"materialize: carrier size {c.size} exceeds bound {MAX_MATERIALIZED_CARRIER}"
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
    null = {o: n.masks for o, n in structure.items()}

    def preserves(f: SetMap, a: str, b: str) -> bool:
        return null[b].issuperset(map(subset_images(f).__getitem__, null[a]))

    maps = _admitted_maps(obj_carrier, preserves)
    if len(maps.mors) > MAX_MATERIALIZED_MORPHISMS:
        raise EngineError(
            f"{name}: {len(maps.mors)} morphisms exceeds bound {MAX_MATERIALIZED_MORPHISMS}"
        )
    cat = _maps_category(name, maps)
    # Forgetting the null families is faithful: it certifies associativity.
    cat.faithful = (carrier_functor(f"forget[{name}]", cat, obj_carrier, maps.setmap),)
    return MaterializedNullity(cat, structure, maps.setmap)


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


def check_carrier_action(gamma: FunctorData) -> ValidationReport:
    """Check that the carrier payload is itself functorial.

    Endpoints must match the object carriers, identities must be identity
    maps, and payload composition must agree with the source's table at
    each entry it has; a composable pair without one is not counted.
    """
    src = gamma.source
    violations: list[Violation] = []
    checked = {"endpoints": 0, "identities": 0, "composition": 0}
    maps = [setmap_of(gamma, m.name) for m in src.morphisms]
    for m, sm in zip(src.morphisms, maps):
        checked["endpoints"] += 1
        if sm.dom != carrier_of(gamma, m.dom) or sm.cod != carrier_of(gamma, m.cod):
            violations.append(_violation("carrier-endpoints", morphism=m.name))
            if len(violations) >= MAX_VIOLATIONS:
                return ValidationReport(False, checked, violations)
    for x in src.objects:
        checked["identities"] += 1
        if not setmap_of(gamma, src.id_of(x)).is_identity():
            violations.append(_violation("carrier-identity", object=x))
            if len(violations) >= MAX_VIOLATIONS:
                return ValidationReport(False, checked, violations)
    names = src._names
    for g, d in enumerate(src._dom):
        for f in src._in[d]:
            h = src._composite(g, f)
            if h < 0:
                continue
            checked["composition"] += 1
            if maps[f].then(maps[g]) != maps[h]:
                violations.append(_violation("carrier-composition", g=names[g], f=names[f]))
            if len(violations) >= MAX_VIOLATIONS:
                return ValidationReport(False, checked, violations)
    return ValidationReport(not violations, checked, violations)


def carrier_functor(name: str, src: FinCategory, obj: dict, mor: dict) -> FunctorData:
    """Package a carrier action as an honest functor into the Set category
    of its carriers, which each call builds afresh: a setup calls it once,
    for gamma, and takes its base action as gamma after j1 j2."""
    cat, obj_carrier, mor_setmap = set_category(f"Set[{name}]", list(obj.values()))
    rev = {carrier_id(c): oid for oid, c in obj_carrier.items()}
    obj_map = {x: rev[carrier_id(obj[x])] for x in src.objects}
    # Each image is the name of its Set morphism, one string shared by the
    # morphisms over it; a map that is no Set morphism keeps its `_map_id`,
    # which `check_functor` reports.
    named = {(m.dom, m.cod, mor_setmap[m.name].images): m.name for m in cat.morphisms}
    mor_map = {}
    for m in src.morphisms:
        key = (obj_map[m.dom], obj_map[m.cod], mor[m.name].images)
        mor_map[m.name] = named.get(key) or _map_id(*key)
    return FunctorData(name, src, cat, obj_map, mor_map, carrier_obj=dict(obj), carrier_mor=dict(mor))


# ---------------------------------------------------------------------------
# Nullity assignments along a carrier action.


def transports_of(cat: FinCategory, setmaps: dict | None, morphisms=None) -> list:
    """(name, set map, dom, cod) of the given morphisms of `cat` (default:
    all, in declared order) under `setmaps`, as `order.failed_transports`
    reads them; none without maps."""
    if setmaps is None:
        return []
    mors = cat.morphisms if morphisms is None else map(cat.mor, morphisms)
    return [(m.name, setmaps[m.name], m.dom, m.cod) for m in mors]


def check_nullity_assignment(
    gamma: FunctorData, assignment: dict[str, NullityStructure]
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
        return ValidationReport(False, checked, violations[:MAX_VIOLATIONS])
    moves = transports_of(src, gamma.carrier_mor)
    masks = {x: assignment[x].masks for x in src.objects}
    failures = list(itertools.islice(failed_transports(masks, moves), MAX_VIOLATIONS))
    # Morphisms are counted up to the last violation kept.
    checked["morphisms"] = len(moves)
    if len(failures) == MAX_VIOLATIONS:
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
