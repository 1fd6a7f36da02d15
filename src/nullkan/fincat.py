"""Finite categories as explicit tables, with exhaustive and deterministic checks.

A category here is a finite list of objects, a finite list of named morphisms,
an identity assignment and a total composition table.  Every operation walks
these tables in declared order, so equal inputs give byte-equal outputs, and
every law check can produce a concrete witness when it fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

DEFAULT_BUDGET = 200_000
MAX_OBJECTS = 64
MAX_MORPHISMS = 4096


class EngineError(Exception):
    """Structurally bad input: unresolved names, broken tables, illegal sizes."""


class BudgetExceeded(EngineError):
    """An exhaustive search ran past its step budget."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"budget exceeded in {what} (budget={budget})")
        self.what = what
        self.budget = budget


@dataclass(frozen=True)
class Mor:
    """A named morphism with explicit endpoints."""

    name: str
    dom: str
    cod: str


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict:
        return {"law": self.law, "witness": dict(self.witness)}


def _violation(law: str, **witness: str) -> Violation:
    return Violation(law, tuple(sorted(witness.items())))


@dataclass
class ValidationReport:
    ok: bool
    checked: dict[str, int]
    violations: list[Violation]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": dict(sorted(self.checked.items())),
            "violations": [v.as_dict() for v in self.violations],
        }


class FinCategory:
    """Explicit finite category.

    `composition[(g, f)]` is the name of g after f, defined exactly when
    cod(f) == dom(g).  Referential integrity is enforced on construction;
    the categorical laws are checked separately by `validate_category` so
    that deliberately broken tables can be built and then rejected.

    The category owns the `identity` and `composition` dicts it is given
    and keeps them without copying: callers pass fresh dicts, or dicts
    that nothing writes to again.

    `faithful` is a certificate of associativity, set only by builders of
    concrete categories: functors out of this category that should preserve
    its composition and be jointly faithful, into categories checked by
    brute force.  `validate_category` verifies it before it relies on it,
    and sweeps every triple when it fails, so a wrong certificate costs
    time, never a verdict.  Default: none.
    """

    def __init__(
        self,
        name: str,
        objects: tuple[str, ...] | list[str],
        morphisms,
        identity: dict[str, str],
        composition: dict[tuple[str, str], str],
    ):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple(
            m if isinstance(m, Mor) else Mor(*m) for m in morphisms
        )
        self.identity = identity
        self.composition = composition
        self.faithful: tuple[FunctorData, ...] = ()

        objects_set = set(self.objects)
        if len(objects_set) != len(self.objects):
            raise EngineError(f"{name}: duplicate object names")
        self._mor = {}
        for m in self.morphisms:
            if m.name in self._mor:
                raise EngineError(f"{name}: duplicate morphism name {m.name!r}")
            if m.dom not in objects_set or m.cod not in objects_set:
                raise EngineError(f"{name}: morphism {m.name!r} has unknown endpoint")
            self._mor[m.name] = m
        for x, i in self.identity.items():
            if x not in objects_set or i not in self._mor:
                raise EngineError(f"{name}: identity table references unknown name")
        for (g, f), h in self.composition.items():
            if g not in self._mor or f not in self._mor or h not in self._mor:
                raise EngineError(f"{name}: composition table references unknown name")

        self._obj_index = {x: i for i, x in enumerate(self.objects)}
        self._hom: dict[tuple[str, str], list[str]] = {}
        self._by_cod: dict[str, list[str]] = {x: [] for x in self.objects}
        for m in self.morphisms:
            self._hom.setdefault((m.dom, m.cod), []).append(m.name)
            self._by_cod[m.cod].append(m.name)

    def mor(self, name: str) -> Mor:
        try:
            return self._mor[name]
        except KeyError:
            raise EngineError(f"{self.name}: no morphism {name!r}") from None

    def dom(self, name: str) -> str:
        return self.mor(name).dom

    def cod(self, name: str) -> str:
        return self.mor(name).cod

    def id_of(self, obj: str) -> str:
        try:
            return self.identity[obj]
        except KeyError:
            raise EngineError(f"{self.name}: no identity for object {obj!r}") from None

    def is_identity(self, name: str) -> bool:
        m = self.mor(name)
        return self.identity.get(m.dom) == name and m.dom == m.cod

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise EngineError(
                f"{self.name}: composition table has no entry for ({g!r}, {f!r})"
            ) from None

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return tuple(self._hom.get((a, b), ()))

    def endos(self, a: str) -> tuple[str, ...]:
        return self.hom(a, a)

    def composable_pairs(self):
        """Yield (g, f) with cod(f) == dom(g), in deterministic order."""
        for g in self.morphisms:
            for f in self._by_cod[g.dom]:
                yield g.name, f

    def same_table(self, other: "FinCategory") -> bool:
        return self is other or (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.composition == other.composition
        )

    def __repr__(self):
        return (
            f"FinCategory({self.name!r}, {len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


def validate_category(
    cat: FinCategory,
    *,
    max_objects: int = MAX_OBJECTS,
    max_morphisms: int = MAX_MORPHISMS,
    max_violations: int = 20,
) -> ValidationReport:
    """Check the full category laws, collecting witnesses for failures.

    Identities, units, totality and endpoints are checked by direct table
    walks.  Associativity is proved through `cat.faithful` when that
    certificate holds (see `_certified`); otherwise every composable triple
    is swept by brute force (see `_associativity_sweep`).  Entries already
    reported as spurious or with wrong endpoints are left out of the sweep.
    """
    if len(cat.objects) > max_objects:
        raise EngineError(
            f"{cat.name}: {len(cat.objects)} objects exceeds bound {max_objects}"
        )
    if len(cat.morphisms) > max_morphisms:
        raise EngineError(
            f"{cat.name}: {len(cat.morphisms)} morphisms exceeds bound {max_morphisms}"
        )

    violations: list[Violation] = []
    checked = {"identity": 0, "unit": 0, "totality": 0, "associativity": 0}

    def add(v: Violation) -> bool:
        violations.append(v)
        return len(violations) >= max_violations

    full = False
    for x in cat.objects:
        checked["identity"] += 1
        i = cat.identity.get(x)
        if i is None:
            full = add(_violation("identity-missing", object=x))
        else:
            m = cat.mor(i)
            if m.dom != x or m.cod != x:
                full = add(_violation("identity-endpoints", object=x, identity=i))
        if full:
            return ValidationReport(False, checked, violations)

    # Totality and endpoint sanity of the composition table, in one pass
    # that also checks that each certificate functor preserves each entry.
    # The per-pair witness walk only runs once the entry count proves some
    # composable pair has no entry.
    n_out = dict.fromkeys(cat.objects, 0)
    n_in = dict.fromkeys(cat.objects, 0)
    for m in cat.morphisms:
        n_out[m.dom] += 1
        n_in[m.cod] += 1
    n_pairs = sum(n_out[x] * n_in[x] for x in cat.objects)
    checked["totality"] = n_pairs
    functors = [(F.mor_map, F.target.composition) for F in cat.faithful]
    preserved = all(_functor_frame(F, cat) for F in cat.faithful)
    mor = cat._mor
    spurious, bad_ends = [], []
    for (g, f), h in cat.composition.items():
        mg, mf, mh = mor[g], mor[f], mor[h]
        if mf.cod != mg.dom:
            spurious.append((g, f))
        elif mh.dom != mf.dom or mh.cod != mg.cod:
            bad_ends.append((g, f))
        if preserved:
            for fm, tc in functors:
                if tc.get((fm[g], fm[f])) != fm[h]:
                    preserved = False
                    break
    for g, f in spurious:
        if add(_violation("composition-spurious", g=g, f=f)):
            return ValidationReport(False, checked, violations)
    for g, f in bad_ends:
        v = _violation("composition-endpoints", g=g, f=f, composite=cat.composition[g, f])
        if add(v):
            return ValidationReport(False, checked, violations)
    total = len(cat.composition) - len(spurious) == n_pairs
    if not total:
        for g, f in cat.composable_pairs():
            if (g, f) not in cat.composition:
                if add(_violation("composition-missing", g=g, f=f)):
                    return ValidationReport(False, checked, violations)

    # Unit laws.
    for m in cat.morphisms:
        checked["unit"] += 1
        lid = cat.identity.get(m.cod)
        rid = cat.identity.get(m.dom)
        if lid is not None and cat.composition.get((lid, m.name)) != m.name:
            if add(_violation("left-unit", morphism=m.name, identity=lid)):
                return ValidationReport(False, checked, violations)
        if rid is not None and cat.composition.get((m.name, rid)) != m.name:
            if add(_violation("right-unit", morphism=m.name, identity=rid)):
                return ValidationReport(False, checked, violations)

    if preserved and total and not bad_ends and _certified(cat):
        # Every triple is composable and every composite is in the table.
        checked["associativity"] = sum(n_in[m.dom] * n_out[m.cod] for m in cat.morphisms)
        return ValidationReport(not violations, checked, violations)
    table = cat.composition
    if spurious or bad_ends:
        dropped = set(spurious + bad_ends)
        table = {k: h for k, h in table.items() if k not in dropped}
    n_assoc, bad = _associativity_sweep(cat, table, max_violations - len(violations))
    checked["associativity"] = n_assoc
    for h, g, f in bad:
        violations.append(_violation("associativity", h=h, g=g, f=f))
    return ValidationReport(not violations, checked, violations)


def _functor_frame(F: FunctorData, cat: FinCategory) -> bool:
    """Does F send cat's objects, morphisms and identities to the right
    places in its target?  (Composition is checked on cat's table.)"""
    tgt = F.target
    for x in cat.objects:
        y = F.obj_map.get(x)
        if y not in tgt._obj_index:
            return False
        if x not in cat.identity or F.mor_map.get(cat.identity[x]) != tgt.identity.get(y):
            return False
    for m in cat.morphisms:
        im = tgt._mor.get(F.mor_map.get(m.name))
        if im is None or (im.dom, im.cod) != (F.obj_map[m.dom], F.obj_map[m.cod]):
            return False
    return True


def _certified(cat: FinCategory) -> bool:
    """Do the functors in `cat.faithful` prove cat associative?

    The caller has checked that cat's table is total with the right
    endpoints and that each functor preserves it, objects, endpoints and
    identities included.  It remains that each target carries no
    certificate of its own and passes the brute-force check, and that the
    functors are jointly faithful: m -> (dom, cod, F1(m), F2(m), ...) is
    injective.  Then h(gf) and (hg)f have the same endpoints and the same
    image under every Fi, as Fi(h)(Fi(g)Fi(f)) = (Fi(h)Fi(g))Fi(f) in an
    associative target, so they are one morphism.
    """
    if not cat.faithful:
        return False
    for F in cat.faithful:
        tgt = F.target
        small = len(tgt.objects) <= MAX_OBJECTS and len(tgt.morphisms) <= MAX_MORPHISMS
        if tgt.faithful or not small or not validate_category(tgt).ok:
            return False
    images = {
        (m.dom, m.cod, *(F.mor_map[m.name] for F in cat.faithful)) for m in cat.morphisms
    }
    return len(images) == len(cat.morphisms)


def _associativity_sweep(
    cat: FinCategory, table: dict[tuple[str, str], str], limit: int
) -> tuple[int, list[tuple[str, str, str]]]:
    """Count the composable triples (h, g, f) and find those with h(gf) != (hg)f.

    `table` holds the composition entries that are composable and have the
    right endpoints.  Every triple with both gf and hg in it is counted.
    The first `limit` failing triples are returned as (h, g, f), ordered by
    the index of c = cod(g), then of h, g and f.
    """
    # row[g] maps f to gf, in the order of f.
    row = {
        g.name: {f: table[g.name, f] for f in cat._by_cod[g.dom] if (g.name, f) in table}
        for g in cat.morphisms
    }
    total = 0
    found: list[tuple[str, str, str]] = []
    for h in sorted(cat.morphisms, key=lambda m: cat._obj_index[m.dom]):
        rh = row[h.name]
        for g in cat._by_cod[h.dom]:
            hg = rh.get(g)
            if hg is None:
                continue
            rg = row[g]
            total += len(rg)
            if len(found) == limit:
                continue
            lhs = list(map(rh.get, rg.values()))
            rhs = list(map(row[hg].get, rg))
            if lhs != rhs:
                bad = [f for f, x, y in zip(rg, lhs, rhs) if x != y]
                found.extend((h.name, g, f) for f in bad[: limit - len(found)])
    return total, found


# ---------------------------------------------------------------------------
# Standard small categories.


def discrete_category(name: str, objects) -> FinCategory:
    objects = tuple(objects)
    ids = {x: f"id:{x}" for x in objects}
    mors = [Mor(ids[x], x, x) for x in objects]
    comp = {(ids[x], ids[x]): ids[x] for x in objects}
    return FinCategory(name, objects, mors, ids, comp)


def build_preorder(name: str, elements, leq) -> FinCategory:
    """Category of a preorder: one morphism le:x>y per related pair.

    `leq` is any iterable of (x, y) pairs; it must be reflexive and
    transitive over `elements` or this raises with a witness.
    """
    elements = tuple(elements)
    rel = set(leq)
    eset = set(elements)
    for x, y in rel:
        if x not in eset or y not in eset:
            raise EngineError(f"{name}: relation mentions unknown element ({x!r}, {y!r})")
    for x in elements:
        if (x, x) not in rel:
            raise EngineError(f"{name}: relation not reflexive at {x!r}")
    for x, y in rel:
        for y2, z in rel:
            if y2 == y and (x, z) not in rel:
                raise EngineError(
                    f"{name}: relation not transitive: ({x!r},{y!r}) and ({y!r},{z!r})"
                )

    def mname(x, y):
        return f"le:{x}>{y}"

    pairs = [(x, y) for x in elements for y in elements if (x, y) in rel]
    mors = [Mor(mname(x, y), x, y) for x, y in pairs]
    ids = {x: mname(x, x) for x in elements}
    comp = {}
    for x, y in pairs:
        for y2, z in pairs:
            if y2 == y:
                comp[(mname(y, z), mname(x, y))] = mname(x, z)
    return FinCategory(name, elements, mors, ids, comp)


def chain_preorder(name: str, labels) -> FinCategory:
    """Total order on `labels` in the given order."""
    labels = tuple(labels)
    leq = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i, len(labels))
    ]
    return build_preorder(name, labels, leq)


def subset_label(elements: tuple[str, ...], mask: int) -> str:
    inner = ",".join(e for i, e in enumerate(elements) if mask >> i & 1)
    return "{" + inner + "}"


def power_set_preorder(name: str, elements, bound: int = 5) -> FinCategory:
    """All subsets of `elements` ordered by inclusion."""
    elements = tuple(elements)
    if len(elements) > bound:
        raise EngineError(f"{name}: {len(elements)} elements exceeds bound {bound}")
    masks = list(range(1 << len(elements)))
    labels = {m: subset_label(elements, m) for m in masks}
    leq = [
        (labels[a], labels[b]) for a in masks for b in masks if a & b == a
    ]
    return build_preorder(name, [labels[m] for m in masks], leq)


def opposite(C: FinCategory) -> FinCategory:
    """C^op: the same names with every morphism reversed, so that g after f
    in C^op is f after g in C."""
    return FinCategory(
        f"{C.name}^op",
        C.objects,
        [Mor(m.name, m.cod, m.dom) for m in C.morphisms],
        C.identity,
        {(f, g): h for (g, f), h in C.composition.items()},
    )


# ---------------------------------------------------------------------------
# Functors and natural transformations.


@dataclass
class FunctorData:
    """A functor given by explicit object and morphism tables.

    `carrier_obj` / `carrier_mor` are optional payloads used when the
    functor assigns concrete finite sets and set maps (see nullity.py);
    the categorical checks ignore them.
    """

    name: str
    source: FinCategory
    target: FinCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    carrier_obj: dict | None = None
    carrier_mor: dict | None = None

    def on_obj(self, x: str) -> str:
        try:
            return self.obj_map[x]
        except KeyError:
            raise EngineError(f"functor {self.name}: no image for object {x!r}") from None

    def on_mor(self, m: str) -> str:
        try:
            return self.mor_map[m]
        except KeyError:
            raise EngineError(f"functor {self.name}: no image for morphism {m!r}") from None


def check_functor(F: FunctorData, *, max_violations: int = 20) -> ValidationReport:
    violations: list[Violation] = []
    checked = {"objects": 0, "morphisms": 0, "identities": 0, "composition": 0}
    src, tgt = F.source, F.target

    for x in src.objects:
        checked["objects"] += 1
        y = F.obj_map.get(x)
        if y is None or y not in tgt._obj_index:
            violations.append(_violation("functor-object", object=x, image=str(y)))
    for m in src.morphisms:
        checked["morphisms"] += 1
        fm = F.mor_map.get(m.name)
        if fm is None or fm not in tgt._mor:
            violations.append(_violation("functor-morphism", morphism=m.name, image=str(fm)))
            continue
        im = tgt.mor(fm)
        if im.dom != F.obj_map.get(m.dom) or im.cod != F.obj_map.get(m.cod):
            violations.append(_violation("functor-endpoints", morphism=m.name, image=fm))
    if violations:
        return ValidationReport(False, checked, violations[:max_violations])

    for x in src.objects:
        checked["identities"] += 1
        if F.mor_map[src.id_of(x)] != tgt.id_of(F.obj_map[x]):
            violations.append(_violation("functor-identity", object=x))
    for g, f in src.composable_pairs():
        checked["composition"] += 1
        lhs = F.mor_map[src.compose(g, f)]
        rhs = tgt.compose(F.mor_map[g], F.mor_map[f])
        if lhs != rhs:
            violations.append(_violation("functor-composition", g=g, f=f))
        if len(violations) >= max_violations:
            break
    return ValidationReport(not violations, checked, violations)


def identity_functor(C: FinCategory) -> FunctorData:
    return FunctorData(
        f"id[{C.name}]",
        C,
        C,
        {x: x for x in C.objects},
        {m.name: m.name for m in C.morphisms},
    )


def compose_functors(G: FunctorData, F: FunctorData, name: str | None = None) -> FunctorData:
    """G after F."""
    if not F.target.same_table(G.source):
        raise EngineError(f"cannot compose {G.name} after {F.name}: middle mismatch")
    return FunctorData(
        name or f"{G.name}.{F.name}",
        F.source,
        G.target,
        {x: G.on_obj(F.on_obj(x)) for x in F.source.objects},
        {m.name: G.on_mor(F.on_mor(m.name)) for m in F.source.morphisms},
    )


def functor_diff(F: FunctorData, G: FunctorData) -> str | None:
    """The first object, then morphism, of F's source where F and G differ."""
    for x in F.source.objects:
        if F.obj_map[x] != G.obj_map[x]:
            return f"object {x}: {F.obj_map[x]} != {G.obj_map[x]}"
    for m in F.source.morphisms:
        if F.mor_map[m.name] != G.mor_map[m.name]:
            return f"morphism {m.name}: {F.mor_map[m.name]} != {G.mor_map[m.name]}"
    return None


def functor_equal(F: FunctorData, G: FunctorData) -> bool:
    return (
        F.source.same_table(G.source)
        and F.target.same_table(G.target)
        and functor_diff(F, G) is None
    )


@dataclass
class NatTransData:
    name: str
    source: FunctorData
    target: FunctorData
    components: dict[str, str]  # source-category object -> target-category morphism


def check_natural(t: NatTransData, *, max_violations: int = 20) -> ValidationReport:
    F, G = t.source, t.target
    tgt = F.target
    violations: list[Violation] = []
    checked = {"components": 0, "naturality": 0}
    for x in F.source.objects:
        checked["components"] += 1
        c = t.components.get(x)
        if c is None or c not in tgt._mor:
            violations.append(_violation("component-missing", object=x))
            continue
        m = tgt.mor(c)
        if m.dom != F.obj_map[x] or m.cod != G.obj_map[x]:
            violations.append(_violation("component-endpoints", object=x, component=c))
    if violations:
        return ValidationReport(False, checked, violations[:max_violations])
    for m in F.source.morphisms:
        checked["naturality"] += 1
        lhs = tgt.compose(t.components[m.cod], F.mor_map[m.name])
        rhs = tgt.compose(G.mor_map[m.name], t.components[m.dom])
        if lhs != rhs:
            violations.append(_violation("naturality", morphism=m.name))
            if len(violations) >= max_violations:
                break
    return ValidationReport(not violations, checked, violations)


class _Meter:
    """The step count of one exhaustive search: the step after `budget`
    steps raises BudgetExceeded(what, budget)."""

    def __init__(self, what: str, budget: int):
        self.what = what
        self.budget = budget
        self.left = budget

    def step(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(self.what, self.budget)


class _Backtrack:
    """Depth-first assignment of `slots` in order, pruned by constraints.

    Each constraint comes as (reads, c) and is filed under the last slot
    in `reads` (names outside `slots` are fixed before the search starts).
    It is checked once, as `holds(assignment, c)`, right after that slot is
    filled: earlier steps cannot decide it and later ones would only repeat
    it (arc consistency in the sense of Mackworth 1977).
    """

    def __init__(self, slots, constraints, holds):
        pos = {k: i for i, k in enumerate(slots)}
        self.slots = tuple(slots)
        self.filed: list[list] = [[] for _ in self.slots]
        for reads, c in constraints:
            self.filed[max(pos.get(k, -1) for k in reads)].append(c)
        self.holds = holds

    def run(self, choices, meter: _Meter, assign: dict):
        """Yield `assign` each time every slot is filled consistently.

        `choices(i)` gives the candidates for slot i in order; each one
        tried is a step of `meter`.  The same dict is yielded every time,
        so copy it to keep it.
        """
        slots, filed, holds = self.slots, self.filed, self.holds

        def extend(i):
            if i == len(slots):
                yield assign
                return
            key = slots[i]
            for c in choices(i):
                meter.step()
                assign[key] = c
                if all(holds(assign, k) for k in filed[i]):
                    yield from extend(i + 1)
                del assign[key]

        return extend(0)


def find_nat_trans(
    F: FunctorData, G: FunctorData, budget: int = DEFAULT_BUDGET
) -> NatTransData | None:
    """First natural transformation F => G in component order, or None.

    Depth-first over source objects; the naturality square of each source
    morphism is checked as soon as both its components are assigned.
    """
    tgt = F.target
    objs = F.source.objects

    def natural(comp, m):
        return tgt.compose(comp[m.cod], F.mor_map[m.name]) == tgt.compose(
            G.mor_map[m.name], comp[m.dom]
        )

    def choices(i):
        return tgt.hom(F.obj_map[objs[i]], G.obj_map[objs[i]])

    search = _Backtrack(objs, (((m.dom, m.cod), m) for m in F.source.morphisms), natural)
    for comp in search.run(choices, _Meter("find_nat_trans", budget), {}):
        return NatTransData(f"nt[{F.name}=>{G.name}]", F, G, dict(comp))
    return None


def enumerate_functors(
    X: FinCategory,
    Y: FinCategory,
    budget: int = DEFAULT_BUDGET,
    *,
    fibers: tuple[dict[str, list[str]], dict[str, set[str]]] | None = None,
):
    """Yield every functor X -> Y, deterministically.

    Object maps run in lexicographic order over Y's objects.  Identity
    images are then forced; the other morphisms of X are assigned
    depth-first in declared order, each over its hom-set of Y.  Every step
    (one object map or one morphism image tried) counts against `budget`.
    Each composable pair (g, f) of non-identities is checked once, when the
    last of g, f and gf (unless gf is an identity) has its image.

    `fibers` = (objects, morphisms), if given, allows only the listed images:
    `objects[x]` lists the candidates for x in Y's order and `morphisms[m]`
    holds those for each non-identity m.  The yield order is then a
    sub-order of the unrestricted one.  Exhaustive, so keep X and Y tiny.
    """
    objs = X.objects
    non_id = [m for m in X.morphisms if not X.is_identity(m.name)]
    names = [m.name for m in non_id]
    non_id_names = set(names)
    triples = [
        (g, f, X.compose(g, f))
        for g, f in X.composable_pairs()
        if g in non_id_names and f in non_id_names
    ]

    def preserved(mor_map, triple):
        # mor_map holds the identity images too, so gf reads the same way.
        g, f, gf = triple
        return Y.compose(mor_map[g], mor_map[f]) == mor_map[gf]

    search = _Backtrack(names, ((t, t) for t in triples), preserved)
    if fibers is None:
        obj_choices = [Y.objects] * len(objs)
    else:
        obj_choices = [fibers[0][x] for x in objs]

    def choices(i):
        m = non_id[i]
        cands = Y.hom(obj_map[m.dom], obj_map[m.cod])
        if fibers is None:
            return cands
        return [c for c in cands if c in fibers[1][m.name]]

    meter = _Meter("enumerate_functors", budget)
    for combo in itertools.product(*obj_choices):
        meter.step()
        obj_map = dict(zip(objs, combo))
        mor_map = {X.id_of(x): Y.id_of(obj_map[x]) for x in objs}
        for full in search.run(choices, meter, mor_map):
            yield FunctorData(
                f"cand:{Y.name}^{X.name}", X, Y, dict(obj_map), dict(full)
            )


def check_half_right_adjoint(
    T: FunctorData, Tstar: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> NatTransData | None:
    """Comparison transformation making Tstar a pre/post right adjoint of T.

    pre:  some  T.Tstar => Id_Y;   post:  some  Id_Y => T.Tstar.
    """
    comp = compose_functors(T, Tstar)
    idY = identity_functor(T.target)
    if kind == "pre":
        return find_nat_trans(comp, idY, budget)
    if kind == "post":
        return find_nat_trans(idY, comp, budget)
    raise EngineError(f"unknown adjoint kind {kind!r}")


def search_half_right_adjoint(
    T: FunctorData, kind: str, budget: int = DEFAULT_BUDGET
) -> tuple[FunctorData, NatTransData] | None:
    """Exhaustively search for a pre/post right adjoint of T, or None."""
    for cand in enumerate_functors(T.target, T.source, budget):
        nt = check_half_right_adjoint(T, cand, kind, budget)
        if nt is not None:
            cand.name = f"{kind}-radj[{T.name}]"
            return cand, nt
    return None


def fibers(K: FunctorData) -> dict[str, list[str]]:
    """For each target object d, the source objects over d, in the
    source's declared order."""
    out: dict[str, list[str]] = {d: [] for d in K.target.objects}
    for x in K.source.objects:
        out[K.on_obj(x)].append(x)
    return out


def find_section(F: FunctorData, budget: int = DEFAULT_BUDGET) -> FunctorData | None:
    """First functor S with F.S = Id on the target of F (a right inverse).

    F.S = Id holds exactly when S sends each object and each morphism into
    its fiber under F, so the search runs only over those: its first hit is
    the first section of the unrestricted enumeration.
    """
    objs = fibers(F)
    by_image: dict[str, set[str]] = {}
    for m in F.source.morphisms:
        by_image.setdefault(F.on_mor(m.name), set()).add(m.name)
    mors = {m.name: by_image.get(m.name, set()) for m in F.target.morphisms}
    for cand in enumerate_functors(F.target, F.source, budget, fibers=(objs, mors)):
        cand.name = f"section[{F.name}]"
        return cand
    return None


# ---------------------------------------------------------------------------
# Limits and colimits by exhaustive universal-cocone search; a limit is a
# colimit in the opposite category.


@dataclass
class Cone:
    tip: str
    legs: dict[str, str]  # index object -> ambient morphism


@dataclass
class UniversalResult:
    kind: str  # "limit" | "colimit"
    cone: Cone | None
    cones_seen: int
    reason: str | None = None


def _colimit(F: FunctorData, budget: int, kind: str, cone: str) -> UniversalResult:
    """First universal cocone over F in deterministic order, else Absent.

    Cocones run over tips in ambient order, legs depth-first over F's
    source objects.  Universality is literal: against every other cocone
    there must be exactly one mediating morphism commuting with all legs.
    `kind` and `cone` name the result and the two searches, each metered
    by `budget`: "colimit" and "cocone", or "limit" and "cone" when F is
    read between the opposite categories.
    """
    C, objs = F.target, F.source.objects

    def commutes(legs, w):
        return C.compose(legs[w.cod], F.mor_map[w.name]) == legs[w.dom]

    search = _Backtrack(objs, (((w.dom, w.cod), w) for w in F.source.morphisms), commutes)
    meter = _Meter(f"{cone} search", budget)
    cocones = []
    for tip in C.objects:

        def choices(i):
            return C.hom(F.obj_map[objs[i]], tip)

        cocones.extend(Cone(tip, dict(legs)) for legs in search.run(choices, meter, {}))
    if not cocones:
        return UniversalResult(kind, None, 0, f"no {cone}")

    universality = _Meter(f"{kind} universality", budget)

    def one_mediator(cand, other):
        found = 0
        for phi in C.hom(cand.tip, other.tip):
            universality.step()
            if all(C.compose(phi, cand.legs[j]) == other.legs[j] for j in objs):
                found += 1
                if found > 1:
                    break
        return found == 1

    for cand in cocones:
        if all(one_mediator(cand, other) for other in cocones):
            return UniversalResult(kind, cand, len(cocones))
    return UniversalResult(kind, None, len(cocones), f"no universal {cone}")


def colimit(F: FunctorData, budget: int = DEFAULT_BUDGET) -> UniversalResult:
    """First universal cocone over F in deterministic order, else Absent."""
    return _colimit(F, budget, "colimit", "cocone")


def limit(F: FunctorData, budget: int = DEFAULT_BUDGET) -> UniversalResult:
    """First universal cone over F: the universal cocone over F read as a
    functor between the opposite categories, whose legs are F's cone legs."""
    Fop = FunctorData(F.name, opposite(F.source), opposite(F.target), F.obj_map, F.mor_map)
    return _colimit(Fop, budget, "limit", "cone")


def find_iso(C: FinCategory, a: str, b: str) -> tuple[str, str] | None:
    """An isomorphism pair (f: a->b, g: b->a), or None."""
    for f in C.hom(a, b):
        for g in C.hom(b, a):
            if C.compose(g, f) == C.id_of(a) and C.compose(f, g) == C.id_of(b):
                return f, g
    return None
