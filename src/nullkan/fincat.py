"""Finite categories as explicit tables, with exhaustive and deterministic checks.

A category here is a finite list of objects, a finite list of named morphisms,
an identity assignment and a total composition table.  Every operation walks
these tables in declared order, so equal inputs give byte-equal outputs, and
every law check can produce a concrete witness when it fails.
"""

from __future__ import annotations

import itertools
from collections.abc import ItemsView, Mapping
from operator import itemgetter
from typing import NamedTuple

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


class Mor(NamedTuple):
    """A named morphism with explicit endpoints."""

    name: str
    dom: str
    cod: str


class _Frozen:
    """A value record over `__slots__`: instances of one class with equal
    fields are equal and hash alike, and a field cannot be assigned to."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"{self.__class__.__name__}{self._values()!r}"


class Violation(_Frozen):
    """A broken law and its witness, as sorted (role, name) pairs."""

    __slots__ = ("law", "witness")

    def as_dict(self) -> dict:
        return {"law": self.law, "witness": dict(self.witness)}


def _violation(law: str, **witness: str) -> Violation:
    return Violation(law, tuple(sorted(witness.items())))


class ValidationReport(NamedTuple):
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
    """Explicit finite category, stored as one table of integers.

    Morphisms are numbered in their declared order.  `_in[x]` lists, by
    index, the morphisms into the object with index x (its in-list), and
    `_pos[f]` is f's place in the in-list of cod(f).  Each morphism g has a
    row `_rows[g]` with one entry per f in the in-list of dom(g): the index
    of g after f, or -1 where the table has no entry.  A table given as a
    dict may hold entries that are not composites with the right endpoints
    (cod(f) != dom(g), or g after f not a morphism dom(f) -> cod(g)); those
    are kept only in `_loose`, as (g, f, gf) indices in the given order, so
    that `validate_category` can report them as witnesses in that order.

    Names stay the interface: `compose`, `hom`, `mor`, `id_of` and
    `composable_pairs` take and give names, and `composition` is a
    read-only mapping (g, f) -> g after f computed from the rows.
    Referential integrity is enforced on construction; the categorical laws
    are checked separately by `validate_category`, so that deliberately
    broken tables can be built and then rejected.

    The constructor converts a composition dict once; builders that compose
    as integers pass their rows to `from_rows` instead.  The category keeps
    the `identity` dict it is given without copying: callers pass a fresh
    dict, or one that nothing writes to again.

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
        composition: Mapping[tuple[str, str], str],
    ):
        self._frame(name, objects, morphisms, identity)
        index, dom, cod, pos = self._index, self._dom, self._cod, self._pos
        rows = [[-1] * len(self._in[d]) for d in dom]
        loose = []
        for (g, f), h in composition.items():
            try:
                gi, fi, hi = index[g], index[f], index[h]
            except KeyError:
                raise EngineError(f"{name}: composition table references unknown name") from None
            if dom[gi] == cod[fi] and dom[hi] == dom[fi] and cod[hi] == cod[gi]:
                rows[gi][pos[fi]] = hi
            else:
                loose.append((gi, fi, hi))
        self._rows = rows
        self._loose = loose

    @classmethod
    def from_rows(
        cls,
        name: str,
        objects,
        morphisms,
        identity: dict[str, str],
        rows: list[list[int]],
    ) -> "FinCategory":
        """The category whose composition rows (see the class docstring)
        are `rows`, which it keeps without copying.  Each entry must be -1
        or the index of a morphism."""
        cat = cls.__new__(cls)
        cat._frame(name, objects, morphisms, identity)
        if list(map(len, rows)) != list(map(len, map(cat._in.__getitem__, cat._dom))):
            raise EngineError(f"{name}: composition rows do not match the in-lists")
        cat._rows = rows
        cat._loose = []
        return cat

    def _frame(self, name, objects, morphisms, identity) -> None:
        """Objects, morphisms, identities and the index tables."""
        self.name = name
        self.objects = objects = tuple(objects)
        mors = tuple(morphisms)
        if set(map(type, mors)) - {Mor}:
            mors = tuple(m if type(m) is Mor else Mor(*m) for m in mors)
        self.morphisms = mors
        self.identity = identity
        self.faithful: tuple[FunctorData, ...] = ()

        self._obj_index = obj_index = {x: i for i, x in enumerate(objects)}
        if len(obj_index) != len(objects):
            raise EngineError(f"{name}: duplicate object names")
        self._index = index = {}
        self._dom, self._cod, self._pos = dom, cod, pos = [], [], []
        self._in = ins = [[] for _ in objects]
        self._hom = hom = {}
        for i, m in enumerate(mors):
            if m.name in index:
                raise EngineError(f"{name}: duplicate morphism name {m.name!r}")
            if m.dom not in obj_index or m.cod not in obj_index:
                raise EngineError(f"{name}: morphism {m.name!r} has unknown endpoint")
            index[m.name] = i
            c = obj_index[m.cod]
            dom.append(obj_index[m.dom])
            cod.append(c)
            pos.append(len(ins[c]))
            ins[c].append(i)
            hom.setdefault((m.dom, m.cod), []).append(m.name)
        for x, i in identity.items():
            if x not in obj_index or i not in index:
                raise EngineError(f"{name}: identity table references unknown name")
        self._names = list(index)

    @property
    def composition(self) -> "CompositionView":
        return CompositionView(self)

    def mor(self, name: str) -> Mor:
        try:
            return self.morphisms[self._index[name]]
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

    def _composite(self, gi: int, fi: int) -> int:
        """Index of g after f, or -1 where the table has no entry."""
        if self._dom[gi] == self._cod[fi]:
            h = self._rows[gi][self._pos[fi]]
            if h >= 0:
                return h
        for g2, f2, h in self._loose:
            if g2 == gi and f2 == fi:
                return h
        return -1

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        try:
            gi = self._index[g]
            fi = self._index[f]
        except KeyError:
            pass
        else:
            if self._dom[gi] == self._cod[fi]:
                h = self._rows[gi][self._pos[fi]]
                if h >= 0:
                    return self._names[h]
            if self._loose:
                h = self._composite(gi, fi)
                if h >= 0:
                    return self._names[h]
        raise EngineError(
            f"{self.name}: composition table has no entry for ({g!r}, {f!r})"
        )

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return tuple(self._hom.get((a, b), ()))

    def endos(self, a: str) -> tuple[str, ...]:
        return self.hom(a, a)

    def composable_pairs(self):
        """Yield (g, f) with cod(f) == dom(g), in deterministic order."""
        names = self._names
        for g, d in zip(names, self._dom):
            for f in self._in[d]:
                yield g, names[f]

    def same_table(self, other: "FinCategory") -> bool:
        return self is other or (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self._rows == other._rows
            and sorted(self._loose) == sorted(other._loose)
        )

    def __repr__(self):
        return (
            f"FinCategory({self.name!r}, {len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


class CompositionView(Mapping):
    """Read-only (g, f) -> g after f, by name, over a category's rows: the
    row entries in row order, then the loose ones in their given order."""

    def __init__(self, cat: FinCategory):
        self._cat = cat

    def __getitem__(self, key: tuple[str, str]) -> str:
        cat = self._cat
        g, f = key
        gi, fi = cat._index.get(g), cat._index.get(f)
        h = -1 if gi is None or fi is None else cat._composite(gi, fi)
        if h < 0:
            raise KeyError(key)
        return cat._names[h]

    def __len__(self) -> int:
        cat = self._cat
        return sum(len(r) - r.count(-1) for r in cat._rows) + len(cat._loose)

    def __iter__(self):
        return (k for k, _ in self._entries())

    def items(self) -> ItemsView:
        return _Entries(self)

    def _entries(self):
        cat = self._cat
        names, ins = cat._names, cat._in
        for g, row, d in zip(names, cat._rows, cat._dom):
            for f, h in zip(ins[d], row):
                if h >= 0:
                    yield (g, names[f]), names[h]
        for g, f, h in cat._loose:
            yield (names[g], names[f]), names[h]


class _Entries(ItemsView):
    def __iter__(self):
        return self._mapping._entries()


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
    # over the rows that also checks that each certificate functor
    # preserves each entry.  Loose entries are reported first, in their
    # given order; a row entry can only have wrong endpoints if a builder
    # put it there.
    names, dom, cod, ins, rows = cat._names, cat._dom, cat._cod, cat._in, cat._rows
    n_in = [len(into) for into in ins]
    n_out = [0] * len(ins)
    for d in dom:
        n_out[d] += 1
    n_pairs = sum(a * b for a, b in zip(n_out, n_in))
    checked["totality"] = n_pairs
    spurious = [(g, f) for g, f, _ in cat._loose if dom[g] != cod[f]]
    bad_ends = [(g, f) for g, f, _ in cat._loose if dom[g] == cod[f]]
    n_covered = len(bad_ends)  # composable pairs whose entry is loose
    in_doms = [[dom[f] for f in into] for into in ins]
    # Loose entries rule the certificate out, whatever the functors do.
    frames = [] if cat._loose else [_frame(F, cat) for F in cat.faithful]
    preserved = not cat._loose and None not in frames
    n_missing = 0
    bad_rows = set()
    for g, row in enumerate(rows):
        d, c = dom[g], cod[g]
        if -1 in row:
            n_missing += row.count(-1)
            preserved = False
        elif (
            list(map(dom.__getitem__, row)) == in_doms[d]
            and list(map(cod.__getitem__, row)).count(c) == len(row)
        ):
            if preserved:
                for fm, trows, tpos_in in frames:
                    image = map(trows[fm[g]].__getitem__, tpos_in[d])
                    if list(image) != list(map(fm.__getitem__, row)):
                        preserved = False
                        break
            continue
        for f, h in zip(ins[d], row):
            if h >= 0 and (dom[h] != dom[f] or cod[h] != c):
                bad_ends.append((g, f))
                bad_rows.add(g)
    for g, f in spurious:
        if add(_violation("composition-spurious", g=names[g], f=names[f])):
            return ValidationReport(False, checked, violations)
    for g, f in bad_ends:
        h = names[cat._composite(g, f)]
        if add(_violation("composition-endpoints", g=names[g], f=names[f], composite=h)):
            return ValidationReport(False, checked, violations)
    total = n_missing == n_covered
    if not total:
        covered = {(g, f) for g, f in bad_ends[:n_covered]}
        for g, row in enumerate(rows):
            for f, h in zip(ins[dom[g]], row):
                if h < 0 and (g, f) not in covered:
                    if add(_violation("composition-missing", g=names[g], f=names[f])):
                        return ValidationReport(False, checked, violations)

    # Unit laws.
    index = cat._index
    for i, m in enumerate(cat.morphisms):
        checked["unit"] += 1
        lid = cat.identity.get(m.cod)
        rid = cat.identity.get(m.dom)
        if lid is not None and cat._composite(index[lid], i) != i:
            if add(_violation("left-unit", morphism=m.name, identity=lid)):
                return ValidationReport(False, checked, violations)
        if rid is not None and cat._composite(i, index[rid]) != i:
            if add(_violation("right-unit", morphism=m.name, identity=rid)):
                return ValidationReport(False, checked, violations)

    if preserved and total and not bad_ends and _certified(cat):
        # Every triple is composable and every composite is in the table.
        checked["associativity"] = sum(n_in[d] * n_out[c] for d, c in zip(dom, cod))
        return ValidationReport(not violations, checked, violations)
    if bad_rows:
        rows = list(rows)
        for g in bad_rows:
            d, c = dom[g], cod[g]
            rows[g] = [
                h if h < 0 or (dom[h] == dom[f] and cod[h] == c) else -1
                for f, h in zip(ins[d], rows[g])
            ]
    n_assoc, bad = _associativity_sweep(cat, rows, max_violations - len(violations))
    checked["associativity"] = n_assoc
    for h, g, f in bad:
        violations.append(_violation("associativity", h=h, g=g, f=f))
    return ValidationReport(not violations, checked, violations)


def _frame(F: FunctorData, cat: FinCategory):
    """If F sends cat's objects, morphisms and identities to the right
    places in its target, the tables that check F against cat's rows:
    (F on morphism indices, the target's rows, and for each object x the
    places of the images of x's in-list in the target's in-lists).
    Otherwise None.  (Composition is checked on cat's rows.)"""
    tgt = F.target
    for x in cat.objects:
        y = F.obj_map.get(x)
        if y not in tgt._obj_index:
            return None
        if x not in cat.identity or F.mor_map.get(cat.identity[x]) != tgt.identity.get(y):
            return None
    fm = []
    for m in cat.morphisms:
        i = tgt._index.get(F.mor_map.get(m.name))
        im = None if i is None else tgt.morphisms[i]
        if im is None or (im.dom, im.cod) != (F.obj_map[m.dom], F.obj_map[m.cod]):
            return None
        fm.append(i)
    tpos = tgt._pos
    return fm, tgt._rows, [[tpos[fm[f]] for f in into] for into in cat._in]


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
    cat: FinCategory, rows: list[list[int]], limit: int
) -> tuple[int, list[tuple[str, str, str]]]:
    """Count the composable triples (h, g, f) and find those with h(gf) != (hg)f.

    `rows` are cat's composition rows, holding only entries with the right
    endpoints.  Every triple with both gf and hg in them is counted.  The
    first `limit` failing triples are returned as (h, g, f) names, ordered
    by the index of c = cod(g), then of h, g and f.

    For each g, `gf_at[g]` reads a row at the places of g's composites gf
    in the in-list of cod(g), which is the in-list that the row of h runs
    over, and (hg)f sits at the same place in the row of hg as gf in the
    row of g.  Where g's row has gaps, `live[g]` reads a row at the places
    where it has entries.
    """
    pos, ins, dom = cat._pos, cat._in, cat._dom
    full = [tuple(row) for row in rows]
    live, gf_at, n_live = [], [], []
    for row in rows:
        if -1 in row:
            places = [i for i, x in enumerate(row) if x >= 0]
            live.append(_picker(places))
        else:
            places = range(len(row))
            live.append(None)
        gf_at.append(_picker([pos[row[i]] for i in places]))
        n_live.append(len(places))
    total = 0
    found: list[tuple[int, int, int]] = []
    for h in sorted(range(len(rows)), key=dom.__getitem__):
        rh = rows[h]
        for g, hg in zip(ins[dom[h]], rh):
            if hg < 0:
                continue
            total += n_live[g]
            if len(found) == limit:
                continue
            lhs = gf_at[g](rh)
            rhs = full[hg] if live[g] is None else live[g](rows[hg])
            if lhs != rhs:
                fs = ins[dom[g]] if live[g] is None else live[g](ins[dom[g]])
                bad = [f for f, x, y in zip(fs, lhs, rhs) if x != y]
                found.extend((h, g, f) for f in bad[: limit - len(found)])
    names = cat._names
    return total, [(names[h], names[g], names[f]) for h, g, f in found]


def _picker(places):
    """A function reading a list at `places` into a tuple."""
    if len(places) == 1:
        p = places[0]
        return lambda r: (r[p],)
    return itemgetter(*places) if places else lambda r: ()


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

    pairs = [(x, y) for x in elements for y in elements if (x, y) in rel]
    at = {p: i for i, p in enumerate(pairs)}
    into = {y: [p for p in pairs if p[1] == y] for y in elements}
    # The row of y <= z runs over the x <= y; its entries are the x <= z.
    rows = [[at[x, z] for x, _ in into[y]] for y, z in pairs]
    mors = [Mor(f"le:{x}>{y}", x, y) for x, y in pairs]
    ids = {x: f"le:{x}>{x}" for x in elements}
    return FinCategory.from_rows(name, elements, mors, ids, rows)


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
    in C^op is f after g in C.

    The in-list of x in C^op is the list of morphisms out of x in C, so
    the row of g in C^op reads the place of g in the rows of C."""
    outs: list[list[int]] = [[] for _ in C.objects]
    for m, d in enumerate(C._dom):
        outs[d].append(m)
    rows, pos = C._rows, C._pos
    op = FinCategory.from_rows(
        f"{C.name}^op",
        C.objects,
        [Mor(m.name, m.cod, m.dom) for m in C.morphisms],
        C.identity,
        [[rows[f][pos[g]] for f in outs[c]] for g, c in enumerate(C._cod)],
    )
    op._loose = [(f, g, h) for g, f, h in C._loose]
    return op


# ---------------------------------------------------------------------------
# Functors and natural transformations.


class FunctorData(NamedTuple):
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
        if fm is None or fm not in tgt._index:
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


class NatTransData(NamedTuple):
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
        if c is None or c not in tgt._index:
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
            return cand._replace(name=f"{kind}-radj[{T.name}]"), nt
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
        return cand._replace(name=f"section[{F.name}]")
    return None


# ---------------------------------------------------------------------------
# Limits and colimits by exhaustive universal-cocone search; a limit is a
# colimit in the opposite category.


class Cone(NamedTuple):
    tip: str
    legs: dict[str, str]  # index object -> ambient morphism


class UniversalResult(NamedTuple):
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
