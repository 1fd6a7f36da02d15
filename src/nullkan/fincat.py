"""Finite categories as explicit tables, with exhaustive and deterministic checks.

A category here is a finite list of objects, a finite list of named morphisms,
an identity assignment and a total composition table.  Every operation walks
these tables in declared order, so equal inputs give byte-equal outputs, and
every law check can produce a concrete witness when it fails.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Callable, ItemsView, Mapping
from functools import cached_property
from typing import NamedTuple

DEFAULT_BUDGET = 200_000
# Witnesses kept by each law checker before it stops looking.
MAX_VIOLATIONS = 20
# The most elements `power_set_preorder` takes: 2^5 subsets.
MAX_POWER_SET = 5
# The most morphisms a category may have: every composition entry is a
# morphism index held in a signed 16-bit slot, with -1 for a gap.
MAX_MORPHISMS = 32767


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
    """Explicit finite category, stored as rows of 16-bit morphism indices.

    Morphisms are numbered in their declared order.  `_in[x]` lists, by
    index, the morphisms into the object with index x (its in-list), and
    `_pos[f]` is f's place in the in-list of cod(f).  Each morphism g has a
    row `_rows[g]`, an `array('h')` with one entry per f in the in-list of
    dom(g): the index of g after f, or -1 where the table has no entry.
    An entry takes 2 bytes, where a list takes an 8-byte pointer and some
    slack: the nullity category that `materialize` builds holds 1.4
    million entries.  So a category has at most MAX_MORPHISMS (32,767)
    morphisms, which `_frame` checks before any row is built; the input
    bounds stop at 16,384.  Reading an entry makes an int object (beyond
    256), so a pass over a whole row reads each entry once.

    A table given as a dict may hold entries that are not composites with
    the right endpoints (cod(f) != dom(g), or g after f not a morphism
    dom(f) -> cod(g)); those are kept only in `_loose`, a dict (g, f) -> gf
    of indices in the given order, so that `validate_category` can report
    them as witnesses in that order.

    Names stay the interface: `compose`, `hom`, `mor`, `id_of` and
    `composable_pairs` take and give names, and `composition` is a
    read-only mapping (g, f) -> g after f computed from the rows.
    Referential integrity is enforced on construction; the categorical laws
    are checked separately by `validate_category`, so that deliberately
    broken tables can be built and then rejected.

    The constructor converts a composition dict once; builders that compose
    as integers pass their `array('h')` rows to `from_rows` instead.  The
    category keeps the `identity` dict it is given without copying: callers
    pass a fresh dict, or one that nothing writes to again.

    A builder whose rows cannot fail may defer them: it hands `from_rows`
    a function that builds the rows, and the first read of `_rows` (by
    `compose`, `composition`, `same_table` with another category,
    `validate_category`, `opposite` or a functor check) calls it and
    checks the shape of what it returns.  A deferred builder raises on that
    read whatever it would have raised when called at once.  Only
    `comma.build_comma` defers, and only when the categories and functors
    of its cospan pass their checks, whose kept reports it reads itself
    (see there).  Its `comma.CommaTable` composes from the legs of its
    squares in place of the rows, so only a reader of the whole table
    builds them, and a search builds none.

    `faithful` and `images` are certificates of associativity, set only by
    builders of concrete categories.  `faithful` holds functors out of
    this category that should preserve its composition and be jointly
    faithful, into categories checked on their own.  `images` holds each
    morphism's image tuple, for a category of set maps.
    `validate_category` verifies a certificate before it relies on it,
    and sweeps every triple when it fails, so a wrong certificate costs
    time, never a verdict.  Default: none.

    `validated` keeps the category's validation report on it, and
    `opposite` its opposite, so the tables must not change once either has
    read them.
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
        rows = [array("h", [-1]) * len(self._in[d]) for d in dom]
        loose = {}
        for (g, f), h in composition.items():
            try:
                gi, fi, hi = index[g], index[f], index[h]
            except KeyError:
                raise EngineError(f"{name}: composition table references unknown name") from None
            if dom[gi] == cod[fi] and dom[hi] == dom[fi] and cod[hi] == cod[gi]:
                rows[gi][pos[fi]] = hi
            else:
                loose[gi, fi] = hi
        self._rows = rows
        self._loose = loose

    @classmethod
    def from_rows(
        cls,
        name: str,
        objects,
        morphisms,
        identity: dict[str, str],
        rows: list[array] | Callable[[], list[array]],
    ) -> "FinCategory":
        """The category whose composition rows (see the class docstring)
        are `rows`, `array('h')` rows that it keeps without copying.  Each
        entry must be -1 or the index of a morphism.  `rows` may instead be
        a function that returns them: the category then builds them on the
        first read."""
        cat = cls.__new__(cls)
        cat._frame(name, objects, morphisms, identity)
        cat._loose = {}
        if callable(rows):
            cat._build_rows = rows
        else:
            cat._rows = cat._shaped(rows)
        return cat

    @cached_property
    def _rows(self) -> list[array]:
        """The deferred rows, built on the first read and kept."""
        rows = self._shaped(self._build_rows())
        del self._build_rows
        return rows

    def _shaped(self, rows: list[array]) -> list[array]:
        """`rows`, after checking that each is an `array('h')` that matches
        its in-list."""
        if list(map(len, rows)) != list(map(len, map(self._in.__getitem__, self._dom))):
            raise EngineError(f"{self.name}: composition rows do not match the in-lists")
        if set(map(type, rows)) - {array} or {r.typecode for r in rows} - {"h"}:
            raise EngineError(f"{self.name}: composition rows are not int16 arrays")
        return rows

    def _frame(self, name, objects, morphisms, identity) -> None:
        """Objects, morphisms, identities and the index tables."""
        self.name = name
        self.objects = objects = tuple(objects)
        mors = tuple(morphisms)
        if len(mors) > MAX_MORPHISMS:
            raise EngineError(f"{name}: {len(mors)} morphisms exceed bound {MAX_MORPHISMS}")
        if set(map(type, mors)) - {Mor}:
            mors = tuple(m if type(m) is Mor else Mor(*m) for m in mors)
        self.morphisms = mors
        self.identity = identity
        self.faithful: tuple[FunctorData, ...] = ()
        self.images: list[tuple[int, ...]] | None = None
        self._report: ValidationReport | None = None
        self._op: FinCategory | None = None

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
        return self._loose.get((gi, fi), -1)

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
            and self._loose == other._loose
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
        for (g, f), h in cat._loose.items():
            yield (names[g], names[f]), names[h]


class _Entries(ItemsView):
    def __iter__(self):
        return self._mapping._entries()


def validate_category(cat: FinCategory) -> ValidationReport:
    """Check the full category laws, collecting witnesses for failures.

    Identities, units, totality and endpoints are checked by direct table
    walks.  Associativity is proved through `cat.images` or `cat.faithful`
    when that certificate holds (see `_certified`); otherwise every
    composable triple is swept by brute force (see `_associativity_sweep`).
    Entries already reported as spurious or with wrong endpoints are left
    out of the sweep.
    It checks no size: sizes are bounded where inputs are read and where
    the comma, set and nullity categories are built.
    """
    violations: list[Violation] = []
    checked = {"identity": 0, "unit": 0, "totality": 0, "associativity": 0}

    def add(v: Violation) -> bool:
        violations.append(v)
        return len(violations) >= MAX_VIOLATIONS

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
    # over the rows.  Loose entries are reported first, in their given
    # order; a row entry can only have wrong endpoints if a builder put it
    # there.
    names, dom, cod, ins, rows = cat._names, cat._dom, cat._cod, cat._in, cat._rows
    n_in = [len(into) for into in ins]
    n_out = [0] * len(ins)
    for d in dom:
        n_out[d] += 1
    n_pairs = sum(a * b for a, b in zip(n_out, n_in))
    checked["totality"] = n_pairs
    spurious = [(g, f) for g, f in cat._loose if dom[g] != cod[f]]
    bad_ends = [(g, f) for g, f in cat._loose if dom[g] == cod[f]]
    n_covered = len(bad_ends)  # composable pairs whose entry is loose
    in_doms = [[dom[f] for f in into] for into in ins]
    # A gap (-1) reads the -1 past the end of dom and of cod, which is no
    # object, so a row with a gap fails the first comparison; only a row
    # that fails is counted for gaps and walked.
    dom_of, cod_of = [*dom, -1].__getitem__, [*cod, -1].__getitem__
    n_missing = 0
    bad_rows = set()
    for g, row in enumerate(rows):
        row = row.tolist()
        d, c = dom[g], cod[g]
        if list(map(dom_of, row)) == in_doms[d] and list(map(cod_of, row)).count(c) == len(row):
            continue
        n_missing += row.count(-1)
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

    if total and not bad_ends and _certified(cat):
        # Every triple is composable and every composite is in the table.
        checked["associativity"] = sum(n_in[d] * n_out[c] for d, c in zip(dom, cod))
        return ValidationReport(not violations, checked, violations)
    if bad_rows:
        rows = list(rows)
        for g in bad_rows:
            d, c = dom[g], cod[g]
            kept = [
                h if h < 0 or (dom[h] == dom[f] and cod[h] == c) else -1
                for f, h in zip(ins[d], rows[g])
            ]
            rows[g] = array("h", kept)
    n_assoc, bad = _associativity_sweep(cat, rows, MAX_VIOLATIONS - len(violations))
    checked["associativity"] = n_assoc
    for h, g, f in bad:
        violations.append(_violation("associativity", h=h, g=g, f=f))
    return ValidationReport(not violations, checked, violations)


def validated(cat: FinCategory) -> ValidationReport:
    """`validate_category(cat)`, computed on the first call for cat and kept
    on it, so that each category is validated once however many verdicts
    read it.  `validate_category` itself keeps nothing."""
    if cat._report is None:
        cat._report = validate_category(cat)
    return cat._report


def checked(F: FunctorData) -> ValidationReport:
    """`check_functor(F)`, computed on the first call for F and kept on it,
    as `validated` keeps a category's report."""
    if F._report is None:
        F._report = check_functor(F)
    return F._report


def _certified(cat: FinCategory) -> bool:
    """Does `cat.images` or `cat.faithful` prove cat associative?

    The caller has checked that cat's table is total with the right
    endpoints.  Loose entries or a missing identity rule a certificate out.

    `images`, set by builders of categories of set maps, gives each
    morphism as a tuple: the image of each point of its domain.  It holds
    when each entry's tuple is the composite of its factors' and no hom
    holds one tuple twice, which one pass over the rows checks.  Then h(gf)
    and (hg)f have the same endpoints and the same tuple, h after g after f
    point by point, so they are one morphism.

    `faithful` holds when each target carries no functor certificate of
    its own and passes `validate_category` (read through `validated`),
    each functor passes `check_functor` (read through `checked`), and the
    functors are jointly faithful: on each hom, m -> (F1(m), F2(m), ...)
    is injective.  Then h(gf) and (hg)f lie in one hom and have the same
    image under every Fi, as Fi(h)(Fi(g)Fi(f)) = (Fi(h)Fi(g))Fi(f) in an
    associative target, so they are one morphism.
    """
    if cat._loose or len(cat.identity) < len(cat.objects):
        return False
    if cat.images is not None:
        img = cat.images
        try:
            return len(set(zip(cat._dom, cat._cod, img))) == len(img) and all(
                list(map(img.__getitem__, row))
                == [tuple(map(img[g].__getitem__, img[f])) for f in cat._in[d]]
                for g, (d, row) in enumerate(zip(cat._dom, cat._rows))
            )
        except IndexError:  # a tuple that does not fit its endpoints
            return False
    if not cat.faithful:
        return False
    for F in cat.faithful:
        if F.target.faithful or not validated(F.target).ok or not checked(F).ok:
            return False
    return all(
        len({tuple(F.mor_map[m] for F in cat.faithful) for m in hom}) == len(hom)
        for hom in cat._hom.values()
    )


def _associativity_sweep(
    cat: FinCategory, rows: list[array], limit: int
) -> tuple[int, list[tuple[str, str, str]]]:
    """Count the composable triples (h, g, f) and find those with h(gf) != (hg)f.

    `rows` are cat's composition rows, holding only entries with the right
    endpoints.  h runs over the morphisms in order of dom(h), then of h; g
    over the in-list of dom(h) where hg is in the rows; f over the in-list
    of dom(g) where gf is in them.  Every such triple is counted, and the
    first `limit` with h(gf) != (hg)f are returned as (h, g, f) names, in
    that order.  h(gf) sits in the row of h at the place of gf, and (hg)f
    in the row of hg at the place of f.
    """
    pos, ins, dom = cat._pos, cat._in, cat._dom
    total = 0
    found: list[tuple[int, int, int]] = []
    for h in sorted(range(len(rows)), key=dom.__getitem__):
        rh = rows[h]
        for g, hg in zip(ins[dom[h]], rh):
            if hg < 0:
                continue
            rhg = rows[hg]
            for f, gf in zip(ins[dom[g]], rows[g]):
                if gf < 0:
                    continue
                total += 1
                if len(found) < limit and rh[pos[gf]] != rhg[pos[f]]:
                    found.append((h, g, f))
    names = cat._names
    return total, [(names[h], names[g], names[f]) for h, g, f in found]


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
    rows = [array("h", [at[x, z] for x, _ in into[y]]) for y, z in pairs]
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


def power_set_preorder(name: str, elements) -> FinCategory:
    """All subsets of `elements` ordered by inclusion."""
    elements = tuple(elements)
    if len(elements) > MAX_POWER_SET:
        raise EngineError(f"{name}: {len(elements)} elements exceeds bound {MAX_POWER_SET}")
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
    the row of g in C^op reads the place of g in the rows of C.  Built on
    the first call for C and kept on it."""
    if C._op is not None:
        return C._op
    outs: list[list[int]] = [[] for _ in C.objects]
    for m, d in enumerate(C._dom):
        outs[d].append(m)
    rows, pos = C._rows, C._pos
    op = FinCategory.from_rows(
        f"{C.name}^op",
        C.objects,
        [Mor(m.name, m.cod, m.dom) for m in C.morphisms],
        C.identity,
        [array("h", [rows[f][pos[g]] for f in outs[c]]) for g, c in enumerate(C._cod)],
    )
    op._loose = {(f, g): h for (g, f), h in C._loose.items()}
    C._op = op
    return op


# ---------------------------------------------------------------------------
# Functors and natural transformations.


class FunctorData:
    """A functor given by explicit object and morphism tables.

    `carrier_obj` / `carrier_mor` are optional payloads used when the
    functor assigns concrete finite sets and set maps (see nullity.py);
    the categorical checks ignore them.  `checked` keeps the functor's
    `check_functor` report in `_report`, so the tables must not change
    once it has read them; `_replace` gives a copy without the report.
    """

    __slots__ = (
        "name", "source", "target", "obj_map", "mor_map", "carrier_obj", "carrier_mor", "_report"
    )

    def __init__(
        self,
        name: str,
        source: FinCategory,
        target: FinCategory,
        obj_map: dict[str, str],
        mor_map: dict[str, str],
        carrier_obj: dict | None = None,
        carrier_mor: dict | None = None,
    ):
        self.name, self.source, self.target = name, source, target
        self.obj_map, self.mor_map = obj_map, mor_map
        self.carrier_obj, self.carrier_mor = carrier_obj, carrier_mor
        self._report: ValidationReport | None = None

    def _replace(self, **fields) -> "FunctorData":
        return FunctorData(**{k: getattr(self, k) for k in self.__slots__[:-1]} | fields)

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


def check_functor(F: FunctorData) -> ValidationReport:
    """Check that F preserves objects, morphisms, endpoints, identities and
    composites.  Composites are read from the rows; a composable pair with
    no entry in the source's table is skipped and not counted (the source's
    own report names it), and one missing from the target is a witness."""
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
        return ValidationReport(False, checked, violations[:MAX_VIOLATIONS])

    for x in src.objects:
        checked["identities"] += 1
        if F.mor_map[src.id_of(x)] != tgt.id_of(F.obj_map[x]):
            violations.append(_violation("functor-identity", object=x))
            if len(violations) >= MAX_VIOLATIONS:
                return ValidationReport(False, checked, violations)
    # Each row of the source, mapped by F, is compared in one step with the
    # row of its image read at the places of the images of its in-list; a
    # row that differs is walked pair by pair for witnesses.  F on indices
    # ends in -2, which no row holds, so a gap (-1) never compares equal.
    # The image row depends only on F(g) and dom(g): it is read once for
    # each F(g) in a run of rows with one domain, and kept for that run.
    names, ins, trows, tpos = src._names, src._in, tgt._rows, tgt._pos
    fm = [*map(tgt._index.__getitem__, map(F.mor_map.__getitem__, names)), -2]
    tpos_in = [[tpos[fm[f]] for f in into] for into in ins]
    run, images = -1, {}
    for g, (d, row) in enumerate(zip(src._dom, src._rows)):
        if d != run:
            run, images = d, {}
        image = images.get(fm[g])
        if image is None:
            image = images[fm[g]] = list(map(trows[fm[g]].__getitem__, tpos_in[d]))
        if len(violations) < MAX_VIOLATIONS and image == list(map(fm.__getitem__, row)):
            checked["composition"] += len(row)
            continue
        for f in ins[d]:
            h = src._composite(g, f)
            if h < 0:
                continue
            checked["composition"] += 1
            if tgt._composite(fm[g], fm[f]) != fm[h]:
                violations.append(_violation("functor-composition", g=names[g], f=names[f]))
            if len(violations) >= MAX_VIOLATIONS:
                return ValidationReport(False, checked, violations)
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
