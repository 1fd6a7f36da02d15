"""Finite categories as explicit tables, with exhaustive and deterministic checks.

A category here is a finite list of objects, a finite list of named morphisms,
an identity assignment and a total composition table.  Every operation walks
these tables in declared order, so equal inputs give byte-equal outputs, and
every law check can produce a concrete witness when it fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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
        self.identity = dict(identity)
        self.composition = dict(composition)

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
        self._mor_index = {m.name: i for i, m in enumerate(self.morphisms)}
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

    def compose_path(self, *names: str) -> str:
        """Compose a whole path written outermost-first: compose_path(h, g, f)."""
        out = names[0]
        for f in names[1:]:
            out = self.compose(out, f)
        return out

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
        return (
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


# Largest number of cells in one temporary of the associativity sweep; a
# slice is cut below this unless a single row of a block is larger.
_SWEEP_CELLS = 1 << 18


def _composition_triples(cat: FinCategory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composition table as parallel (g, f, gf) index arrays."""
    import numpy as np

    n = len(cat.composition)
    ix = cat._mor_index.__getitem__
    keys = cat.composition.keys()
    garr = np.fromiter(map(ix, map(itemgetter(0), keys)), dtype=np.int32, count=n)
    farr = np.fromiter(map(ix, map(itemgetter(1), keys)), dtype=np.int32, count=n)
    harr = np.fromiter(map(ix, cat.composition.values()), dtype=np.int32, count=n)
    return garr, farr, harr


def validate_category(
    cat: FinCategory,
    *,
    max_objects: int = MAX_OBJECTS,
    max_morphisms: int = MAX_MORPHISMS,
    max_violations: int = 20,
) -> ValidationReport:
    """Check the full category laws, collecting witnesses for failures.

    Identity and unit problems are found by direct table walks.  Totality
    and endpoints are checked with index arithmetic over the composition
    table, turned into index arrays once.  Associativity is swept by brute
    force over every composable triple (see `_associativity_sweep`), using
    one block of the table per object: memory is one cell per composable
    pair plus temporaries of at most `_SWEEP_CELLS` cells (or one block
    row), never an n_morphisms x n_morphisms table.  Entries already reported as spurious
    or with wrong endpoints are left out of the sweep.
    """
    # numpy is imported here and in the two helpers only, so that commands
    # which never validate a category do not load it.
    import numpy as np

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

    # Totality and endpoint sanity of the composition table. Index arithmetic
    # covers the whole table; the per-pair witness walk only runs once the
    # entry count proves some composable pair has no entry.
    names = [m.name for m in cat.morphisms]
    dom_ix = np.array([cat._obj_index[m.dom] for m in cat.morphisms], dtype=np.int32)
    cod_ix = np.array([cat._obj_index[m.cod] for m in cat.morphisms], dtype=np.int32)
    n_obj = len(cat.objects)
    n_pairs = int(
        np.bincount(dom_ix, minlength=n_obj) @ np.bincount(cod_ix, minlength=n_obj)
    )
    checked["totality"] = n_pairs
    garr, farr, harr = _composition_triples(cat)
    composable = cod_ix[farr] == dom_ix[garr]
    for i in np.nonzero(~composable)[0]:
        if add(_violation("composition-spurious", g=names[garr[i]], f=names[farr[i]])):
            return ValidationReport(False, checked, violations)
    bad_ends = composable & (
        (dom_ix[harr] != dom_ix[farr]) | (cod_ix[harr] != cod_ix[garr])
    )
    for i in np.nonzero(bad_ends)[0]:
        if add(
            _violation(
                "composition-endpoints",
                g=names[garr[i]],
                f=names[farr[i]],
                composite=names[harr[i]],
            )
        ):
            return ValidationReport(False, checked, violations)
    if int(composable.sum()) < n_pairs:
        have = set(cat.composition)
        for g, f in cat.composable_pairs():
            if (g, f) not in have:
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

    keep = composable & ~bad_ends
    n_assoc, bad = _associativity_sweep(
        n_obj,
        dom_ix,
        cod_ix,
        (garr[keep], farr[keep], harr[keep]),
        max_violations - len(violations),
    )
    checked["associativity"] = n_assoc
    for h, g, f in bad:
        violations.append(_violation("associativity", h=names[h], g=names[g], f=names[f]))
    return ValidationReport(not violations, checked, violations)


def _associativity_sweep(
    n_obj: int,
    dom: np.ndarray,
    cod: np.ndarray,
    triples: tuple[np.ndarray, np.ndarray, np.ndarray],
    limit: int,
) -> tuple[int, list[tuple[int, int, int]]]:
    """Count the composable triples (h, g, f) and find those with h(gf) != (hg)f.

    `triples` are (g, f, gf) index arrays whose entries are composable and
    have the right endpoints.  They are laid out as one block per object x:
    `block[x][i, j]` is the i-th morphism out of x after the j-th morphism
    into x, or -1 where the table has no entry, so the blocks hold one cell
    per composable pair.  For f: a -> b, g: b -> c and h: c -> d, h(gf) is
    read from `block[c]` and (hg)f from `block[b]`.  The sweep runs over
    each b and each c with Hom(b, c) non-empty, cut along g and h so that
    no temporary exceeds `_SWEEP_CELLS` cells or one row of a block.

    Every triple with both gf and hg in the table is counted.  The first
    `limit` failing triples are returned as (h, g, f) morphism indices,
    ordered by c, then h, g and f.
    """
    import numpy as np

    garr, farr, harr = triples
    n_mor = dom.size
    outs = [np.flatnonzero(dom == x) for x in range(n_obj)]
    ins = [np.flatnonzero(cod == x) for x in range(n_obj)]
    # Position of each morphism among those out of its domain (row) and into
    # its codomain (col); the extra last slot sends a missing entry, -1, to 0.
    row = np.zeros(n_mor + 1, dtype=np.intp)
    col = np.zeros(n_mor + 1, dtype=np.intp)
    for x in range(n_obj):
        row[outs[x]] = np.arange(outs[x].size)
        col[ins[x]] = np.arange(ins[x].size)
    n_in = np.array([a.size for a in ins], dtype=np.intp)
    start = np.zeros(n_obj + 1, dtype=np.intp)
    start[1:] = np.cumsum([outs[x].size * ins[x].size for x in range(n_obj)])
    cells = np.full(int(start[-1]), -1, dtype=np.int32)
    mid = dom[garr]
    cells[start[mid] + row[garr] * n_in[mid] + col[farr]] = harr
    block = [
        cells[start[x] : start[x + 1]].reshape(outs[x].size, ins[x].size)
        for x in range(n_obj)
    ]

    total = 0
    found: list[tuple[int, int, int]] = []
    for c in range(n_obj):
        tc = block[c]
        hits = []
        for b in range(n_obj):
            gs = outs[b][cod[outs[b]] == c]
            tb = block[b]
            n_f = tb.shape[1]
            if gs.size == 0 or n_f == 0:
                continue
            g_step = max(1, _SWEEP_CELLS // n_f)
            for g0 in range(0, gs.size, g_step):
                g = gs[g0 : g0 + g_step]
                gf = tb[row[g]]
                gf_ok = gf >= 0
                n_gf = np.count_nonzero(gf_ok, axis=1)
                gf_col = col[gf].ravel()
                h_step = max(1, _SWEEP_CELLS // gf.size)
                for h0 in range(0, tc.shape[0], h_step):
                    th = tc[h0 : h0 + h_step]
                    hg = th[:, col[g]]
                    hg_ok = hg >= 0
                    total += int(np.count_nonzero(hg_ok, axis=0) @ n_gf)
                    if len(found) >= limit:
                        continue
                    lhs = np.take(th, gf_col, axis=1).reshape(-1)
                    rhs = np.take(tb, row[hg].ravel(), axis=0).reshape(-1)
                    neq = lhs != rhs
                    if not neq.any():
                        continue
                    neq = neq.reshape(th.shape[0], g.size, n_f)
                    neq &= hg_ok[:, :, None] & gf_ok[None, :, :]
                    hi, gi, fi = (a[:limit] for a in np.nonzero(neq))
                    hits.append(np.stack([outs[c][h0 + hi], g[gi], ins[b][fi]]))
        if hits:
            wh, wg, wf = np.concatenate(hits, axis=1)
            order = np.lexsort((wf, wg, wh))[: limit - len(found)]
            found.extend(zip(wh[order].tolist(), wg[order].tolist(), wf[order].tolist()))
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
        if fm is None or fm not in tgt._mor_index:
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
    if F.target is not G.source and not F.target.same_table(G.source):
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
        if c is None or c not in tgt._mor_index:
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


def find_section(F: FunctorData, budget: int = DEFAULT_BUDGET) -> FunctorData | None:
    """First functor S with F.S = Id on the target of F (a right inverse).

    F.S = Id holds exactly when S sends each object and each morphism into
    its fiber under F, so the search runs only over those: its first hit is
    the first section of the unrestricted enumeration.
    """
    objs = {
        y: [x for x in F.source.objects if F.on_obj(x) == y] for y in F.target.objects
    }
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
