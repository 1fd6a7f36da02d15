"""Line-oriented model files.

A file either names a builtin (`model: f2_proper`) or declares blocks:

    category B
      object F2^0
      morphism A0 F2^0 F2^1
      identity F2^0 id:F2^0
      compose g f gf
    end

    functor j1 B M
      obj F2^0 F2^0
      mor A0 T0
    end

    carriers gamma M
      carrier F2^1 0 1
      map s 0>1 1>0
    end

    nullity n1
      carrier 0 1
      null
      null 0
    end

    setup
      base B
      ...
      basenull F2^0 n0
    end

Tokens are whitespace-separated; ids never contain whitespace.  Lines
whose first non-blank character is `#` are comments (ids may contain
`#`, so there are no trailing comments).  Every referenced id must be
declared on an earlier line.  `parse_spec` reports the first error with
its line number, and `serialize_spec` emits the canonical form
(two-space indent, single spaces, no comments), so canonical files
round-trip byte-for-byte.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .construct import BUILTIN_NAMES, Setup, builtin_model
from .fincat import EngineError, FinCategory, FunctorData
from .nullity import carrier_functor, carrier_of, setmap_of
from .order import FiniteSet, SetMap, down_closure

FORMAT_VERSION = 1


class SpecError(EngineError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


# The blocks a file declares.  The parser opens each with empty lists and
# appends a line at a time.


class CategoryBlock(NamedTuple):
    name: str
    objects: list[str]
    morphisms: list[tuple[str, str, str]]
    identities: list[tuple[str, str]]
    compositions: list[tuple[str, str, str]]


class FunctorBlock(NamedTuple):
    name: str
    src: str
    tgt: str
    obj: list[tuple[str, str]]
    mor: list[tuple[str, str]]


class CarrierBlock(NamedTuple):
    name: str
    cat: str
    carriers: list[tuple[str, tuple[str, ...]]]
    maps: list[tuple[str, tuple[tuple[str, str], ...]]]


class NullityBlock(NamedTuple):
    name: str
    carrier: tuple[str, ...] | None
    nulls: list[tuple[str, ...]]


class SetupBlock(NamedTuple):
    names: dict[str, str]  # base/inter/main/j1/j2/pi/gamma
    basenull: list[tuple[str, str]]


class SpecDocument:
    """A model shortcut line, or the blocks of a file in declared order."""

    def __init__(self, model: str | None = None):
        self.version = FORMAT_VERSION
        self.model = model
        self.categories: dict[str, CategoryBlock] = {}
        self.functors: dict[str, FunctorBlock] = {}
        self.carriers: dict[str, CarrierBlock] = {}
        self.nullities: dict[str, NullityBlock] = {}
        self.setup: SetupBlock | None = None


def parse_spec(text: str) -> SpecDocument:
    doc = SpecDocument()
    block = None       # (kind, object)
    # The ids each line kind has declared in the open block, and the object
    # and morphism ids of each closed category, so every check is a lookup.
    ids: dict[str, set] = defaultdict(set)
    category_ids: dict[str, dict[str, set]] = {}
    seen_version = False
    seen_any = False

    def err(n, msg):
        raise SpecError(n, msg)

    for n, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        toks = raw.split()
        head = toks[0]
        first = not seen_any
        seen_any = True

        if block is None:
            if head == "version:":
                if not first:
                    err(n, "version must be the first directive")
                if len(toks) != 2 or not toks[1].isdigit():
                    err(n, "version takes a single integer")
                doc.version = int(toks[1])
                if doc.version != FORMAT_VERSION:
                    err(n, f"unsupported format version {doc.version}")
                seen_version = True
            elif head == "model:":
                if len(toks) != 2:
                    err(n, "model takes a single builtin name")
                if toks[1] not in BUILTIN_NAMES:
                    err(n, f"unknown builtin model {toks[1]!r}")
                if doc.model is not None:
                    err(n, "duplicate model line")
                doc.model = toks[1]
            elif head == "category":
                if len(toks) != 2:
                    err(n, "category takes a single name")
                if toks[1] in doc.categories:
                    err(n, f"duplicate category {toks[1]!r}")
                block = ("category", CategoryBlock(toks[1], [], [], [], []))
            elif head == "functor":
                if len(toks) != 4:
                    err(n, "functor takes name, source, target")
                name, src, tgt = toks[1:]
                if name in doc.functors:
                    err(n, f"duplicate functor {name!r}")
                for c in (src, tgt):
                    if c not in doc.categories:
                        err(n, f"dangling reference: category {c!r} not declared")
                block = ("functor", FunctorBlock(name, src, tgt, [], []))
            elif head == "carriers":
                if len(toks) != 3:
                    err(n, "carriers takes name and category")
                name, cat = toks[1:]
                if name in doc.carriers:
                    err(n, f"duplicate carriers block {name!r}")
                if cat not in doc.categories:
                    err(n, f"dangling reference: category {cat!r} not declared")
                block = ("carriers", CarrierBlock(name, cat, [], []))
            elif head == "nullity":
                if len(toks) != 2:
                    err(n, "nullity takes a single name")
                if toks[1] in doc.nullities:
                    err(n, f"duplicate nullity {toks[1]!r}")
                block = ("nullity", NullityBlock(toks[1], None, []))
            elif head == "setup":
                if len(toks) != 1:
                    err(n, "setup takes no arguments")
                if doc.setup is not None:
                    err(n, "duplicate setup block")
                block = ("setup", SetupBlock({}, []))
            else:
                err(n, f"unknown directive {head!r}")
            ids = defaultdict(set)
            continue

        kind, b = block
        if head == "end":
            if len(toks) != 1:
                err(n, "end takes no arguments")
            if kind == "category":
                doc.categories[b.name] = b
                category_ids[b.name] = ids
            elif kind == "functor":
                doc.functors[b.name] = b
            elif kind == "carriers":
                doc.carriers[b.name] = b
            elif kind == "nullity":
                if b.carrier is None:
                    err(n, f"nullity {b.name!r} has no carrier line")
                doc.nullities[b.name] = b
            else:
                doc.setup = b
            block = None
            continue

        if kind == "category":
            objs, mors = ids["object"], ids["morphism"]
            if head == "object" and len(toks) == 2:
                if toks[1] in objs:
                    err(n, f"duplicate object {toks[1]!r}")
                objs.add(toks[1])
                b.objects.append(toks[1])
            elif head == "morphism" and len(toks) == 4:
                mid, dom, cod = toks[1:]
                if mid in mors:
                    err(n, f"duplicate morphism {mid!r}")
                for o in (dom, cod):
                    if o not in objs:
                        err(n, f"dangling reference: object {o!r} not declared")
                mors.add(mid)
                b.morphisms.append((mid, dom, cod))
            elif head == "identity" and len(toks) == 3:
                if toks[1] not in objs:
                    err(n, f"dangling reference: object {toks[1]!r} not declared")
                if toks[2] not in mors:
                    err(n, f"dangling reference: morphism {toks[2]!r} not declared")
                if toks[1] in ids["identity"]:
                    err(n, f"duplicate identity for {toks[1]!r}")
                ids["identity"].add(toks[1])
                b.identities.append((toks[1], toks[2]))
            elif head == "compose" and len(toks) == 4:
                for m in toks[1:]:
                    if m not in mors:
                        err(n, f"dangling reference: morphism {m!r} not declared")
                if (toks[1], toks[2]) in ids["compose"]:
                    err(n, f"duplicate composition for ({toks[1]}, {toks[2]})")
                ids["compose"].add((toks[1], toks[2]))
                b.compositions.append((toks[1], toks[2], toks[3]))
            else:
                err(n, f"bad category line {head!r}")
        elif kind == "functor":
            src, tgt = category_ids[b.src], category_ids[b.tgt]
            if head == "obj" and len(toks) == 3:
                if toks[1] not in src["object"]:
                    err(n, f"dangling reference: object {toks[1]!r} not in {b.src}")
                if toks[2] not in tgt["object"]:
                    err(n, f"dangling reference: object {toks[2]!r} not in {b.tgt}")
                if toks[1] in ids["obj"]:
                    err(n, f"duplicate obj line for {toks[1]!r}")
                ids["obj"].add(toks[1])
                b.obj.append((toks[1], toks[2]))
            elif head == "mor" and len(toks) == 3:
                if toks[1] not in src["morphism"]:
                    err(n, f"dangling reference: morphism {toks[1]!r} not in {b.src}")
                if toks[2] not in tgt["morphism"]:
                    err(n, f"dangling reference: morphism {toks[2]!r} not in {b.tgt}")
                if toks[1] in ids["mor"]:
                    err(n, f"duplicate mor line for {toks[1]!r}")
                ids["mor"].add(toks[1])
                b.mor.append((toks[1], toks[2]))
            else:
                err(n, f"bad functor line {head!r}")
        elif kind == "carriers":
            cat = category_ids[b.cat]
            if head == "carrier" and len(toks) >= 2:
                if toks[1] not in cat["object"]:
                    err(n, f"dangling reference: object {toks[1]!r} not in {b.cat}")
                if toks[1] in ids["carrier"]:
                    err(n, f"duplicate carrier line for {toks[1]!r}")
                if len(set(toks[2:])) != len(toks[2:]):
                    err(n, "carrier elements must be distinct")
                ids["carrier"].add(toks[1])
                b.carriers.append((toks[1], tuple(toks[2:])))
            elif head == "map" and len(toks) >= 2:
                if toks[1] not in cat["morphism"]:
                    err(n, f"dangling reference: morphism {toks[1]!r} not in {b.cat}")
                if toks[1] in ids["map"]:
                    err(n, f"duplicate map line for {toks[1]!r}")
                pairs = []
                for t in toks[2:]:
                    if t.count(">") != 1:
                        err(n, f"bad element pair {t!r} (want a>b)")
                    pairs.append(tuple(t.split(">")))
                ids["map"].add(toks[1])
                b.maps.append((toks[1], tuple(pairs)))
            else:
                err(n, f"bad carriers line {head!r}")
        elif kind == "nullity":
            if head == "carrier":
                if b.carrier is not None:
                    err(n, "duplicate carrier line")
                if len(set(toks[1:])) != len(toks[1:]):
                    err(n, "carrier elements must be distinct")
                block = (kind, b._replace(carrier=tuple(toks[1:])))
            elif head == "null":
                if b.carrier is None:
                    err(n, "null line before the carrier line")
                elems = set(b.carrier)
                for e in toks[1:]:
                    if e not in elems:
                        err(n, f"dangling reference: element {e!r} not in the carrier")
                b.nulls.append(tuple(toks[1:]))
            else:
                err(n, f"bad nullity line {head!r}")
        else:  # setup
            if head in ("base", "inter", "main") and len(toks) == 2:
                if toks[1] not in doc.categories:
                    err(n, f"dangling reference: category {toks[1]!r} not declared")
                if head in b.names:
                    err(n, f"duplicate setup key {head!r}")
                b.names[head] = toks[1]
            elif head in ("j1", "j2", "pi") and len(toks) == 2:
                if toks[1] not in doc.functors:
                    err(n, f"dangling reference: functor {toks[1]!r} not declared")
                if head in b.names:
                    err(n, f"duplicate setup key {head!r}")
                b.names[head] = toks[1]
            elif head == "gamma" and len(toks) == 2:
                if toks[1] not in doc.carriers:
                    err(n, f"dangling reference: carriers block {toks[1]!r} not declared")
                if head in b.names:
                    err(n, "duplicate setup key 'gamma'")
                b.names[head] = toks[1]
            elif head == "basenull" and len(toks) == 3:
                if toks[2] not in doc.nullities:
                    err(n, f"dangling reference: nullity {toks[2]!r} not declared")
                if toks[1] in ids["basenull"]:
                    err(n, f"duplicate basenull line for {toks[1]!r}")
                ids["basenull"].add(toks[1])
                b.basenull.append((toks[1], toks[2]))
            else:
                err(n, f"bad setup line {head!r}")

    tail = len(text.splitlines()) + 1
    if block is not None:
        err(tail, f"unterminated {block[0]} block")
    if doc.model is None and doc.setup is None:
        err(tail, "missing setup block")
    if not seen_version:
        err(tail, "missing version line")
    if doc.model is not None and (
        doc.categories or doc.functors or doc.carriers or doc.nullities or doc.setup
    ):
        err(tail, "a model shortcut file cannot also declare blocks")
    return doc


def serialize_spec(doc: SpecDocument) -> str:
    lines = [f"version: {doc.version}"]
    if doc.model is not None:
        lines.append(f"model: {doc.model}")
        return "\n".join(lines) + "\n"
    for b in doc.categories.values():
        lines.append("")
        lines.append(f"category {b.name}")
        for o in b.objects:
            lines.append(f"  object {o}")
        for mid, dom, cod in b.morphisms:
            lines.append(f"  morphism {mid} {dom} {cod}")
        for o, m in b.identities:
            lines.append(f"  identity {o} {m}")
        for g, f, gf in b.compositions:
            lines.append(f"  compose {g} {f} {gf}")
        lines.append("end")
    for b in doc.functors.values():
        lines.append("")
        lines.append(f"functor {b.name} {b.src} {b.tgt}")
        for x, fx in b.obj:
            lines.append(f"  obj {x} {fx}")
        for m, fm in b.mor:
            lines.append(f"  mor {m} {fm}")
        lines.append("end")
    for b in doc.carriers.values():
        lines.append("")
        lines.append(f"carriers {b.name} {b.cat}")
        for o, elems in b.carriers:
            lines.append("  carrier " + " ".join((o,) + elems))
        for m, pairs in b.maps:
            lines.append("  map " + " ".join((m,) + tuple(f"{a}>{v}" for a, v in pairs)))
        lines.append("end")
    for b in doc.nullities.values():
        lines.append("")
        lines.append(f"nullity {b.name}")
        lines.append(("  carrier " + " ".join(b.carrier)).rstrip())
        for subset in b.nulls:
            lines.append(("  null " + " ".join(subset)).rstrip())
        lines.append("end")
    s = doc.setup
    lines.append("")
    lines.append("setup")
    for key in ("base", "inter", "main", "j2", "j1", "pi", "gamma"):
        if key in s.names:
            lines.append(f"  {key} {s.names[key]}")
    for obj, nul in s.basenull:
        lines.append(f"  basenull {obj} {nul}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _build_category(b: CategoryBlock) -> FinCategory:
    """Identity compositions are implied, so files list only the real ones."""
    comp = {(g, f): gf for g, f, gf in b.compositions}
    ids = dict(b.identities)
    for mid, dom, cod in b.morphisms:
        if dom in ids:
            comp.setdefault((mid, ids[dom]), mid)
        if cod in ids:
            comp.setdefault((ids[cod], mid), mid)
    return FinCategory(b.name, b.objects, b.morphisms, ids, comp)


def to_setup(doc: SpecDocument, name: str = "spec") -> Setup:
    """Build the runnable Setup a document describes."""
    if doc.model is not None:
        return builtin_model(doc.model)
    s = doc.setup
    missing = [
        k
        for k in ("base", "inter", "main", "j1", "j2", "pi", "gamma")
        if k not in s.names
    ]
    if missing:
        raise EngineError(f"setup block is missing {', '.join(missing)}")
    cats = {cname: _build_category(b) for cname, b in doc.categories.items()}
    base = cats[s.names["base"]]
    inter = cats[s.names["inter"]]
    main = cats[s.names["main"]]

    def functor(key, want_src, want_tgt):
        b = doc.functors[s.names[key]]
        if b.src != want_src.name or b.tgt != want_tgt.name:
            raise EngineError(
                f"{key} must go {want_src.name} -> {want_tgt.name}, "
                f"functor {b.name!r} goes {b.src} -> {b.tgt}"
            )
        obj_map = dict(b.obj)
        mor_map = dict(b.mor)
        for x in want_src.objects:
            if x not in obj_map:
                raise EngineError(f"functor {b.name!r} is missing obj {x!r}")
        for m in want_src.morphisms:
            if m.name not in mor_map:
                if want_src.is_identity(m.name):
                    mor_map[m.name] = want_tgt.id_of(obj_map[m.dom])
                else:
                    raise EngineError(f"functor {b.name!r} is missing mor {m.name!r}")
        return FunctorData(b.name, want_src, want_tgt, obj_map, mor_map)

    j2 = functor("j2", base, inter)
    j1 = functor("j1", inter, main)
    pi = functor("pi", main, inter)

    cb = doc.carriers[s.names["gamma"]]
    if cb.cat != main.name:
        raise EngineError(f"gamma must act on {main.name}, not {cb.cat}")
    carr = {o: FiniteSet(elems) for o, elems in cb.carriers}
    for o in main.objects:
        if o not in carr:
            raise EngineError(f"gamma is missing a carrier for object {o!r}")
    maps = {}
    for mid, pairs in cb.maps:
        dom, cod = carr[main.dom(mid)], carr[main.cod(mid)]
        table: dict[str, str] = {}
        for a, v in pairs:
            if a not in dom.elements:
                raise EngineError(
                    f"gamma map {mid!r} names {a!r}, not in the carrier of {main.dom(mid)!r}"
                )
            if a in table:
                raise EngineError(f"gamma map {mid!r} gives element {a!r} twice")
            if v not in cod.elements:
                raise EngineError(
                    f"gamma map {mid!r} sends {a!r} to {v!r}, "
                    f"not in the carrier of {main.cod(mid)!r}"
                )
            table[a] = v
        maps[mid] = SetMap.from_dict(dom, cod, table)
    for m in main.morphisms:
        if m.name not in maps:
            if main.is_identity(m.name):
                maps[m.name] = SetMap.identity(carr[m.dom])
            else:
                raise EngineError(f"gamma is missing a map for morphism {m.name!r}")
    gamma = carrier_functor(cb.name, main, carr, maps)

    basenull = dict(s.basenull)
    stray = sorted(set(basenull) - set(base.objects))
    if stray:
        raise EngineError(f"basenull names objects outside {base.name}: {stray}")
    jj_obj = {b_: j1.obj_map[j2.obj_map[b_]] for b_ in base.objects}
    base_null = {}
    for b_ in base.objects:
        if b_ not in basenull:
            raise EngineError(f"setup is missing basenull for object {b_!r}")
        nb = doc.nullities[basenull[b_]]
        want = carr[jj_obj[b_]]
        if tuple(nb.carrier) != want.elements:
            raise EngineError(
                f"nullity {nb.name!r} carrier {nb.carrier} does not match "
                f"gamma({jj_obj[b_]}) = {want.elements}"
            )
        base_null[b_] = down_closure(
            want, [want.mask_of(subset) for subset in nb.nulls]
        )
    return Setup(name, base, inter, main, j2, j1, pi, gamma, base_null)


def from_setup(s: Setup) -> SpecDocument:
    """Document form of a Setup (used to ship builtins as example files)."""
    doc = SpecDocument()

    def cat_block(C):
        return CategoryBlock(
            C.name,
            list(C.objects),
            [(m.name, m.dom, m.cod) for m in C.morphisms],
            [(o, C.id_of(o)) for o in C.objects],
            [
                (g, f, gf)
                for (g, f), gf in sorted(C.composition.items())
                if not (C.is_identity(g) or C.is_identity(f))
            ],
        )

    for C in (s.base, s.inter, s.main):
        if C.name not in doc.categories:
            doc.categories[C.name] = cat_block(C)

    def fun_block(F, alias):
        return FunctorBlock(
            alias,
            F.source.name,
            F.target.name,
            sorted(F.obj_map.items()),
            sorted(
                (m, fm)
                for m, fm in F.mor_map.items()
                if not F.source.is_identity(m)
            ),
        )

    doc.functors["j2"] = fun_block(s.j2, "j2")
    doc.functors["j1"] = fun_block(s.j1, "j1")
    doc.functors["pi"] = fun_block(s.pi, "pi")

    cb = CarrierBlock("gamma", s.main.name, [], [])
    for o in s.main.objects:
        cb.carriers.append((o, carrier_of(s.gamma, o).elements))
    for m in s.main.morphisms:
        if s.main.is_identity(m.name):
            continue
        sm = setmap_of(s.gamma, m.name)
        cb.maps.append((m.name, tuple(sorted(sm.as_dict().items()))))
    doc.carriers["gamma"] = cb

    for i, b_ in enumerate(s.base.objects):
        struct = s.base_null[b_]
        doc.nullities[f"null{i}"] = NullityBlock(
            f"null{i}",
            struct.carrier.elements,
            [struct.carrier.elems_of(m) for m in sorted(struct.masks) if m],
        )
    doc.setup = SetupBlock(
        {
            "base": s.base.name,
            "inter": s.inter.name,
            "main": s.main.name,
            "j2": "j2",
            "j1": "j1",
            "pi": "pi",
            "gamma": "gamma",
        },
        [(b_, f"null{i}") for i, b_ in enumerate(s.base.objects)],
    )
    return doc
