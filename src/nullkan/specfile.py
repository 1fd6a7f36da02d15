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
      inter I
      main M
      j2 j2
      j1 j1
      pi pi
      gamma gamma
      basenull F2^0 n0
    end

`GRAMMAR` is the one declaration of the block kinds and their line kinds:
the parser opens blocks and sizes lines from it, and `serialize_spec`
writes every block through it.  Tokens are whitespace-separated; ids
never contain whitespace.  Lines whose first non-blank character is `#`
are comments (ids may contain `#`, so there are no trailing comments).
Every referenced id must be declared on an earlier line, and a category
declares at most MAX_OBJECTS objects and MAX_MORPHISMS morphisms.
`parse_spec` reports the first error with its line number, and
`serialize_spec` emits the canonical form (two-space indent, single
spaces, no comments), so canonical files round-trip byte-for-byte.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .construct import BUILTIN_NAMES, Setup, builtin_model
from .fincat import EngineError, FinCategory, FunctorData
from .nullity import carrier_functor
from .order import FiniteSet, SetMap, down_closure

FORMAT_VERSION = 1
# The most objects and morphisms a category block may declare.
MAX_OBJECTS = 64
MAX_MORPHISMS = 8192

# Each block kind, in canonical order: the header's token count, the
# message for a header of another length, the noun that names a block of
# this kind in messages, and its line kinds in canonical order with their
# token counts, keyword included (n means exactly n, -n at least n).  A
# header's tokens after the name refer to categories.
GRAMMAR = {
    "category": (
        2,
        "category takes a single name",
        "category",
        {"object": 2, "morphism": 4, "identity": 3, "compose": 4},
    ),
    "functor": (4, "functor takes name, source, target", "functor", {"obj": 3, "mor": 3}),
    "carriers": (
        3,
        "carriers takes name and category",
        "carriers block",
        {"carrier": -2, "map": -2},
    ),
    "nullity": (2, "nullity takes a single name", "nullity", {"carrier": -1, "null": -1}),
    "setup": (
        1,
        "setup takes no arguments",
        "setup block",
        {"base": 2, "inter": 2, "main": 2, "j2": 2, "j1": 2, "pi": 2, "gamma": 2, "basenull": 3},
    ),
}


class SpecError(EngineError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class Block(NamedTuple):
    header: tuple[str, ...]  # the tokens after the kind: the name, then categories
    lines: dict[str, list[tuple[str, ...]]]  # keyword -> the tokens after it, per line


def new_block(kind: str, header, **lines) -> Block:
    return Block(tuple(header), {key: list(lines.get(key, ())) for key in GRAMMAR[kind][3]})


class SpecDocument:
    """A model shortcut line, or the blocks of a file: kind -> name -> block,
    in declared order.  The setup block's name is ""."""

    def __init__(self, model: str | None = None):
        self.version = FORMAT_VERSION
        self.model = model
        self.blocks: dict[str, dict[str, Block]] = {kind: {} for kind in GRAMMAR}


def parse_spec(text: str) -> SpecDocument:
    doc = SpecDocument()
    kind = name = block = None
    # The ids each line kind has declared in the open block, and the object
    # and morphism ids of each closed category, so every check is a lookup.
    ids: dict[str, set] = defaultdict(set)
    category_ids: dict[str, dict[str, set]] = {}
    seen_version = False
    seen_any = False

    def err(n, msg):
        raise SpecError(n, msg)

    def refer(n, ref_kind, ref):
        if ref not in doc.blocks[ref_kind]:
            err(n, f"dangling reference: {GRAMMAR[ref_kind][2]} {ref!r} not declared")

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
                if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()):
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
            elif head in GRAMMAR:
                size, wrong_size, noun, _ = GRAMMAR[head]
                if len(toks) != size:
                    err(n, wrong_size)
                name = toks[1] if len(toks) > 1 else ""
                if name in doc.blocks[head]:
                    err(n, f"duplicate {noun} {name!r}" if name else f"duplicate {noun}")
                for cat in toks[2:]:
                    refer(n, "category", cat)
                kind, block = head, new_block(head, toks[1:])
            else:
                err(n, f"unknown directive {head!r}")
            ids = defaultdict(set)
            continue

        if head == "end":
            if len(toks) != 1:
                err(n, "end takes no arguments")
            if kind == "nullity" and not block.lines["carrier"]:
                err(n, f"nullity {name!r} has no carrier line")
            doc.blocks[kind][name] = block
            if kind == "category":
                category_ids[name] = ids
            block = None
            continue

        size = GRAMMAR[kind][3].get(head)
        if size is None or (len(toks) != size if size > 0 else len(toks) < -size):
            err(n, f"bad {kind} line {head!r}")

        if kind == "category":
            objs, mors = ids["object"], ids["morphism"]
            if head == "object":
                if toks[1] in objs:
                    err(n, f"duplicate object {toks[1]!r}")
                if len(objs) == MAX_OBJECTS:
                    err(n, f"category {name!r} has more than {MAX_OBJECTS} objects")
                objs.add(toks[1])
            elif head == "morphism":
                if toks[1] in mors:
                    err(n, f"duplicate morphism {toks[1]!r}")
                if len(mors) == MAX_MORPHISMS:
                    err(n, f"category {name!r} has more than {MAX_MORPHISMS} morphisms")
                for o in toks[2:]:
                    if o not in objs:
                        err(n, f"dangling reference: object {o!r} not declared")
                mors.add(toks[1])
            elif head == "identity":
                if toks[1] not in objs:
                    err(n, f"dangling reference: object {toks[1]!r} not declared")
                if toks[2] not in mors:
                    err(n, f"dangling reference: morphism {toks[2]!r} not declared")
                if toks[1] in ids["identity"]:
                    err(n, f"duplicate identity for {toks[1]!r}")
                ids["identity"].add(toks[1])
            else:  # compose
                for m in toks[1:]:
                    if m not in mors:
                        err(n, f"dangling reference: morphism {m!r} not declared")
                if (toks[1], toks[2]) in ids["compose"]:
                    err(n, f"duplicate composition for ({toks[1]}, {toks[2]})")
                ids["compose"].add((toks[1], toks[2]))
        elif kind in ("functor", "carriers"):
            # obj and carrier lines name objects, mor and map lines
            # morphisms, of the categories in the header.
            part = "object" if head in ("obj", "carrier") else "morphism"
            for cat, ref in zip(block.header[1:], toks[1:]):
                if ref not in category_ids[cat][part]:
                    err(n, f"dangling reference: {part} {ref!r} not in {cat}")
            if toks[1] in ids[head]:
                err(n, f"duplicate {head} line for {toks[1]!r}")
            if head == "carrier" and len(set(toks[2:])) != len(toks[2:]):
                err(n, "carrier elements must be distinct")
            if head == "map":
                for t in toks[2:]:
                    if t.count(">") != 1:
                        err(n, f"bad element pair {t!r} (want a>b)")
            ids[head].add(toks[1])
        elif kind == "nullity":
            carrier = block.lines["carrier"]
            if head == "carrier":
                if carrier:
                    err(n, "duplicate carrier line")
                if len(set(toks[1:])) != len(toks[1:]):
                    err(n, "carrier elements must be distinct")
            else:  # null
                if not carrier:
                    err(n, "null line before the carrier line")
                elems = set(carrier[0])
                for e in toks[1:]:
                    if e not in elems:
                        err(n, f"dangling reference: element {e!r} not in the carrier")
        elif head == "basenull":
            refer(n, "nullity", toks[2])
            if toks[1] in ids["basenull"]:
                err(n, f"duplicate basenull line for {toks[1]!r}")
            ids["basenull"].add(toks[1])
        else:  # base, inter, main, j2, j1, pi or gamma
            ref_kind = (
                "category" if head in ("base", "inter", "main")
                else "carriers" if head == "gamma"
                else "functor"
            )
            refer(n, ref_kind, toks[1])
            if block.lines[head]:
                err(n, f"duplicate setup key {head!r}")
        block.lines[head].append(tuple(toks[1:]))

    tail = len(text.splitlines()) + 1
    if block is not None:
        err(tail, f"unterminated {kind} block")
    if doc.model is None and not doc.blocks["setup"]:
        err(tail, "missing setup block")
    if not seen_version:
        err(tail, "missing version line")
    if doc.model is not None and any(doc.blocks.values()):
        err(tail, "a model shortcut file cannot also declare blocks")
    return doc


def serialize_spec(doc: SpecDocument) -> str:
    lines = [f"version: {doc.version}"]
    if doc.model is not None:
        lines.append(f"model: {doc.model}")
    for kind, (_, _, _, line_kinds) in GRAMMAR.items():
        for b in doc.blocks[kind].values():
            lines += ["", " ".join((kind, *b.header))]
            lines += ["  " + " ".join((key, *toks)) for key in line_kinds for toks in b.lines[key]]
            lines.append("end")
    return "\n".join(lines) + "\n"


def _build_category(b: Block) -> FinCategory:
    """Identity compositions are implied, so files list only the real ones."""
    comp = {(g, f): gf for g, f, gf in b.lines["compose"]}
    ids = dict(b.lines["identity"])
    for mid, dom, cod in b.lines["morphism"]:
        if dom in ids:
            comp.setdefault((mid, ids[dom]), mid)
        if cod in ids:
            comp.setdefault((ids[cod], mid), mid)
    objects = [o for (o,) in b.lines["object"]]
    return FinCategory(b.header[0], objects, b.lines["morphism"], ids, comp)


def to_setup(doc: SpecDocument, name: str = "spec") -> Setup:
    """Build the runnable Setup a document describes."""
    if doc.model is not None:
        return builtin_model(doc.model)
    s = doc.blocks["setup"][""]
    names = {key: rows[0][0] for key, rows in s.lines.items() if rows and key != "basenull"}
    missing = [
        k
        for k in ("base", "inter", "main", "j1", "j2", "pi", "gamma")
        if k not in names
    ]
    if missing:
        raise EngineError(f"setup block is missing {', '.join(missing)}")
    cats = {cname: _build_category(b) for cname, b in doc.blocks["category"].items()}
    base = cats[names["base"]]
    inter = cats[names["inter"]]
    main = cats[names["main"]]

    def functor(key, want_src, want_tgt):
        b = doc.blocks["functor"][names[key]]
        fname, src, tgt = b.header
        if src != want_src.name or tgt != want_tgt.name:
            raise EngineError(
                f"{key} must go {want_src.name} -> {want_tgt.name}, "
                f"functor {fname!r} goes {src} -> {tgt}"
            )
        obj_map = dict(b.lines["obj"])
        mor_map = dict(b.lines["mor"])
        for x in want_src.objects:
            if x not in obj_map:
                raise EngineError(f"functor {fname!r} is missing obj {x!r}")
        for m in want_src.morphisms:
            if m.name not in mor_map:
                if want_src.is_identity(m.name):
                    mor_map[m.name] = want_tgt.id_of(obj_map[m.dom])
                else:
                    raise EngineError(f"functor {fname!r} is missing mor {m.name!r}")
        return FunctorData(fname, want_src, want_tgt, obj_map, mor_map)

    j2 = functor("j2", base, inter)
    j1 = functor("j1", inter, main)
    pi = functor("pi", main, inter)

    cb = doc.blocks["carriers"][names["gamma"]]
    cname, cat = cb.header
    if cat != main.name:
        raise EngineError(f"gamma must act on {main.name}, not {cat}")
    carr = {toks[0]: FiniteSet(toks[1:]) for toks in cb.lines["carrier"]}
    for o in main.objects:
        if o not in carr:
            raise EngineError(f"gamma is missing a carrier for object {o!r}")
    maps = {}
    for mid, *pairs in cb.lines["map"]:
        dom, cod = carr[main.dom(mid)], carr[main.cod(mid)]
        table: dict[str, str] = {}
        for a, v in (pair.split(">") for pair in pairs):
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
        for a in dom.elements:
            if a not in table:
                raise EngineError(f"gamma map {mid!r} gives no image for {a!r}")
        maps[mid] = SetMap.from_dict(dom, cod, table)
    for m in main.morphisms:
        if m.name not in maps:
            if main.is_identity(m.name):
                maps[m.name] = SetMap.identity(carr[m.dom])
            else:
                raise EngineError(f"gamma is missing a map for morphism {m.name!r}")
    gamma = carrier_functor(cname, main, carr, maps)

    basenull = dict(s.lines["basenull"])
    stray = sorted(set(basenull) - set(base.objects))
    if stray:
        raise EngineError(f"basenull names objects outside {base.name}: {stray}")
    jj_obj = {b_: j1.obj_map[j2.obj_map[b_]] for b_ in base.objects}
    base_null = {}
    for b_ in base.objects:
        if b_ not in basenull:
            raise EngineError(f"setup is missing basenull for object {b_!r}")
        nb = doc.blocks["nullity"][basenull[b_]]
        (carrier,) = nb.lines["carrier"]
        want = carr[jj_obj[b_]]
        if carrier != want.elements:
            raise EngineError(
                f"nullity {basenull[b_]!r} carrier {carrier} does not match "
                f"gamma({jj_obj[b_]}) = {want.elements}"
            )
        base_null[b_] = down_closure(
            want, [want.mask_of(subset) for subset in nb.lines["null"]]
        )
    return Setup(name, base, inter, main, j2, j1, pi, gamma, base_null)
