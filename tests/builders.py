"""Constructions that only the tests use: bang functors, arrow categories,
and the document form of a setup."""

from __future__ import annotations

from nullkan.comma import CommaCategory, build_comma, const_functor, terminal_category
from nullkan.construct import Setup
from nullkan.fincat import FinCategory, FunctorData, identity_functor
from nullkan.nullity import carrier_of, setmap_of
from nullkan.specfile import SpecDocument, new_block


def bang_functor(C: FinCategory) -> FunctorData:
    return const_functor(C, terminal_category(), "*", name=f"!{C.name}")


def arrow_category(C: FinCategory) -> CommaCategory:
    i = identity_functor(C)
    return build_comma(i, i, f"Arr({C.name})")


def from_setup(s: Setup) -> SpecDocument:
    """Document form of a Setup, for round trips through `serialize_spec`."""
    doc = SpecDocument()
    blocks = doc.blocks
    for C in (s.base, s.inter, s.main):
        if C.name in blocks["category"]:
            continue
        blocks["category"][C.name] = new_block(
            "category",
            [C.name],
            object=[(o,) for o in C.objects],
            morphism=[(m.name, m.dom, m.cod) for m in C.morphisms],
            identity=[(o, C.id_of(o)) for o in C.objects],
            compose=[
                (g, f, gf)
                for (g, f), gf in sorted(C.composition.items())
                if not (C.is_identity(g) or C.is_identity(f))
            ],
        )
    for alias in ("j2", "j1", "pi"):
        F = getattr(s, alias)
        blocks["functor"][alias] = new_block(
            "functor",
            [alias, F.source.name, F.target.name],
            obj=sorted(F.obj_map.items()),
            mor=sorted((m, fm) for m, fm in F.mor_map.items() if not F.source.is_identity(m)),
        )
    blocks["carriers"]["gamma"] = new_block(
        "carriers",
        ["gamma", s.main.name],
        carrier=[(o, *carrier_of(s.gamma, o).elements) for o in s.main.objects],
        map=[
            (m.name, *(">".join(p) for p in sorted(setmap_of(s.gamma, m.name).as_dict().items())))
            for m in s.main.morphisms
            if not s.main.is_identity(m.name)
        ],
    )
    for i, b_ in enumerate(s.base.objects):
        struct = s.base_null[b_]
        blocks["nullity"][f"null{i}"] = new_block(
            "nullity",
            [f"null{i}"],
            carrier=[struct.carrier.elements],
            null=[struct.carrier.elems_of(m) for m in sorted(struct.masks) if m],
        )
    blocks["setup"][""] = new_block(
        "setup",
        [],
        base=[(s.base.name,)],
        inter=[(s.inter.name,)],
        main=[(s.main.name,)],
        **{alias: [(alias,)] for alias in ("j2", "j1", "pi", "gamma")},
        basenull=[(b_, f"null{i}") for i, b_ in enumerate(s.base.objects)],
    )
    return doc
