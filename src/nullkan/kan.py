"""Pointwise Kan extensions for nullity-valued diagrams.

Both extensions are computed per target object over the FIBER of that
object (the source objects that K sends onto it), as the join (left) or
meet (right) of the value families in the down-set lattice of the
object's carrier.  That is exactly the union / intersection optimization
the construction is built around.  With `cross_check=True` each join or
meet is replayed through the generic universal-cocone search of fincat
inside that lattice.  Empty fibers follow the lattice units: left
extensions give the trivial structure, right extensions the full power
set, on the target object's carrier.

`check_universal` tries a candidate against `order.enumerate_assignments`.
The Kan-identity lemmas (restrict-source and after-composite, both
checked as the Kan square) build their textbook slices in `lemmas`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (
    DEFAULT_BUDGET,
    EngineError,
    FinCategory,
    FunctorData,
    ValidationReport,
    Violation,
    _violation,
    colimit,
    discrete_category,
    fibers,
    limit,
)
from .nullity import nullity_fiber_preorder
from .order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    enumerate_assignments,
    failed_transports,
    full_nullity,
    intersect_all,
    masks_on,
    trivial_nullity,
    union_all,
)


def _transports(cat: FinCategory, setmaps: dict[str, SetMap] | None) -> list:
    """(name, set map, dom, cod) for each morphism of `cat`; none without maps."""
    return [] if setmaps is None else [(m.name, setmaps[m.name], m.dom, m.cod) for m in cat.morphisms]


@dataclass
class NullityDiagram:
    """Per-object structures and per-morphism carrier transports."""

    source: FinCategory
    values: dict[str, NullityStructure]
    transport: dict[str, SetMap] | None = None

    def preservation_violations(self) -> list[Violation]:
        """Morphisms whose transport fails to send null sets to null sets."""
        masks = {x: v.masks for x, v in self.values.items()}
        return [
            _violation(
                "nullity-not-preserved",
                morphism=m,
                null_set=self.values[self.source.dom(m)].carrier.label(bad),
            )
            for m, bad in failed_transports(masks, _transports(self.source, self.transport))
        ]


@dataclass
class KanResult:
    side: str
    extension: dict[str, NullityStructure]
    path: dict[str, str]
    slice_sizes: dict[str, int]
    comparison_ok: bool


# ---------------------------------------------------------------------------
# The fiber path.


def _lattice_check(
    carrier: FiniteSet,
    pieces: list[NullityStructure],
    expected: NullityStructure,
    side: str,
    budget: int,
) -> bool:
    """Replay the join/meet through the generic universal search."""
    lattice, fams = nullity_fiber_preorder(carrier)
    node_of = {masks: node for node, masks in fams.items()}
    idx = discrete_category(f"disc{len(pieces)}", [f"i{k}" for k in range(len(pieces))])
    diag = FunctorData(
        "fiber-values",
        idx,
        lattice,
        {f"i{k}": node_of[p.masks] for k, p in enumerate(pieces)},
        {idx.id_of(f"i{k}"): lattice.id_of(node_of[p.masks]) for k, p in enumerate(pieces)},
    )
    res = colimit(diag, budget) if side == "left" else limit(diag, budget)
    if res.cone is None:
        return False
    return fams[res.cone.tip] == expected.masks


def _kan_fiber(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    side: str,
    cross_check: bool,
    budget: int,
) -> KanResult:
    if not diag.source.same_table(K.source):
        raise EngineError("kan: diagram and K have different sources")
    extension: dict[str, NullityStructure] = {}
    path: dict[str, str] = {}
    sizes: dict[str, int] = {}
    comparison_ok = True

    for d, objs in fibers(K).items():
        carrier = target_carriers[d]
        # union_all and intersect_all refuse a piece on another carrier.
        pieces = [diag.values[x] for x in objs]
        if side == "left":
            ext = union_all(carrier, pieces) if pieces else trivial_nullity(carrier)
        else:
            ext = intersect_all(carrier, pieces) if pieces else full_nullity(carrier)
        extension[d] = ext
        sizes[d] = len(pieces)
        path[d] = "fast"
        if cross_check:
            if not _lattice_check(carrier, pieces, ext, side, budget):
                comparison_ok = False
            path[d] = "fast+brute"
    return KanResult(side, extension, path, sizes, comparison_ok)


def left_kan(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    *,
    cross_check: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> KanResult:
    return _kan_fiber(K, diag, target_carriers, "left", cross_check, budget)


def right_kan(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    *,
    cross_check: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> KanResult:
    return _kan_fiber(K, diag, target_carriers, "right", cross_check, budget)


# ---------------------------------------------------------------------------
# Universality against competitors.


def check_universal(
    K: FunctorData,
    diag: NullityDiagram,
    candidate: KanResult,
    *,
    target_carriers: dict[str, FiniteSet],
    target_transports: dict[str, SetMap] | None = None,
    budget: int = DEFAULT_BUDGET,
    max_violations: int = 20,
) -> ValidationReport:
    """Check the candidate extension against every competitor: each
    assignment on the target carriers, kept only if it preserves the
    transports when those are given.

    Read with the order `below` (inclusion on the left side, reverse
    inclusion on the right): with transports the candidate must preserve
    them, the unit F(x) below cand(Kx) must exist, and every competitor H
    admitting a comparison F(x) below H(Kx) must factor through the
    candidate (cand(d) below H(d) for all d).
    """
    side = candidate.side
    carriers = {d: target_carriers[d] for d in K.target.objects}
    ext = masks_on(carriers, candidate.extension)

    def below(p: frozenset[int], q: frozenset[int]) -> bool:
        return p <= q if side == "left" else q <= p

    checked = {"unit_components": len(K.source.objects), "competitors": 0}
    transports = _transports(K.target, target_transports)
    violations: list[Violation] = [
        _violation(
            "kan-candidate-not-functorial",
            morphism=m,
            null_set=carriers[K.target.dom(m)].label(bad),
        )
        for m, bad in failed_transports(ext, transports)
    ]

    for x in K.source.objects:
        if not below(diag.values[x].masks, ext[K.on_obj(x)]):
            violations.append(
                _violation(
                    "kan-unit-missing" if side == "left" else "kan-counit-missing",
                    object=x,
                )
            )

    for H in enumerate_assignments(carriers, transports, budget):
        checked["competitors"] += 1
        admits = all(below(diag.values[x].masks, H[K.on_obj(x)]) for x in K.source.objects)
        bad = next((d for d in K.target.objects if not below(ext[d], H[d])), None)
        if admits and bad is not None:
            violations.append(
                _violation(
                    "kan-not-universal",
                    object=bad,
                    competitor=carriers[bad].label(min(H[bad] ^ ext[bad], default=0)),
                )
            )
        if len(violations) >= max_violations:
            break
    return ValidationReport(not violations, checked, violations[:max_violations])
