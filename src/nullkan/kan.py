"""Pointwise Kan extensions for nullity-valued diagrams.

Both extensions are computed per target object over the FIBER of that
object (the source objects that K sends onto it), as the join (left) or
meet (right) of the value families in the down-set lattice of the
object's carrier.  That is exactly the union / intersection optimization
the construction is built around.  Empty fibers follow the lattice
units: left extensions give the trivial structure, right extensions the
full power set, on the target object's carrier.

Two references check that path in the tests: `lattice_check` replays
each join or meet through the generic universal-cocone search of fincat
inside that lattice, and `check_universal` tries a candidate against
`order.enumerate_assignments`.  The Kan-identity lemmas (restrict-source
and after-composite, both checked as the Kan square) build their
textbook slices in `lemmas`.
"""

from __future__ import annotations

from typing import NamedTuple

from .fincat import (
    DEFAULT_BUDGET,
    MAX_VIOLATIONS,
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
from .nullity import nullity_fiber_preorder, transports_of
from .order import (
    FiniteSet,
    NullityStructure,
    SetMap,
    enumerate_assignments,
    failed_transports,
    intersect_all,
    masks_on,
    union_all,
)


class NullityDiagram(NamedTuple):
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
            for m, bad in failed_transports(masks, transports_of(self.source, self.transport))
        ]


class KanResult(NamedTuple):
    side: str
    extension: dict[str, NullityStructure]
    slice_sizes: dict[str, int]


def _kan_fiber(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    side: str,
) -> KanResult:
    if not diag.source.same_table(K.source):
        raise EngineError("kan: diagram and K have different sources")
    # An empty fiber gets the trivial (left) or the full (right) structure,
    # and a piece on another carrier is refused.
    combine = union_all if side == "left" else intersect_all
    extension: dict[str, NullityStructure] = {}
    sizes: dict[str, int] = {}
    for d, objs in fibers(K).items():
        pieces = [diag.values[x] for x in objs]
        extension[d] = combine(target_carriers[d], pieces)
        sizes[d] = len(pieces)
    return KanResult(side, extension, sizes)


def left_kan(
    K: FunctorData, diag: NullityDiagram, target_carriers: dict[str, FiniteSet]
) -> KanResult:
    return _kan_fiber(K, diag, target_carriers, "left")


def right_kan(
    K: FunctorData, diag: NullityDiagram, target_carriers: dict[str, FiniteSet]
) -> KanResult:
    return _kan_fiber(K, diag, target_carriers, "right")


# ---------------------------------------------------------------------------
# The lattice replay.


def lattice_check(
    K: FunctorData,
    diag: NullityDiagram,
    target_carriers: dict[str, FiniteSet],
    candidate: KanResult,
    budget: int,
) -> dict[str, bool]:
    """Replay the candidate's join (left) or meet (right) over each fiber
    of K as a colimit (limit) search in the lattice of all null families
    on the target object's carrier; per target object, do they agree?"""
    agrees = {}
    for d, objs in fibers(K).items():
        lattice, fams = nullity_fiber_preorder(target_carriers[d])
        node_of = {masks: node for node, masks in fams.items()}
        nodes = {f"i{k}": node_of[diag.values[x].masks] for k, x in enumerate(objs)}
        idx = discrete_category(f"disc{len(objs)}", list(nodes))
        values = FunctorData(
            "fiber-values",
            idx,
            lattice,
            nodes,
            {idx.id_of(i): lattice.id_of(node) for i, node in nodes.items()},
        )
        res = colimit(values, budget) if candidate.side == "left" else limit(values, budget)
        agrees[d] = res.cone is not None and fams[res.cone.tip] == candidate.extension[d].masks
    return agrees


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
    transports = transports_of(K.target, target_transports)
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
        if len(violations) >= MAX_VIOLATIONS:
            break
    return ValidationReport(not violations, checked, violations[:MAX_VIOLATIONS])
