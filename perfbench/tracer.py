"""In-process tracing of nullkan layers from outside the program.

`Tracer.install()` replaces each traced public function in every
`nullkan.*` module namespace that binds it (so `cli` and `lemmas`, which
import `fincat` names directly, are covered too) with a wrapper that
records a span and, for some functions, counts taken from the returned
value.  `Tracer.uninstall()` puts the originals back.

Spans are kept in memory as `[name, start, end, parent, busy]`, where
`parent` is the index of the enclosing span (-1 at the top) and `busy` is
the time spent inside the span.  For ordinary functions `busy` is
`end - start`.  `enumerate_functors` returns a generator, so its span is
charged only while the generator runs: each resumption is timed and added
to `busy`, and calls made while it is suspended belong to its consumer.
A layer's self time is its `busy` minus the `busy` of its direct children.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) -> the self-time metric it is charged to.
TIMED = {
    ("specfile", "parse_spec"): "specfile.parse_s",
    ("specfile", "to_setup"): "specfile.parse_s",
    ("construct", "builtin_model"): "construct.builtin_model_s",
    ("construct", "build_comma_web"): "construct.build_comma_web_s",
    ("comma", "build_comma"): "comma.build_comma_s",
    ("comma", "induced_comma_functor"): "comma.induced_functor_s",
    ("kan", "right_kan"): "kan.right_kan_s",
    ("kan", "left_kan"): "kan.left_kan_s",
    ("construct", "direct_prevalence"): "construct.direct_prevalence_s",
    ("construct", "verify_invariance"): "construct.verify_invariance_s",
    ("construct", "verify_minimality"): "construct.verify_minimality_s",
    ("construct", "verify_extension"): "construct.verify_extension_s",
    ("construct", "check_assumptions"): "construct.check_assumptions_s",
    ("order", "all_down_sets"): "order.all_down_sets_s",
    ("fincat", "validate_category"): "fincat.validate_category_s",
    ("nullity", "materialize_nullity_category"): "nullity.materialize_s",
    ("nullity", "set_category"): "nullity.set_category_s",
    ("fincat", "find_section"): "fincat.find_section_s",
    ("fincat", "enumerate_functors"): "fincat.enumerate_functors_s",
    ("fincat", "find_nat_trans"): "fincat.find_nat_trans_s",
    ("fincat", "colimit"): "fincat.colimit_s",
    ("fincat", "limit"): "fincat.limit_s",
    ("lemmas", "run_lemma_suite"): "lemmas.run_lemma_suite_s",
    ("lemmas", "check_setup_adjoints"): "lemmas.check_setup_adjoints_s",
    ("report", "canonical_json"): "report.canonical_json_s",
}

# The budgeted exhaustive searches: each call is one search.
SEARCHES = {"find_section", "enumerate_functors", "find_nat_trans", "colimit", "limit"}

COUNTS = (
    "comma.categories_built",
    "comma.objects_built",
    "comma.morphisms_built",
    "comma.compositions_built",
    "construct.web_builds",
    "construct.web_calls",
    "kan.fibers",
    "construct.endomorphisms_checked",
    "construct.minimality_candidates",
    "construct.minimality_admissible",
    "order.down_sets_generated",
    "fincat.validated_objects",
    "fincat.validated_morphisms",
    "fincat.validated_compositions",
    "fincat.associativity_triples",
    "nullity.materialized_objects",
    "nullity.materialized_morphisms",
    "nullity.materialized_compositions",
    "fincat.functor_candidates",
    "fincat.budget_hits",
    "fincat.searches",
    "lemmas.instances",
    "lemmas.vacuous",
)


def _count_category(c: Counter, names: tuple[str, str, str], cat) -> None:
    """Add a category's object, morphism and composition-entry counts."""
    for name, n in zip(names, (len(cat.objects), len(cat.morphisms), len(cat.composition))):
        c[name] += n


def _on_build_comma(c, args, kwargs, res):
    c["comma.categories_built"] += 1
    _count_category(
        c, ("comma.objects_built", "comma.morphisms_built", "comma.compositions_built"), res.category
    )


def _on_validate(c, args, kwargs, res):
    _count_category(
        c,
        ("fincat.validated_objects", "fincat.validated_morphisms", "fincat.validated_compositions"),
        args[0],
    )
    c["fincat.associativity_triples"] += res.checked.get("associativity", 0)


def _on_materialize(c, args, kwargs, res):
    _count_category(
        c,
        (
            "nullity.materialized_objects",
            "nullity.materialized_morphisms",
            "nullity.materialized_compositions",
        ),
        res.category,
    )


def _on_kan(c, args, kwargs, res):
    c["kan.fibers"] += sum(res.slice_sizes.values())


def _on_invariance(c, args, kwargs, res):
    c["construct.endomorphisms_checked"] += res.checked.get("endomorphisms", 0)


def _on_minimality(c, args, kwargs, res):
    c["construct.minimality_candidates"] += res.checked.get("candidates", 0)
    c["construct.minimality_admissible"] += res.checked.get("admissible", 0)


def _on_down_sets(c, args, kwargs, res):
    c["order.down_sets_generated"] += len(res)


def _on_lemma_suite(c, args, kwargs, res):
    for row in res.values():
        c["lemmas.instances"] += row["instances"]
        c["lemmas.vacuous"] += row["vacuous"]


ON_RESULT = {
    "build_comma": _on_build_comma,
    "validate_category": _on_validate,
    "materialize_nullity_category": _on_materialize,
    "right_kan": _on_kan,
    "left_kan": _on_kan,
    "verify_invariance": _on_invariance,
    "verify_minimality": _on_minimality,
    "all_down_sets": _on_down_sets,
    "run_lemma_suite": _on_lemma_suite,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter({k: 0 for k in COUNTS})
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._last_budget_error = None

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        t = perf_counter()
        self.spans.append([name, t, t, self._stack[-1] if self._stack else -1, 0.0])
        return idx

    def _budget_error(self, name: str, err) -> None:
        # One BudgetExceeded passes through every enclosing wrapper; count
        # it once, at the search that raised it.
        if name in SEARCHES and err is not self._last_budget_error:
            self._last_budget_error = err
            self.counts["fincat.budget_hits"] += 1

    def _wrap(self, name: str, fn, budget_error_type):
        tracer = self
        on_result = ON_RESULT.get(name)
        is_search = name in SEARCHES

        def traced(*args, **kwargs):
            if is_search:
                tracer.counts["fincat.searches"] += 1
            idx = tracer._open(name)
            span = tracer.spans[idx]
            tracer._stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            except budget_error_type as e:
                tracer._budget_error(name, e)
                raise
            finally:
                tracer._stack.pop()
                span[2] = perf_counter()
                span[4] = span[2] - span[1]
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, res)
            return res

        if name == "build_comma_web":
            # A call builds a web when the setup holds no cached one yet.
            def traced_web(s, *args, **kwargs):
                tracer.counts["construct.web_calls"] += 1
                if s._web is None:
                    tracer.counts["construct.web_builds"] += 1
                return traced(s, *args, **kwargs)

            return traced_web
        return traced

    def _wrap_generator(self, name: str, fn, budget_error_type):
        tracer = self

        def resumed(it, idx):
            span = tracer.spans[idx]
            while True:
                t0 = perf_counter()
                tracer._stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except budget_error_type as e:
                    tracer._budget_error(name, e)
                    raise
                finally:
                    tracer._stack.pop()
                    span[2] = perf_counter()
                    span[4] += span[2] - t0
                tracer.counts["fincat.functor_candidates"] += 1
                yield item

        def traced(*args, **kwargs):
            tracer.counts["fincat.searches"] += 1
            return resumed(fn(*args, **kwargs), tracer._open(name))

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import nullkan.cli  # noqa: F401  (loads every module the CLI uses)
        from nullkan.fincat import BudgetExceeded

        modules = {
            n.removeprefix("nullkan."): m
            for n, m in sys.modules.items()
            if n.startswith("nullkan.") and m is not None
        }
        for (home, fname), _metric in TIMED.items():
            orig = getattr(modules[home], fname)
            wrap = self._wrap_generator if fname == "enumerate_functors" else self._wrap
            wrapped = wrap(fname, orig, BudgetExceeded)
            for mod in modules.values():
                if getattr(mod, fname, None) is orig:
                    self._patched.append((mod, fname, orig))
                    setattr(mod, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per metric name, from the span tree."""
        child_busy = [0.0] * len(self.spans)
        for _name, _start, _end, parent, busy in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        metric_of = {fname: metric for (_home, fname), metric in TIMED.items()}
        out = dict.fromkeys(TIMED.values(), 0.0)
        for i, (name, _start, _end, _parent, busy) in enumerate(self.spans):
            out[metric_of[name]] += busy - child_busy[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "busy"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
