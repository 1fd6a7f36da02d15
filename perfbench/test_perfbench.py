"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The count-type per-layer metrics must repeat exactly from run to run, so a
change in a count always means a change in the work done.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import specgen  # noqa: E402
import tracer  # noqa: E402


def _traced_counts(invs, seed, work):
    t = tracer.Tracer()
    t.install()
    try:
        _, outcomes = run.run_list_in_process(invs, seed, work)
    finally:
        t.uninstall()
    assert all(o.ok for o in outcomes), [o.note for o in outcomes if not o.ok]
    return dict(t.counts), t.self_times()


def test_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    spec = tmp_path / "gen0.spec"
    spec.write_text(specgen.generate(7, 1)[0], encoding="utf-8")
    small = [("--model", "f2_proper"), ("--spec", "specs/idempotent.spec")]
    invs = [run.Invocation("construct", ("--spec", str(spec)), False)]
    for cmd in ("construct", "check thm3", "materialize", "check lemmas"):
        invs += [run.Invocation(cmd, target, True) for target in small]

    first, times = _traced_counts(invs, 7, tmp_path)
    second, _ = _traced_counts(invs, 7, tmp_path)
    assert first == second
    assert set(first) == set(tracer.COUNTS)
    assert first["comma.categories_built"] > 0
    assert first["fincat.searches"] > 0
    assert first["construct.web_calls"] >= first["construct.web_builds"] > 0
    assert set(times) == set(tracer.TIMED.values())


def test_uninstall_restores_every_binding():
    import nullkan.cli
    import nullkan.fincat

    before = (nullkan.cli.validate_category, nullkan.fincat.enumerate_functors)
    t = tracer.Tracer()
    t.install()
    assert nullkan.cli.validate_category is not before[0]
    t.uninstall()
    assert (nullkan.cli.validate_category, nullkan.fincat.enumerate_functors) == before


def test_generated_monoids_are_closed_and_seeded():
    assert specgen.generate(3, 2) == specgen.generate(3, 2)
    assert specgen.generate(3, 1) != specgen.generate(4, 1)
    import random

    rng = random.Random(5)
    monoid = specgen.random_monoid(rng)
    assert len(monoid) == specgen.MONOID_SIZE
    elems = set(monoid)
    assert all(specgen._compose(g, f) in elems for g in monoid for f in monoid)
    fam = set(specgen.base_family(rng, monoid))
    assert 0 in fam
    assert all(s & m == s and s in fam for m in fam for s in range(8) if s & m == s)
    assert all(specgen._image(f, m) in fam for f in monoid for m in fam)


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_median():
    xs = [float(i) for i in range(51)]
    assert run.tail(xs) == (40.0, 80.0)
    assert run.tail(xs[:9]) == (4.0, 50.0)
    assert run.tail(xs[:16])[0] == 8.0  # the median of 16 is 7.5
