"""The nullkan benchmark: three workloads over the real CLI.

    python3 perfbench/run.py --workload {lift,materialize,search} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (it needs `src/nullkan` and
`specs/`).  Each workload is a fixed list of `python -m nullkan ... --json`
invocations, run one child process at a time (a closed loop with one
client).  A child's CPU time (user + system) and peak RSS come from
`os.wait4`; its wall time comes from the clock and is printed, not
reported as a metric (see README.md for why).  Every exit
code is checked against `known_answers.json`, and so is every `construct`
assignment; the seeded specs of `lift` are expected to pass `construct`,
`oracle-compare` and `check thm1`, as the theorems say they must.

With `--trace 0` the run reports the end-to-end metrics of `BENCHMARK.json`.
With `--trace 1` it runs the same list in this process, once untraced and
once with every traced layer wrapped (see `tracer.py`), and reports the
per-layer metrics.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import specgen
import tracer

BENCH_DIR = Path(__file__).resolve().parent
KNOWN = json.loads((BENCH_DIR / "known_answers.json").read_text(encoding="utf-8"))

BUILTINS = (
    "identity",
    "f2_trivial",
    "f2_proper",
    "injections_card_0",
    "injections_card_1",
    "injections_card_2",
)
SPECS = ("specs/f2_proper.spec", "specs/f2_proper_model.spec", "specs/idempotent.spec")
INPUTS = [("--model", m) for m in BUILTINS] + [("--spec", p) for p in SPECS]

LIFT_COMMANDS = ("construct", "oracle-compare", "check thm1", "check thm3", "check ext")
GENERATED_COMMANDS = ("construct", "oracle-compare", "check thm1")
WORKLOAD_COMMANDS = {
    "lift": LIFT_COMMANDS,
    "materialize": ("materialize", "validate"),
    "search": ("check lemmas",),
}
# `materialize` builds the same materialized category for every injections
# model, because it depends only on the carriers, so one of them stands for
# all three; the other two would add about 30 s a run and no new work.
SAME_WORK = {"materialize model:injections_card_1", "materialize model:injections_card_2"}
GENERATED_SPECS = 2  # seeded specs per run, `lift` only
SETUP_REPEATS = 5    # setup_s is the median of this many set-ups
TAIL_BEYOND = 10     # the tail percentile keeps this many samples beyond it
IMPORT_PROBES = 3    # cli.import_s is the median of this many fresh imports


@dataclass
class Invocation:
    command: str  # e.g. "check thm1"
    target: tuple[str, str]  # ("--model", name) or ("--spec", path)
    pinned: bool  # answer from known_answers.json, else the theorems' exit 0

    @property
    def key(self) -> str:
        return f"{self.command} {self.target_id}"

    @property
    def target_id(self) -> str:
        flag, value = self.target
        return f"{flag.removeprefix('--')}:{value}"

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.command.split(), *self.target, "--seed", str(seed), "--json", "--out", str(out)]


@dataclass
class Outcome:
    inv: Invocation
    code: int | None  # None: the in-process call raised
    wall_s: float
    cpu_s: float = 0.0
    rss_kb: int = 0
    ok: bool = False
    answers: int = 1
    inconclusive: int = 0
    note: str = ""


def invocation_list(workload: str, generated: list[Path]) -> list[Invocation]:
    invs = [
        inv
        for cmd in WORKLOAD_COMMANDS[workload]
        for target in INPUTS
        if (inv := Invocation(cmd, target, True)).key not in SAME_WORK
    ]
    if workload == "lift":
        invs += [
            Invocation(cmd, ("--spec", str(p)), False)
            for cmd in GENERATED_COMMANDS
            for p in generated
        ]
    return invs


def judge(o: Outcome, out: Path) -> None:
    """Check one outcome against its known answer and read its search answers."""
    want = KNOWN["exit"][o.inv.key] if o.inv.pinned else 0
    report = None
    if out.exists():
        report = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
    o.ok = o.code == want
    if not o.ok:
        o.note = f"exit {o.code}, expected {want}"
    elif o.code != 2 and report is None:
        o.ok, o.note = False, "no report written"
    elif o.inv.pinned and o.inv.command == "construct":
        if report["assignment"] != KNOWN["assignment"][o.inv.target_id]:
            o.ok, o.note = False, "assignment differs from its pin"
    adjoints = (report or {}).get("setup_adjoints")
    if adjoints:
        o.answers = len(adjoints)
        o.inconclusive = sum(v["how"] == "budget" for v in adjoints.values())
    else:
        o.inconclusive = int(o.code == 3)


# ---------------------------------------------------------------------------
# Children.


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stderr_path: Path):
    """(exit code, wall seconds, resource usage) of one child process."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=child_env(),
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it, so tell Popen
    return proc.returncode, wall, usage


def cli_argv(inv: Invocation, seed: int, out: Path) -> list[str]:
    return ["-m", "nullkan", *inv.argv(seed, out)]


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def set_up(workload: str, seed: int, work: Path) -> tuple[float, float, list[Path], list[Outcome]]:
    """Generate and validate the seeded specs, then warm the bytecode caches.

    Returns the set-up's CPU time (this process and its children), its wall
    time, the spec paths and the `validate` outcomes."""
    t0, c0 = time.perf_counter(), time.process_time()
    generated, validations = [], []
    if workload == "lift":
        for i, text in enumerate(specgen.generate(seed, GENERATED_SPECS)):
            path = work / f"gen{i}.spec"
            path.write_text(text, encoding="utf-8")
            generated.append(path)
            inv = Invocation("validate", ("--spec", str(path)), False)
            validations.append(run_judged(inv, seed, work))
    code, _, usage = run_child(["-c", "import nullkan.cli"], work / "stderr.txt")
    if code != 0:
        raise SystemExit("import nullkan.cli failed: " + (work / "stderr.txt").read_text())
    cpu = time.process_time() - c0 + cpu_seconds(usage) + sum(v.cpu_s for v in validations)
    return cpu, time.perf_counter() - t0, generated, validations


def run_judged(inv: Invocation, seed: int, work: Path) -> Outcome:
    out = work / "report.json"
    code, wall, usage = run_child(cli_argv(inv, seed, out), work / "stderr.txt")
    o = Outcome(inv, code, wall, cpu_seconds(usage), usage.ru_maxrss)
    judge(o, out)
    if not o.ok:
        o.note += ": " + (work / "stderr.txt").read_text(errors="replace").strip()[-300:]
    return o


# ---------------------------------------------------------------------------
# In process.


def run_list_in_process(invs: list[Invocation], seed: int, work: Path) -> tuple[float, list[Outcome]]:
    from nullkan import cli

    out = work / "report.json"
    outcomes = []
    t0 = time.perf_counter()
    for inv in invs:
        t1 = time.perf_counter()
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(inv.argv(seed, out))
        except Exception as e:  # noqa: BLE001  a crash is a failed invocation
            code, err = None, io.StringIO(f"{type(e).__name__}: {e}")
        o = Outcome(inv, code, time.perf_counter() - t1)
        judge(o, out)
        if not o.ok:
            o.note += ": " + err.getvalue().strip()[-300:]
        outcomes.append(o)
    return time.perf_counter() - t0, outcomes


def import_seconds() -> float:
    probe = "import time; t = time.perf_counter(); import nullkan.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run(
            [sys.executable, "-c", probe],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        )
        times.append(float(res.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Metrics.


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, and never below the median."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 1 - TAIL_BEYOND, n // 2)
    return xs[i], (100.0 * i / (n - 1) if n > 1 else 100.0)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_COMMANDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One processor for this process and every child: numpy's BLAS threads
    # then cannot spin on a second one, which adds about 0.07 s of CPU time
    # to each child, more or less as the other processor is busy or not.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    root = Path.cwd()
    missing = [x for x in ("src/nullkan/cli.py", *SPECS) if not (root / x).is_file()]
    if missing:
        print(f"error: not a nullkan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        cpu, wall, generated, validations = set_up(args.workload, args.seed, work)
        setups.append(cpu)
        setup_walls.append(wall)
    invs = invocation_list(args.workload, generated)
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))

    lines = []
    if args.trace:
        metrics = {"cli.import_s": metric(import_seconds(), "s")}
        plain_s, plain = run_list_in_process(invs, args.seed, work)
        t = tracer.Tracer()
        t.install()
        try:
            traced_s, outcomes = run_list_in_process(invs, args.seed, work)
        finally:
            t.uninstall()
        t.write_spans(Path.cwd() / ".perfbench" / f"spans-{args.workload}-{args.seed}.json")
        outcomes = plain + outcomes
        for name, secs in sorted(t.self_times().items()):
            metrics[name] = metric(secs, "s")
        for name, n in sorted(t.counts.items()):
            metrics[name] = metric(n, "count")
        metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
        lines.append(f"in-process list: {plain_s:.3f} s untraced, {traced_s:.3f} s traced, {len(t.spans)} spans")
        wanted = bench["per_layer"]
    else:
        # Run the whole list once, then keep running it until --seconds have
        # passed; each invocation counts at the median CPU time of its runs.
        # After the first pass the invocation with the least time spent on it
        # so far goes next, so each gets about the same share of the clock
        # and the quick ones run many times; an invocation runs again only if
        # its fastest run so far fits in the time left.
        outcomes = []
        cpus = [[] for _ in invs]
        walls = [[] for _ in invs]
        t0 = time.perf_counter()
        while True:
            left = args.seconds - (time.perf_counter() - t0)
            todo = [i for i, w in enumerate(walls) if not w or min(w) < left]
            if not todo:
                break
            i = min(todo, key=lambda i: sum(walls[i]))
            outcomes.append(run_judged(invs[i], args.seed, work))
            cpus[i].append(outcomes[-1].cpu_s)
            walls[i].append(outcomes[-1].wall_s)
        best = [statistics.median(c) for c in cpus]
        tail_s, tail_pct = tail(best)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "list_cpu_s": metric(sum(best), "s"),
            "verdict_cpu_p50_s": metric(statistics.median(best), "s"),
            "verdict_cpu_tail_s": metric(tail_s, "s"),
            "peak_rss_mb": metric(max(o.rss_kb for o in outcomes) / 1024, "MB"),
        }
        fastest = [min(w) for w in walls]
        for inv, c, w in zip(invs, cpus, walls):
            lines.append(f"{statistics.median(c):.3f} s median CPU, {min(w):.3f} s fastest wall, {len(c)} runs: {inv.key}")
        lines.append(
            f"{len(outcomes)} runs of {len(invs)} invocations ({len(outcomes) / len(invs):.2f} passes); "
            f"verdict_cpu_tail_s is p{tail_pct:.1f} of {len(best)} median CPU times"
        )
        lines.append(
            f"wall time, not a metric: list {sum(fastest):.3f} s and verdict p50 "
            f"{statistics.median(fastest):.3f} s at each invocation's fastest run, "
            f"set-up {statistics.median(setup_walls):.3f} s"
        )
        wanted = bench["end_to_end"]

    # Later passes repeat the quick invocations more often, so the share of
    # inconclusive answers is taken over the first pass: the whole list once.
    answers = sum(o.answers for o in outcomes[: len(invs)])
    inconclusive = sum(o.inconclusive for o in outcomes[: len(invs)])
    # Each invocation of the list and each `validate` of the set-up counts
    # once as attempted, and once as failed if any of its runs missed its
    # answer, so neither figure depends on how many passes the clock allowed.
    outcomes = validations + outcomes
    attempted = len(validations) + len(invs)
    failed = {}
    for o in outcomes:
        if not o.ok:
            failed.setdefault(o.inv.key, o)
    pinned_ok = all(o.ok for o in outcomes if o.inv.pinned)
    lines.append(f"failed_share {len(failed) / attempted:.6f} share ({len(failed)} of {attempted} invocations)")
    lines.append(
        f"inconclusive_share {inconclusive / answers:.6f} share ({inconclusive} of {answers} search answers in the first pass)"
    )
    for o in failed.values():
        lines.append(f"FAILED {'pinned' if o.inv.pinned else 'generated'} {o.inv.key}: {o.note}")

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(metrics)}")
    for name in sorted(metrics):
        lines.append(f"{name} {metrics[name]['value']} {metrics[name]['unit']}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": pinned_ok,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
