"""Layered benchmark of the pathgroupoids command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pg-groupoid --seed 1 --seconds 30 --trace 0

Each workload is a list of CLI reports ("jobs").  All jobs run in this
one process, without threads, through ``pathgroupoids.cli.main``; every
job resolves its graph afresh, so every per-graph cache starts cold, as
it does for a user.  Generated inputs are seeded twisted products of
two lines (see ``gen.py``), written as presentation documents and passed
to ``--graph`` by file name.

With ``--trace 0`` the run repeats passes over the job list, at least
``MIN_PASSES`` of them, and stops before a pass that would overrun
``--seconds``; it reports the end-to-end metrics as medians over passes.
The timed metrics (``wall_ref_s``, ``max_job_ref_s``) give job times at
a fixed reference speed.  While a job runs, a timer signal interrupts it
every ``PROBE_EVERY`` seconds to time a small fixed computation that
does not use the package (``reference``); the job's seconds, without the
probes, are scaled by ``REF_S`` over the probes' mean.  A shared host's
speed switches between levels as far apart as 1.7x within seconds and
drifts by more than 10% from one minute to the next; probes taken during
the job see the same levels, so the scaled times cancel them.  The raw
seconds are printed too.  With ``--trace 1`` it runs
one untraced pass, then wraps every layer (``spans.py``) and runs one
traced pass; it reports the per-layer metrics and writes the spans to
``.perfbench_out/``.

Every report is checked: exit code, the report schema, the sha256
recorded in ``digests.json`` (catalog inputs always, generated inputs on
the default seed), and the report's own invariants.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
PACKAGE = "pathgroupoids"
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = ".perfbench_out"
DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_PROBES = 7
PROBE_EVERY = 0.1  # seconds between reference probes while a job runs
# Mean seconds of one reference probe on the machine the baseline in
# README.md was measured on (a 2-vCPU Intel Xeon virtual machine).
REF_S = 0.004
BOUND = (2, 2)  # the CLI's default degree bound for rank 2

import gen  # the benchmark's own module, next to this file


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # invariants of the report's "results"; returns the broken ones
    check: Callable[[dict], list[str]] = lambda results: []
    generated: bool = False  # input depends on the seed

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    documents: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)


# -- invariants ---------------------------------------------------------------


def spielberg_invariants(results: dict) -> list[str]:
    iso = results.get("spielberg_isomorphism", {})
    bad = []
    if iso.get("ok") is not True:
        bad.append("spielberg_isomorphism.ok is not true")
    if iso.get("bijection_count_match") is not True:
        bad.append("bijection_count_match is not true")
    if results.get("elements") != iso.get("classes"):
        bad.append(f"elements {results.get('elements')} != classes {iso.get('classes')}")
    return bad


def product_validate_invariants(size):
    a, b, ma, mb = size

    def check(results: dict) -> list[str]:
        expected = {
            "valid": True,
            "finite": True,
            "rank": 2,
            "vertices": (a + 1) * (b + 1),
            "edges": a * (b + 1) * ma + (a + 1) * b * mb,
            "squares": a * b * ma * mb,
        }
        return [f"{k} is {results.get(k)!r}, expected {v!r}" for k, v in expected.items() if results.get(k) != v]

    return check


def product_align_invariants(size):
    def check(results: dict) -> list[str]:
        bad = []
        verdicts = results.get("verdicts", [])
        expected = gen.morphism_count(*size, BOUND)
        if len(verdicts) != expected:
            bad.append(f"{len(verdicts)} verdicts, expected {expected} morphisms")
        if any(v["value"] != "True" for v in verdicts):
            bad.append("a finite graph has a morphism outside FA")
        for key in ("fa_structure", "constellation", "relative_category_of_paths"):
            if results.get(key, {}).get("ok") is not True:
                bad.append(f"{key}.ok is not true")
        return bad

    return check


# -- workloads ----------------------------------------------------------------


def _file(size) -> str:
    return "tw_" + "_".join(map(str, size)) + ".kg"


def pg_groupoid(rng: random.Random) -> Workload:
    w = Workload()
    for graph in ("grid", "squares", "cycle"):
        w.jobs.append(Job(("groupoid", "--graph", graph, "--spielberg"), spielberg_invariants))
    size = (2, 1, 2, 1)
    w.documents[_file(size)] = gen.twisted_product(*size, rng)
    w.jobs.append(Job(("groupoid", "--graph", _file(size), "--spielberg"), spielberg_invariants, True))
    w.jobs.append(Job(("groupoid", "--graph", "tg", "--compare-relative", "--cutoff", "5")))
    return w


def ps_infinite(rng: random.Random) -> Workload:
    # tg-infinity runs at cutoff 2: its default cutoff 3 takes ~19 s alone.
    return Workload(
        jobs=[
            Job(("paths", "--graph", "yee")),
            Job(("paths", "--graph", "tg-infinity", "--cutoff", "2")),
            Job(("paths", "--graph", "tg", "--cutoff", "10", "--probe", "lambda")),
            Job(("paths", "--graph", "cycle")),
        ]
    )


FA_SMALL = [
    (a, b, ma, mb) for a in (1, 2) for b in (1, 2) for ma in (1, 2) for mb in (1, 2)
] + [(1, 1, 3, 1), (1, 1, 1, 3), (1, 1, 3, 2), (3, 1, 1, 2)]
FA_LARGE = [(3, 3, 1, 1), (3, 2, 2, 1)]


def fa_cold(rng: random.Random) -> Workload:
    w = Workload()
    for size in FA_SMALL + FA_LARGE:
        name = _file(size)
        w.documents[name] = gen.twisted_product(*size, rng)
        w.jobs.append(Job(("validate", "--graph", name), product_validate_invariants(size), True))
        w.jobs.append(
            Job(("align", "--graph", name, "--all", "--structure"), product_align_invariants(size), True)
        )
    w.jobs.append(Job(("validate", "--graph", "yee", "--cutoff", "6")))
    w.jobs.append(Job(("align", "--graph", "yee", "--cutoff", "6", "--all", "--structure")))
    return w


WORKLOADS: dict[str, Callable[[random.Random], Workload]] = {
    "pg-groupoid": pg_groupoid,
    "ps-infinite": ps_infinite,
    "fa-cold": fa_cold,
}


@contextlib.contextmanager
def inputs(name: str, seed: int):
    """The workload's jobs for `seed`, in a seeded order, with its documents
    written to a fresh directory that is the working directory until the
    block ends.  Jobs name the files relative to it, so reports (and their
    digests) do not depend on where the run happens."""
    rng = random.Random(f"{name}:{seed}")
    w = WORKLOADS[name](rng)
    rng.shuffle(w.jobs)
    home = os.getcwd()
    directory = tempfile.mkdtemp(prefix=".perfbench-", dir=home)
    try:
        for file_name, text in w.documents.items():
            with open(os.path.join(directory, file_name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(directory)
        yield w
    finally:
        os.chdir(home)
        shutil.rmtree(directory, ignore_errors=True)


# -- running and checking -------------------------------------------------------


@dataclass
class Outcome:
    job: Job
    seconds: float
    code: int | None
    stdout: str
    error: str = ""
    probes: list[float] = field(default_factory=list)  # reference() seconds


class Probe:
    """Times ``reference()`` every ``PROBE_EVERY`` seconds of wall time,
    from a SIGALRM handler, until the block ends.  ``spent`` is the time
    the probes took, handler included."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_job(cli, job: Job, probed: bool = False) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # the previous job's garbage is not this job's cost
    probe = Probe()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with probe if probed else contextlib.nullcontext():
                code = cli.main(list(job.argv) + ["--format", "json"])
        error = err.getvalue()
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        error = repr(exc)
    seconds = time.perf_counter() - start - probe.spent
    return Outcome(job, seconds, code, out.getvalue(), error, probe.samples)


class Checker:
    def __init__(self, workload: str, seed: int):
        import jsonschema
        from pathgroupoids import schema

        def validator(s):
            cls = jsonschema.validators.validator_for(s)
            cls.check_schema(s)
            return cls(s)

        self.invalid = jsonschema.ValidationError
        self.report = validator(schema.REPORT_SCHEMA)
        self.verdict = validator(schema.VERDICT_SCHEMA)
        self.element = validator(schema.ELEMENT_SCHEMA)
        self.workload, self.seed = workload, seed
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def problems(self, o: Outcome) -> list[str]:
        if o.code != 0:
            return [f"exit code {o.code}: {o.error.strip()[:200]}"]
        try:
            report = json.loads(o.stdout)
            self.report.validate(report)
            for v in report["results"].get("verdicts", []):
                self.verdict.validate(v)
            for el in report["results"].get("element_list", []):
                self.element.validate(el)
        except (ValueError, self.invalid) as exc:
            return [f"invalid report: {str(exc)[:200]}"]
        bad = o.job.check(report["results"])
        if not o.job.generated or self.seed == DEFAULT_SEED:
            want = self.digests.get(digest_key(self.workload, o.job))
            got = hashlib.sha256(o.stdout.encode()).hexdigest()
            if want != got:
                bad.append(f"sha256 {got} != recorded {want}")
        return bad


def digest_key(workload: str, job: Job) -> str:
    return f"{workload}: {job.label}"


def reference() -> float:
    """Seconds of one small fixed computation that does not use the
    package: frozen records, tuples, dicts, sets and a breadth-first
    search, the kinds of work the package spends its time on.  The
    collector is off, so the size of the program's heap does not change
    it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        seen = {Cell(0, 0)}
        frontier = [Cell(0, 0)]
        while frontier:
            nxt = []
            for c in frontier:
                for d in ((1, 0), (0, 1), (1, 1)):
                    n = Cell(*(a + b for a, b in zip((c.i, c.j), d)))
                    if n.i <= 24 and n.j <= 24 and n not in seen:
                        seen.add(n)
                        nxt.append(n)
            frontier = nxt
        index: dict[tuple[int, int], list[Cell]] = {}
        for c in seen:
            index.setdefault((c.i % 7, c.j % 5), []).append(c)
        sorted(frozenset((c.i, c.j)) for cells in index.values() for c in cells if c.i != c.j)
    finally:
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
    return elapsed


@dataclass(frozen=True)
class Cell:
    i: int
    j: int


def run_pass(cli, jobs: list[Job], tracer=None) -> list[Outcome]:
    if tracer is None:
        return [run_job(cli, job, probed=True) for job in jobs]
    return [tracer.run_job(job.label, lambda job=job: run_job(cli, job)) for job in jobs]


def at_reference_speed(p: list[Outcome]) -> list[float]:
    """Each job's seconds scaled to the reference speed, by the probes
    taken during the job, or during the whole pass for a job too short to
    be probed.  The mean, not the median: a job's time is the time-weighted
    mean of the host's slowness, and the probes sample it evenly in time."""
    everywhere = [x for o in p for x in o.probes]
    return [o.seconds * REF_S / statistics.fmean(o.probes or everywhere) for o in p]


def import_package():
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        sys.exit(f"error: {SRC}/{PACKAGE} not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import pathgroupoids.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: {PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import, generate and write the inputs, then print
    the moment the first job would be ready."""
    import_package()
    with inputs(workload, seed):
        ready = time.perf_counter()
    print(repr(ready))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, once per child; the
    monotonic clock is shared by every process on the machine."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(child.stdout.strip().splitlines()[-1]) - start)
    return out


def _pass_estimate(passes: list[list[Outcome]]) -> float:
    return statistics.median(sum(o.seconds + sum(o.probes) for o in p) for p in passes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics --------------------------------------------------------------------


def end_to_end(passes: list[list[Outcome]], setup: list[float], failed: int, attempted: int) -> dict:
    scaled = [at_reference_speed(p) for p in passes]
    return {
        "wall_ref_s": (statistics.median(sum(p) for p in scaled), "s"),
        "max_job_ref_s": (statistics.median(max(p) for p in scaled), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jobs_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SELF_LAYERS = ("kgraph", "degree", "alignment", "pspace", "action", "groupoid", "spielberg", "cli")


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    t = tracer
    m: dict[str, tuple[float, str]] = {}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
    for name in (
        "kgraph.factorize", "kgraph.prefix_leq", "kgraph.prefixes", "kgraph.compose",
        "kgraph.fiber", "kgraph.is_finite", "kgraph.unit", "kgraph.all_morphisms",
        "kgraph.enumerate_morphisms", "alignment.mce", "alignment.fa_at", "alignment.is_fa",
        "pspace.enumerate_filters", "pspace.principal", "pspace.ps_membership",
        "action.shift_off", "action.shift_on", "action.act",
        "groupoid.enumerate_pg", "groupoid.make_element", "groupoid.compose_elements",
        "groupoid.unit_element", "spielberg.sp_compose", "spielberg.triple_equiv",
        "spielberg.require_fa_certificate",
    ):
        m[f"{name}.calls"] = (t.calls(name), "count")
    m["degree.calls"] = (t.layer_calls("degree"), "count")
    for name in (
        "kgraph.load_presentation", "catalog.by_name", "pspace.check_basis_property",
        "groupoid.axiom_suite", "spielberg.iso_check", "cli.render",
    ):
        m[f"{name}.s"] = (t.inclusive_s(name), "s")
    m["pspace.basis.useful_ratio"] = (_ratio(t.basis_checked, t.basis_candidates), "ratio")
    m["groupoid.make_element.rejected_ratio"] = (
        _ratio(t.error_count("groupoid.make_element", "SpanRejectedError"), t.calls("groupoid.make_element")),
        "ratio",
    )
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


# Which layers each workload claims to stress, checked on the traced pass.
def layer_claims(workload: str, tracer) -> dict[str, bool]:
    s = tracer.layer_self_s
    if workload == "ps-infinite":
        return {"pspace has the largest self time": max(SELF_LAYERS, key=s) == "pspace"}
    if workload == "pg-groupoid":
        return {
            "groupoid+spielberg+action outweigh pspace+alignment":
                s("groupoid") + s("spielberg") + s("action") > s("pspace") + s("alignment")
        }
    return {
        "kgraph+alignment outweigh groupoid+spielberg+action":
            s("kgraph") + s("alignment") > s("groupoid") + s("spielberg") + s("action")
    }


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli = import_package()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)
    with inputs(args.workload, args.seed) as workload:
        passes, tracer = [], None
        started = time.perf_counter()
        if args.trace:
            from spans import Tracer

            passes.append(run_pass(cli, workload.jobs))
            tracer = Tracer()
            tracer.install(PACKAGE)
            passes.append(run_pass(cli, workload.jobs, tracer))
        else:
            # stop before a pass that would overrun --seconds, once MIN_PASSES ran
            while len(passes) < MIN_PASSES or (
                time.perf_counter() - started + _pass_estimate(passes) <= args.seconds
            ):
                passes.append(run_pass(cli, workload.jobs))

    attempted = failed = 0
    for p in passes:
        for o in p:
            attempted += 1
            bad = checker.problems(o)
            if bad:
                failed += 1
                print(f"FAILED {o.job.label}: {'; '.join(bad)}", file=sys.stderr)

    walls = [sum(o.seconds for o in p) for p in passes]
    if tracer is not None:
        metrics = per_layer(tracer, walls[1], walls[0])
        claims = layer_claims(args.workload, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "claims": claims, **tracer.dump()}, fh, indent=1)
        for claim, ok in claims.items():
            print(f"claim {args.workload}: {claim}: {'yes' if ok else 'NO'}")
        print(f"spans written to {trace_file}")
    else:
        metrics = end_to_end(passes, setup, failed, attempted)
        print(f"jobs_failed_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs)")
        print(f"wall_s {statistics.median(walls)} s")
        print(f"max_job_s {statistics.median(max(o.seconds for o in p) for p in passes)} s")
        probes = [x for p in passes for o in p for x in o.probes]
        print(f"probes {len(probes)}, mean {statistics.fmean(probes)} s (REF_S {REF_S} s)")
    print(f"passes {len(passes)}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
