"""qnonloc benchmark: one workload per process, sequential passes, one caller.

    python3 bench/run.py --workload oracle_small --seed 1 --seconds 36 --trace 0

Run it from the root of a source tree (the package is imported from src/).
Each run times set-up, then runs whole passes over the workload's inputs for
about --seconds (it starts no pass it expects to end later), times each part
of a pass in CPU seconds (its own and its children's), checks every output
against the independent references in reference.py outside the timed
intervals, and prints one JSON line last: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
untraced and traced passes alternate and the metrics are the per-layer ones
from the traced passes.  The seed only reorders the inputs of each pass and
picks the xi of each modified family among its admissible values.  The exit
code is 0 only when every operation succeeded and every check held.  See
README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from tracing import PER_LAYER, PROC_PREFIX, UNITS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60  # the slowest step takes about 2 s


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.broken: list[str] = []  # failed checks outside any operation

    def record(self, ops: list, failures: dict) -> None:
        """`failures` maps an op (or None for all of `ops`) to its reason."""
        self.attempted += len(ops)
        bad = set(ops) if None in failures else set(failures) & set(ops)
        self.failed += len(bad)
        self.reasons.extend(f"{op}: {why}" for op, why in failures.items())


def _member_sets(family) -> dict:
    return {label: ts.members() for label, ts in family.items()}


def cpu_clock() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed_cpu(fn, *args, **kwargs):
    c0 = cpu_clock()
    out = fn(*args, **kwargs)
    return out, cpu_clock() - c0


class HostProbe:
    """Times rounds of a workload's reference kernels of hostprobe.py, in its
    helper process, at intervals through a run.

    The throughput of this shared host moves by up to 2x between spells of
    ten seconds to minutes, and CPU time moves with it, by more for code
    that moves more memory.  factor() is the geometric mean, over the
    workload's kernels, of the kernel's NOMINAL_S over its median CPU time in
    the run; a CPU time multiplied by it is the time on a host where the
    kernels take their nominal times.  A change to qnonloc does not touch the
    kernels, so it shows in full."""

    # about the kernels' medians on the reference machine in a fast spell
    NOMINAL_S = {"tuples": 0.016, "loop": 0.019, "svd_small": 0.0051, "svd_mid": 0.054,
                 "svd_large": 0.10, "stream": 0.015, "gather": 0.024, "spawn": 0.21}
    EVERY_S = 4.0  # wall seconds between rounds, checked after each input

    def __init__(self, kernels: tuple[str, ...]):
        self.samples = {name: [] for name in kernels}

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "hostprobe.py"), *self.samples],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.round()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def round(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe helper ended early")
        for name, t in json.loads(line).items():
            self.samples[name].append(t)
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.round()

    def factor(self) -> float:
        logs = [math.log(self.NOMINAL_S[name] / statistics.median(ts))
                for name, ts in self.samples.items()]
        return math.exp(sum(logs) / len(logs))


class Workload:
    """prepare() is the set-up; reference() computes what the checks expect,
    untimed; run_pass() runs one pass, records its operations and returns the
    CPU time of each part of it, keyed by (input, part, ...); summarize() turns
    the run's estimate of each part's time into pass_s, flagship_verify_s and
    largest_family_s."""

    # The reference kernels (hostprobe.py) that do the kinds of work the
    # workload does, so that a spell of the host slows them alike.
    KERNELS: tuple[str, ...] = ()

    def close(self) -> None:
        pass


# ---- oracle_small ----------------------------------------------------------

class OracleSmall(Workload):
    """Full in-process certification of families under the oracle cap."""

    FLAGSHIP = "modified(4,3)"
    LARGEST = "index(4,3)"
    # Three flagship runs a pass, at shuffled positions, give its parts more
    # samples; pass_s still counts one flagship certification.
    FLAGSHIP_COPIES = 3
    CUTS = 3
    # in-process: the interpreter, LAPACK and the memory traffic of the oracle
    KERNELS = ("tuples", "loop", "svd_small", "svd_mid", "svd_large", "stream", "gather")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.xi = {d: self.rng.choice(ref.admissible_xi(d, 3)) for d in (3, 4)}

    def prepare(self) -> None:
        import qnonloc as q
        self.q = q
        self.inputs = []  # (name, d, family, kind, label dropped from modified (4,3))
        for d in (3, 4):
            fam = q.build_modified_family(d, 3, xi=self.xi[d]).family
            self.inputs.append((f"modified({d},3)", d, fam, "modified", None))
        for d in (3, 4):
            self.inputs.append((f"index({d},3)", d, q.build_index_family(d, 3), "index", None))
        flagship = self.inputs[1]
        for label in flagship[2].labels:
            self.inputs.append((f"modified(4,3)-{label}", 4, flagship[2].drop(label),
                                "ablation", label))
        self.inputs += [flagship] * (self.FLAGSHIP_COPIES - 1)

    def reference(self) -> None:
        """Digit-sum supports, phase states, Gram, entanglement and dims, once."""
        self.expected = {}
        for name, d, family, kind, dropped in self.inputs:
            if name in self.expected:
                continue
            if kind == "index":
                sets = ref.index_sets(d, 3)
            else:
                sets = ref.modified_sets(d, 3, self.xi[d])
                sets.pop(dropped, None)
            states = ref.phase_states(sets, d, 3)
            self.expected[name] = {
                "supports": (ref.same_sets(_member_sets(family), sets)
                             and (kind != "modified"
                                  or family.total_size() == ref.modified_size(d, 3))),
                "states": states,
                "gram": ref.gram_ok(states),
                "entangled": ref.genuinely_entangled(states, d, 3),
                "dims": [ref.nullspace_dim(sets, d, 3, k) for k in range(3)],
                "conditions": [(ref.pair_covering(sets, d, k), ref.connected(sets, d, k))
                               for k in range(3)],
            }

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> list:
        q = self.q
        out = []
        for name, d, family, kind, _ in self.rng.sample(self.inputs, len(self.inputs)):
            ops = [(name, route, k) for route in ("comb", "oracle") for k in range(self.CUTS)]
            parts = []
            try:
                t0 = cpu_clock()
                states = q.family_states(family)
                gram = q.gram_check(states)
                entangled = q.genuine_entanglement_check(states)
                t1 = cpu_clock()
                comb = q.verify_strongest_nonlocality(family)
                t2 = cpu_clock()
                parts += [((name, "prep"), t1 - t0), ((name, "comb"), t2 - t1)]
                oracle = []
                for k in range(self.CUTS):
                    t0 = cpu_clock()
                    oracle += q.oracle_verify(states, cuts=[k])
                    parts.append(((name, "oracle"), cpu_clock() - t0))
                bad = self.check(name, d, kind, gram, entangled, comb, oracle)
            except Exception as e:  # counted as failed operations, run goes on
                bad = {None: repr(e)}
            tally.record(ops, bad)
            out += parts
            self.host.tick()
        return out

    def summarize(self, est: dict) -> dict:
        # The supports of every family here are symmetric under permutations of
        # the parties, so its cuts cost about the same: their samples are pooled
        # into one "oracle" part, which counts once per cut.
        def total(keep) -> float:
            return sum(t * (self.CUTS if part == "oracle" else 1)
                       for (name, part), t in est.items() if keep(name, part))
        return {"pass_s": total(lambda name, part: True),
                "flagship_verify_s": total(
                    lambda name, part: name == self.FLAGSHIP and part != "prep"),
                "largest_family_s": total(lambda name, part: name == self.LARGEST)}

    def check(self, name, d, kind, gram, entangled, comb, oracle) -> dict:
        exp = self.expected[name]
        bad = {}
        if not exp["supports"]:
            bad[None] = "family differs from the digit-sum rule or its size formula"
        if gram.ok != exp["gram"] or gram.structural_overlap:
            bad[None] = f"gram_check ok={gram.ok}, reference {exp['gram']}"
        if entangled != exp["entangled"]:
            bad[None] = f"entanglement {entangled}, reference {exp['entangled']}"
        if kind == "index" and len({_cut_key(r) for r in comb}) != 1:
            bad[None] = "index family verdicts differ across cuts"
        if [r.k for r in comb] != [0, 1, 2] or [r.k for r in oracle] != [0, 1, 2]:
            bad[None] = "reports do not cover cuts 0, 1, 2"
            return bad
        for k, (c, o) in enumerate(zip(comb, oracle)):
            dim = exp["dims"][k]
            if (c.pair_covering, c.connectivity) != exp["conditions"][k]:
                bad[(name, "comb", k)] = "pair covering or connectivity differs from the reference"
            if c.overall == "trivial" and dim != 1:
                bad[(name, "comb", k)] = f"combinatorial trivial, reference dim {dim}"
            if c.overall == "nontrivial" and dim == 1:
                bad[(name, "comb", k)] = "combinatorial nontrivial, reference dim 1"
            if kind == "modified" and d >= 4 and (c.overall != "trivial" or dim != 1):
                bad[(name, "comb", k)] = f"modified family {c.overall}, reference dim {dim}"
            if o.nullspace_dim != dim:
                bad[(name, "oracle", k)] = f"nullspace_dim {o.nullspace_dim} != {dim}"
            elif o.D != d * d or o.verdict != ("trivial" if dim == 1 else "nontrivial"):
                bad[(name, "oracle", k)] = f"D={o.D} verdict={o.verdict} for dim {dim}"
            elif (o.witness is None) != (dim == 1):
                bad[(name, "oracle", k)] = "witness present iff nontrivial fails"
            elif o.witness is not None and not ref.witness_ok(o.witness, exp["states"], d, 3, k):
                bad[(name, "oracle", k)] = "witness fails the reference check"
        return bad


def _cut_key(report) -> tuple:
    return (report.overall, report.pair_covering, report.connectivity,
            tuple((str(l), v.condition.value) for l, v in report.conditions.items()))


# ---- cli_files -------------------------------------------------------------

class CliFiles(Workload):
    """The qnonloc command, one subprocess per step, through JSON files."""

    LARGE = (4, 7)
    FLAGSHIP = (4, 3)
    # a fresh interpreter per step, then everything the other workloads do
    KERNELS = ("tuples", "loop", "svd_small", "svd_mid", "svd_large", "stream", "gather",
               "spawn")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.xi = {dn: self.rng.choice(ref.admissible_xi(*dn)) for dn in (self.LARGE, self.FLAGSHIP)}

    def prepare(self) -> None:
        import qnonloc.cli  # what every step's process imports
        self.dir = WORK / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.large, self.flag = self.dir / "large.json", self.dir / "flagship.json"
        self.exported = self.dir / "large.export.json"
        self.trace_out = self.dir / "spans.json"

    def reference(self) -> None:
        self.sets = {dn: ref.modified_sets(*dn, self.xi[dn]) for dn in (self.LARGE, self.FLAGSHIP)}
        self.dims = [ref.nullspace_dim(self.sets[self.FLAGSHIP], 4, 3, k) for k in range(3)]

    def steps(self) -> list[tuple[str, str, list[str]]]:
        """(key, step, arguments) of each subprocess of one pass."""
        def construct(key, dn, path):
            return (key, "construct", ["construct", "--d", str(dn[0]), "--n", str(dn[1]),
                                       "--xi", str(self.xi[dn]), "--out", str(path)])
        first = [construct("construct_large", self.LARGE, self.large),
                 construct("construct_flagship", self.FLAGSHIP, self.flag)]
        rest = [("import", "import", ["import", str(self.large)]),
                ("export", "export", ["export", str(self.large), "--out", str(self.exported)]),
                ("verify_comb", "verify_comb", ["verify", "--combinatorial-only", "--format",
                                                "json", str(self.large)]),
                ("verify", "verify", ["verify", "--format", "json", str(self.flag)]),
                ("tables", "tables", ["tables", "--format", "json"])]
        return self.rng.sample(first, 2) + self.rng.sample(rest, len(rest))

    def run_pass(self, tally: Tally, tracer: Tracer | None = None) -> list:
        out = []
        for key, step, argv in self.steps():
            if tracer is None:
                cmd = [sys.executable, "-m", "qnonloc.cli", *argv]
            else:
                cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(self.trace_out), *argv]
            try:
                if tracer is None:
                    proc, elapsed = _timed_cpu(self._spawn, cmd)
                else:
                    self.trace_out.unlink(missing_ok=True)
                    with tracer.span(PROC_PREFIX + step) as span:
                        proc, elapsed = _timed_cpu(self._spawn, cmd)
                    tracer.graft(json.loads(self.trace_out.read_text()), span["id"])
                out.append(((key,), elapsed))
                failure = self.check(step, argv, proc)
            except Exception as e:  # counted as a failed operation, run goes on
                failure = repr(e)
            tally.record([key], {key: failure} if failure else {})
            self.host.tick()
        return out

    def summarize(self, est: dict) -> dict:
        return {"pass_s": sum(est.values()), "flagship_verify_s": est[("verify",)],
                "largest_family_s": est[("verify_comb",)]}

    def _spawn(self, cmd: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.dir, timeout=CHILD_TIMEOUT_S)

    def check(self, step: str, argv: list[str], proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        if step == "construct":
            dn = (int(argv[2]), int(argv[4]))
            doc = json.loads(Path(argv[-1]).read_text())
            if doc["meta"].get("xi_prime") != self.xi[dn]:
                return "xi_prime differs from the requested xi"
            sets = ref.family_doc_sets(doc)
            if (sum(len(s) for s in sets.values()) != ref.modified_size(*dn)
                    or not ref.same_sets(sets, self.sets[dn])):
                return "family differs from the digit-sum rule or its size formula"
        elif step == "import":
            if f"size={ref.modified_size(*self.LARGE)}" not in proc.stdout:
                return f"import summary: {proc.stdout.strip()}"
        elif step == "export":
            if self.exported.read_bytes() != self.large.read_bytes():
                return "export is not a byte-stable fixed point"
        elif step == "verify_comb":
            doc = json.loads(proc.stdout)
            if ([c["overall"] for c in doc["cuts"]] != ["trivial"] * self.LARGE[1]
                    or "oracle" in doc):
                return "combinatorial verify not trivial on every cut"
        elif step == "verify":
            doc = json.loads(proc.stdout)
            if doc.get("agreement") != "consistent":
                return f"agreement: {doc.get('agreement')}"
            if ([o["nullspace_dim"] for o in doc["oracle"]] != self.dims
                    or any(c["overall"] != "trivial" for c in doc["cuts"])):
                return "flagship verdicts differ from the reference"
        elif step == "tables":
            if not ref.tables_ok(json.loads(proc.stdout)):
                return "tables differ from the closed formulas"
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"oracle_small": OracleSmall, "cli_files": CliFiles}


# ---- one run ---------------------------------------------------------------

def setup_probe(args) -> float:
    """CPU time of a fresh process that imports qnonloc and prepares the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc, elapsed = _timed_cpu(subprocess.run, cmd, capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=str(SRC)),
                               timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def estimate(samples: dict) -> dict:
    """The run's estimate of each part's time: the median of its samples."""
    return {key: statistics.median(ts) for key, ts in samples.items()}


def _add(samples: dict, timed: list) -> None:
    for key, t in timed:
        samples.setdefault(key, []).append(t)


def run(args, host: HostProbe) -> tuple[dict, Tally, list[float]]:
    """Metrics by name as (value, unit), the tally, and each pass's wall time."""
    workload = WORKLOADS[args.workload](args.seed)
    workload.host = host
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(setup_probe(args))
        host.tick()
    workload.prepare()
    tally = Tally()
    tally.broken.extend(f"dimension counter self-check: {f}" for f in ref.self_check())
    workload.reference()

    tracer = Tracer() if args.trace else None
    untraced, traced, layers, walls = {}, {}, [], []
    start = time.perf_counter()
    try:
        # Whole passes only, and none that would end past --seconds.
        while (len(walls) < (2 if args.trace else 1)
               or time.perf_counter() - start + statistics.median(walls) <= args.seconds):
            t0 = time.perf_counter()
            if not (args.trace and len(walls) % 2):
                _add(untraced, workload.run_pass(tally))
            else:
                mark = len(tracer.spans)
                tracer.install()
                try:
                    _add(traced, workload.run_pass(tally, tracer))
                finally:
                    tracer.uninstall()
                layers.append(layer_metrics(tracer.spans[mark:]))
            walls.append(time.perf_counter() - t0)
    finally:
        workload.close()

    factor = host.factor()
    raw = workload.summarize(estimate(untraced))
    raw["setup_s"] = statistics.median(setups)
    print(f"host factor {factor:.4f} from {len(host.samples['tuples'])} probe rounds; "
          "CPU s as measured: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    summary = {name: value * factor for name, value in raw.items()}
    if not args.trace:
        metrics = {name: (summary[name], "s") for name in
                   ("setup_s", "pass_s", "flagship_verify_s", "largest_family_s")}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return metrics, tally, walls

    tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            value = (workload.summarize(estimate(traced))["pass_s"] * factor
                     - summary["pass_s"])
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = (value, UNITS.get(name, "s"))
    return metrics, tally, walls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "qnonloc" / "__init__.py").is_file():
        print(f"error: no qnonloc sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for the run and every process it starts, so that the kernels
    # of the host probe run where the work runs: the vCPUs of a shared host
    # can run at different speeds.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        workload = WORKLOADS[args.workload](args.seed)
        workload.prepare()
        workload.close()
        return 0

    # The helper is reaped only after the metrics are made, so its memory never
    # reaches peak_rss_mb through RUSAGE_CHILDREN.
    with HostProbe(WORKLOADS[args.workload].KERNELS) as host:
        metrics, tally, pass_times = run(args, host)
    correct = tally.failed == 0 and not tally.broken
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  passes {len(pass_times)}, wall s: " + " ".join(f"{t:.4f}" for t in pass_times))
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for reason in (tally.broken + tally.reasons)[:20]:
        print(f"  FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
