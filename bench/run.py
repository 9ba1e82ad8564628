#!/usr/bin/env python3
"""commsim benchmark: fixed-seed workloads timed end to end, or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload commuting-n63 --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` next to this directory and
nowhere else.  Each task's outputs are checked against an exact reference
computed off the clock.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit, and ``bench/out/`` keeps the full record (seed,
per-task times, values, references, spans).  See ``bench/README.md``.
"""

import os

# numpy links a threaded BLAS; one thread per process keeps runs comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 100
# yardstick period: short enough for several samples in a 0.2 s set-up and
# in every task, long enough that the ~1 ms samples cost about 1 % of a task
PROBE_INTERVAL_S = 0.01
TASK_INTERVAL_S = 0.1


def import_program():
    """Import commsim from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, SRC)
    try:
        import commsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import commsim from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(commsim.__file__))) != SRC:
        sys.exit(f"bench: commsim came from {commsim.__file__}, not {SRC}")


def setup(name: str, seed: int):
    """Imports, the workload object and one warm-up task on its own instance."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    inst = wl.make(np.random.default_rng([seed, 2]), warmup=True)
    wl.run(inst, np.random.default_rng([seed, 3]))
    return wl


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Raw and speed-corrected seconds from a fresh interpreter's start to its first task."""
    start = time.monotonic()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe", repr(start)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{done.stderr}")
    res = json.loads(done.stdout.splitlines()[-1])
    return res["setup_s"], speed.correct(res["setup_s"], res["yard"])


def probe_child(name: str, seed: int, start: float):
    """The probe itself: set up under the speedometer, report time and samples."""
    with speed.Speedometer(PROBE_INTERVAL_S) as sp:
        import_program()
        setup(name, seed)
    ready = time.monotonic()
    print(json.dumps({"setup_s": ready - start - sp.stolen, "yard": sp.samples}))


# ---------------------------------------------------------------------------
# timed phase


def run_task(wl, inst, seed: int, index: int, speedo, tracer=None) -> dict:
    """One task on the clock; a raised exception is recorded, not fatal."""
    rng = np.random.default_rng([seed, 1, index])

    def call():
        try:
            with tracer.task(index) if tracer is not None else contextlib.nullcontext():
                return wl.run(inst, rng), None
        except Exception:  # a failed task is counted, not fatal
            return None, traceback.format_exc()

    if tracer is not None:
        instrument(tracer)
    (out, err), dt, yard = speedo.timed(call)
    if tracer is not None:
        tracer.restore()
    if err:
        print(f"bench: task {index} failed\n{err}", file=sys.stderr)
    return {"index": index, "inst": inst, "out": out, "error": err, "raw_s": dt, "yard": yard}


def timed_phase(wl, seed: int, seconds: float, tracer=None):
    """Closed loop until the tasks' own time reaches ``seconds``.

    Instance i comes from generator [seed, 0, i] and samples with [seed, 1, i];
    it is generated between tasks, off the clock.  With a tracer every
    instance runs twice, untraced and traced, in alternating order, so the
    two lists see the same inputs and the same drift of the machine.
    """
    plain, traced = [], []
    i = 0
    with speed.Speedometer(TASK_INTERVAL_S) as speedo:
        while sum(r["raw_s"] for r in plain + traced) < seconds:
            inst = wl.make(np.random.default_rng([seed, 0, i]))
            runs = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
            for records, tr in reversed(runs) if i % 2 else runs:
                records.append(run_task(wl, inst, seed, i, speedo, tr))
            i += 1
    for r in plain + traced:  # a task too short for a sample takes the run's mean
        r["task_s"] = speed.correct(r["raw_s"], r["yard"] or speedo.samples)
    return plain, traced


def check(wl, records):
    """Attach references and misses; a failed task is also a miss."""
    for r in records:
        r["ref"] = wl.reference(r["inst"])
        r["miss"] = r["out"] is None or not all(  # written so that NaN misses
            abs(o - w) <= wl.tol for o, w in zip(r["out"], r["ref"])
        )
        if r["miss"] and r["out"] is not None:
            print(f"bench: task {r['index']} off by more than {wl.tol}: "
                  f"{r['out']} vs {r['ref']}", file=sys.stderr)


def throughput(records, key: str = "task_s") -> float:
    return sum(1 for r in records if r["error"] is None) / sum(r[key] for r in records)


# ---------------------------------------------------------------------------
# tracing


def instrument(tr):
    """Wrap each layer's public calls where their callers look them up."""
    from commsim import circuit, estimator, local2, paulisim, stabilizer, transformers

    c = tr.counts

    def add(key, value):
        c[key] += value

    def sandwich_done(res, args):
        m = args[1]
        add("estimator.terms", len(m.ops) if isinstance(m, estimator.Composition) else 1)
        add("estimator.samples", res.k)
        add("paulisim.branch_pairs", 1)
        tr.maxima["estimator.modulus_violation_max"] = max(
            tr.maxima["estimator.modulus_violation_max"], res.max_modulus_violation
        )

    def executor_done(res, args):
        add("oracle.executor_runs", 1)
        add("oracle.shots", args[2])
        if tr.inside("transformers.estimate"):
            add("transformers.subsets_distinct", 1)

    def n_tag(args):
        return f"n{args[0].n}"

    w = tr.wrap
    w(circuit, "parse_circuit", "circuit.parse")
    w(local2, "check_pairwise_commuting", "circuit.check", tag=n_tag,
      after=lambda r, a: add("circuit.check_pairs", len(a[0].gates) * (len(a[0].gates) - 1) // 2))
    w(local2, "simulate_2local", "local2.simulate", tag=n_tag)
    w(paulisim, "simulate_commuting_pauli", "paulisim.simulate")
    w(paulisim, "simulate_noncommuting_pauli", "paulisim.simulate")
    w(paulisim, "compile_commuting_pauli", "paulisim.compile")
    w(paulisim, "diagonalize_commuting_set", "stabilizer.diagonalize",
      after=lambda r, a: add("stabilizer.prep_gates", len(r[0])))
    w(paulisim, "evolve", "stabilizer.evolve", after=lambda r, a: add("stabilizer.evolve_calls", 1))
    w(paulisim, "estimate_monomial_sandwich", "estimator.sandwich", after=sandwich_done)
    w(stabilizer.CliffordTableau, "from_circuit", "stabilizer.tableau")
    w(stabilizer.StabilizerState, "sample_many", "stabilizer.sample")
    w(stabilizer.StabilizerState, "amplitudes_raw_many", "stabilizer.amplitudes",
      after=lambda r, a: add("stabilizer.amplitude_evals", len(a[1])))
    for cls in (estimator.Composition, estimator.PauliMonomial):
        w(cls, "eval_phase_many", "estimator.phase", reentrant=False)
    w(transformers, "estimate_cd_overlap", "transformers.estimate",
      after=lambda r, a: add("transformers.subset_draws", r.k))
    w(transformers, "estimate_cd_clifford_overlap", "transformers.estimate",
      after=lambda r, a: add("transformers.subset_draws", r.k))
    w(transformers, "two_layer_merge", "transformers.merge")
    w(transformers.DenseOracleExecutor, "run_counts", "oracle.executor", after=executor_done)


def layer_metrics(tr) -> dict:
    """Per-layer figures per traced task (per call for the local2 sizes)."""
    k = tr.tasks
    own = tr.self_times()
    layer = tr.layer_self()
    c = tr.counts
    m = {
        "circuit.parse_s": tr.inclusive("circuit.parse") / k,
        "circuit.check_s": tr.inclusive("circuit.check") / k,
        "circuit.check_pairs": c["circuit.check_pairs"] / k,
        "circuit.errors": c["circuit.errors"],
    }
    for n in (100, 200, 400):
        calls = tr.calls("local2.simulate", f"n{n}")
        m[f"local2.self_s.n{n}"] = own[("local2.simulate", f"n{n}")] / calls if calls else 0.0
    m.update({
        "stabilizer.self_s": layer["stabilizer"] / k,
        "stabilizer.diagonalize_s": tr.inclusive("stabilizer.diagonalize") / k,
        "stabilizer.tableau_s": tr.inclusive("stabilizer.tableau") / k,
        "stabilizer.prep_gates": c["stabilizer.prep_gates"] / k,
        "stabilizer.evolve_s": tr.inclusive("stabilizer.evolve") / k,
        "stabilizer.evolve_calls": c["stabilizer.evolve_calls"] / k,
        "stabilizer.sample_s": tr.inclusive("stabilizer.sample") / k,
        "stabilizer.amplitudes_s": tr.inclusive("stabilizer.amplitudes") / k,
        "stabilizer.amplitude_evals": c["stabilizer.amplitude_evals"] / k,
        "estimator.sandwich_s": layer["estimator"] / k,
        "estimator.phase_s": tr.inclusive("estimator.phase") / k,
        "estimator.terms": c["estimator.terms"] / k,
        "estimator.samples": c["estimator.samples"] / k,
        "estimator.modulus_violation_max": tr.maxima["estimator.modulus_violation_max"],
        "paulisim.compile_s": tr.inclusive("paulisim.compile") / k,
        "paulisim.self_s": layer["paulisim"] / k,
        "paulisim.branch_pairs": c["paulisim.branch_pairs"] / k,
        "oracle.executor_s": tr.inclusive("oracle.executor") / k,
        "oracle.executor_runs": c["oracle.executor_runs"] / k,
        "oracle.shots": c["oracle.shots"] / k,
        "transformers.self_s": layer["transformers"] / k,
        "transformers.merge_s": tr.inclusive("transformers.merge") / k,
        "transformers.subset_draws": c["transformers.subset_draws"] / k,
        "transformers.subsets_distinct": c["transformers.subsets_distinct"] / k,
    })
    distinct = c["transformers.subsets_distinct"]
    m["transformers.draws_per_subset"] = c["transformers.subset_draws"] / distinct if distinct else 0.0
    return m


LAYERS = ("circuit", "local2", "stabilizer", "estimator", "paulisim", "oracle", "transformers")


def layer_summary(wl, tr) -> list[str]:
    """Self time per layer, the dominant one against the prediction, the n sweep."""
    layer = tr.layer_self()
    incl = tr.layer_inclusive()
    task = tr.inclusive("task")
    lines = ["per traced task: layer self time, its share, and the share with callees"]
    for name in sorted(LAYERS, key=lambda n: -layer[n]):
        lines.append(f"  {name:<13} {layer[name] / tr.tasks:10.4f} s  {layer[name] / task:6.1%}"
                     f"  {incl[name] / task:6.1%}")
    lines.append(f"  {'(benchmark)':<13} {layer['task'] / tr.tasks:10.4f} s  {layer['task'] / task:6.1%}")
    top = max(LAYERS, key=lambda n: layer[n])
    verdict = "confirmed" if top == wl.predicted else f"differs (predicted {wl.predicted})"
    lines.append(f"dominant layer: {top} ({layer[top] / task:.1%}) -- {verdict}")
    if tr.calls("local2.simulate"):
        own = tr.self_times()
        for tag in sorted({s["tag"] for s in tr.spans if s["name"] == "local2.simulate"},
                          key=lambda t: int(t[1:])):
            calls = tr.calls("local2.simulate", tag)
            lines.append(
                f"  {tag}: local2 self {own[('local2.simulate', tag)] / calls * 1e3:8.3f} ms"
                f"   circuit.check {tr.inclusive('circuit.check', tag) / calls * 1e3:10.1f} ms"
            )
    return lines


# ---------------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_max", "_per_subset")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_probe is not None:
        probe_child(args.workload, args.seed, args.setup_probe)
        return 0
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    probes = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    wl = setup(args.workload, args.seed)
    tracer = None
    raw = {}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced = timed_phase(wl, args.seed, args.seconds, tracer)
        records = plain + traced
        check(wl, records)
        metrics = layer_metrics(tracer)
        metrics["trace.tasks_per_s"] = throughput(traced)
        metrics["trace.overhead_tasks_per_s"] = throughput(traced) - throughput(plain)
    else:
        records, _ = timed_phase(wl, args.seed, args.seconds)
        check(wl, records)
        metrics = {
            "setup_s": statistics.median(c for _, c in probes),
            "tasks_per_s": throughput(records),
            "task_s.p50": statistics.median(r["task_s"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw = {
            "setup_s": statistics.median(r for r, _ in probes),
            "tasks_per_s": throughput(records, "raw_s"),
            "task_s.p50": statistics.median(r["raw_s"] for r in records),
        }

    attempted = len(records)
    failed = sum(1 for r in records if r["error"] is not None)
    missed = sum(1 for r in records if r["miss"])

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}  tasks {attempted}"]
    if tracer is not None:
        lines += layer_summary(wl, tracer)
    for name, value in metrics.items():
        note = f"  (uncorrected {raw[name]:.6g})" if name in raw else ""
        lines.append(f"{name:<34} {value:14.6g} {unit_of(name)}{note}")
    lines.append(f"{'failed_frac':<34} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    lines.append(f"{'miss_frac':<34} {missed / attempted:14.6g} ratio  ({missed}/{attempted})")
    print("\n".join(lines))

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_probes_s": probes, "metrics": metrics,
            "uncorrected": raw,
            "failed_frac": failed / attempted, "miss_frac": missed / attempted,
            "tasks": [{k: r[k] for k in ("index", "task_s", "raw_s", "out", "ref", "miss", "error")}
                      for r in records],
        }, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")

    print(json.dumps({
        "correct": failed == 0 and missed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
