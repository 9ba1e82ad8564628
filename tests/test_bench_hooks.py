"""The benchmark still finds every library name it wraps or imports.

``bench/run.py --trace 1`` patches library functions by attribute name, so a
rename or deletion in the library breaks tracing without failing any other
test.  This imports the benchmark driver, installs its hooks and removes them,
and runs each workload's warm-up task against its reference.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from commsim import estimator, paulisim, transformers
from commsim.circuit import Circuit, NamedGate
from commsim.estimator import EstimatorConfig
from commsim.pauli import parse_pauli
from commsim.paulisim import ExtraGate, MemberGate, simulate_noncommuting_pauli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    # run.py pins BLAS threads through os.environ and imports its siblings
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import spans

    return run, spans


def _installed(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_instrument_wraps_and_restores(bench):
    run, spans = bench
    tr = spans.Tracer()
    try:
        run.instrument(tr)
        patches = list(tr._patches)
        assert patches
        for owner, attr, raw in patches:
            assert _installed(owner, attr) is not raw, attr
    finally:
        tr.restore()
    assert not tr._patches
    for owner, attr, raw in patches:
        assert _installed(owner, attr) is raw, attr


def test_overlap_estimators_open_one_span_each(bench):
    run, spans = bench
    u = Circuit(2, 2, [NamedGate("h", (0,))])
    cfg = EstimatorConfig(k_override=8)
    tr = spans.Tracer()
    run.instrument(tr)
    try:
        transformers.estimate_cd_overlap(u, cfg, transformers.DenseOracleExecutor(),
                                         np.random.default_rng(1))
    finally:
        tr.restore()
    assert tr.calls("transformers.estimate") == 1
    assert tr.counts["transformers.subset_draws"] == 8


def test_extras_simulator_reads_nonzero_counters(bench, monkeypatch):
    run, spans = bench
    program = [
        MemberGate(0.7, parse_pauli("ZZI")),
        ExtraGate(0.4, parse_pauli("XIZ")),
        MemberGate(1.1, parse_pauli("XXI")),
        ExtraGate(-1.2, parse_pauli("YYI")),
    ]
    # each pair's sample count, from under the hook that the tracer installs
    pair_ks = []

    def recorded(psi, m, phi, cfg, rng):
        pair_ks.append(cfg.k)
        return estimator.estimate_monomial_sandwich(psi, m, phi, cfg, rng)

    monkeypatch.setattr(paulisim, "estimate_monomial_sandwich", recorded)
    for k in (500, 5):
        pair_ks.clear()
        tr = spans.Tracer()
        run.instrument(tr)
        try:
            res = simulate_noncommuting_pauli(program, "011", 1, EstimatorConfig(k_override=k),
                                              np.random.default_rng(2))
        finally:
            tr.restore()
        assert tr.calls("estimator.phase") > 0
        assert tr.counts["estimator.samples"] == res.k == sum(pair_ks) == k
        # a pair with at least 2^3 samples reads its amplitudes on all 8
        # labels, once for phi and once for the images, a smaller pair on its
        # samples; building an amplitude table does not call the traced method
        evals = tr.counts["stabilizer.amplitude_evals"]
        assert evals == 2 * sum(min(kab, 8) for kab in pair_ks)
        assert (max(pair_ks) >= 8) == (k == 500)
        if k == 5:  # no pair tabulates: each sample is read twice
            assert evals == 2 * res.k
        assert tr.counts["stabilizer.evolve_calls"] == 1


def test_warmup_tasks_meet_their_references(bench):
    # the workloads use library names of their own (re-exports, constructor
    # arguments), which only running them checks
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        inst = wl.make(np.random.default_rng([9, 2]), warmup=True)
        out = wl.run(inst, np.random.default_rng([9, 3]))
        ref = wl.reference(inst)
        assert len(out) == len(ref), name
        assert all(abs(o - w) <= wl.tol for o, w in zip(out, ref)), (name, out, ref)
