"""The paper workloads: Verilog source to certified answers.

One op takes one paper program from source to certified solutions
through the public library API: a fresh
``VerilogAnnealerCompiler(seed=op_seed)``, ``compile``, then ``run`` on
the dwave tier with 100 reads and ``certify=True``.  Ops run one at a
time, the four programs interleaved in a fixed order, so that a slow
minute of the machine lands on every program alike.

* ``paper-cold``: every op starts from empty compile and embedding
  caches, as a one-shot CLI user does.  The embedder dominates.
* ``paper-warm``: set-up compiles and embeds each program once into
  caches the benchmark owns; every op then runs on them.  Sampling
  dominates, and the embedder is out of the loop.

The workload seed draws each op's sample seed.  The embedding seed is
one constant for every op, so every run searches the same embeddings
and an op's cost does not hinge on how many embedder restarts its seed
happens to need.
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import VerilogAnnealerCompiler
from repro.core.compiler import CompileOptions
from repro.solvers.machine import DWaveSimulator

import calibrate
import spans
import startup
from programs import PROGRAMS, PaperProgram

SOLVER = "dwave"
NUM_READS = 100
EMBEDDING_SEED = 0
#: Quality metrics cover the first rounds only: a fixed op list, so
#: they repeat exactly for a seed however many ops the time allows.
QUALITY_ROUNDS = 2
#: Set-up repeats (the median is reported); the warm fill costs ~7 s.
COLD_SETUP_REPEATS = 5
WARM_SETUP_REPEATS = 3

_BY_NAME = {program.name: program for program in PROGRAMS}
_SHORT = ("circsat", "counter")
#: One round of the mix.  The short programs run twice per round: a
#: scheduler hiccup moves a 0.4 s op by a larger share, so their
#: medians need more ops.
MIX = tuple(
    _BY_NAME[name] for name in ("factor143", *_SHORT, "australia", *_SHORT)
)
#: A start-up probe follows each of these ops, so the probes sample the
#: same stretch of machine time the ops do.
PROBE_AFTER = ("factor143", "australia")

#: Per-layer self times reported as seconds per traced op.
STAGE_TIME_METRICS = (
    "hdl.elaborate",
    "synth.optimize",
    "synth.techmap",
    "synth.unroll",
    "edif.emit",
    "edif.roundtrip",
    "edif2qmasm.translate",
    "qmasm.assemble",
    "hardware.scale",
    "solvers.sample",
    "qmasm.unembed",
    "qmasm.postprocess",
    "qmasm.certify",
)


@dataclass
class Op:
    """One op's outcome; ``error`` is set when it raised."""

    index: int
    round: int
    program: PaperProgram
    seed: int
    traced: bool
    wall_s: float = 0.0
    compiled: Any = None
    result: Any = None
    error: Optional[str] = None
    contradiction: bool = False
    answered: bool = False
    certified: int = 0
    reads: int = 0
    physical_qubits: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.contradiction


@dataclass
class Caches:
    compile: spans.TimedCompilationCache = field(
        default_factory=spans.TimedCompilationCache
    )
    embedding: spans.TimedEmbeddingCache = field(
        default_factory=spans.TimedEmbeddingCache
    )

    def set_tracer(self, tracer: Optional[spans.Tracer]) -> None:
        self.compile.tracer = tracer
        self.embedding.tracer = tracer


def _compiler(seed: int, caches: Caches) -> VerilogAnnealerCompiler:
    compiler = VerilogAnnealerCompiler(seed=seed, cache=caches.compile)
    compiler.runner.embedding_cache = caches.embedding
    return compiler


def _compile(compiler: VerilogAnnealerCompiler, program: PaperProgram):
    return compiler.compile(program.source, CompileOptions(**program.compile_options))


def certified_reads(result) -> List[Dict[str, bool]]:
    """Every certified read of ``result``, over all program variables."""
    sampleset = result.sampleset
    fixed = result.fixed_spins
    reads = []
    for check in result.certificate.reads:
        if not check.certified:
            continue
        spins = dict(fixed)
        spins.update(
            zip(sampleset.variables, (int(s) for s in sampleset.records[check.index]))
        )
        full = result.logical.expand_sample(spins, result.representative)
        for variable, rep in result.representative.items():
            if rep in fixed:
                full[variable] = fixed[rep]
        reads.append({name: spin > 0 for name, spin in full.items()})
    return reads


def run_op(op: Op, caches: Caches, tracer: Optional[spans.Tracer]) -> None:
    """Source to certified solutions; the wall time covers nothing else."""
    start = time.perf_counter()
    compiler = _compiler(op.seed, caches)
    if tracer is not None:
        spans.install(compiler, tracer)
    op.compiled = _compile(compiler, op.program)
    op.result = compiler.run(
        op.compiled,
        pins=list(op.program.pins),
        solver=SOLVER,
        num_reads=NUM_READS,
        certify=True,
        embedding_seed=EMBEDDING_SEED,
    )
    op.wall_s = time.perf_counter() - start


def judge(op: Op) -> None:
    """Check the op's certified reads against the Python reference."""
    certificate = op.result.certificate
    op.certified = certificate.certified_reads
    op.reads = certificate.total_reads
    op.physical_qubits = op.result.num_physical_qubits()
    op.contradiction, op.answered = op.program.judge(certified_reads(op.result))
    if op.contradiction:
        print(
            f"op {op.index} ({op.program.name}, seed {op.seed}): a certified "
            "read contradicts the reference answer",
            file=sys.stderr,
        )


def fill(caches: Caches) -> None:
    """Compile and embed every program once into ``caches``.

    The run that embeds samples only one short read: the embedding
    cache key ignores reads and annealing time.
    """
    for program in PROGRAMS:
        compiler = _compiler(0, caches)
        compiler.run(
            _compile(compiler, program),
            pins=list(program.pins),
            solver=SOLVER,
            num_reads=1,
            annealing_time_us=1.0,
            postprocess="none",
            embedding_seed=EMBEDDING_SEED,
        )


def prepare() -> None:
    """The per-process work every cold op shares: load every compile
    layer's code and build one C16 machine."""
    compiler = VerilogAnnealerCompiler(seed=0)
    for program in PROGRAMS:
        _compile(compiler, program)
    DWaveSimulator(seed=0)


def setup(warm: bool) -> Tuple[List[float], List[float], Optional[Caches]]:
    """Run set-up several times: the times, the calibration kernels run
    after each, and the last set-up's caches."""
    times: List[float] = []
    kernels: List[float] = []
    caches = None
    for _ in range(WARM_SETUP_REPEATS if warm else COLD_SETUP_REPEATS):
        start = time.perf_counter()
        if warm:
            caches = Caches()
            fill(caches)
        else:
            prepare()
        times.append(time.perf_counter() - start)
        kernels.append(calibrate.kernel_s())
    return times, kernels, caches


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, src_dir: str, root: str
) -> Dict[str, Any]:
    warm = name == "paper-warm"
    setup_times, setup_kernels, shared = setup(warm)
    tracer = spans.Tracer() if trace else None
    rng = random.Random(seed)
    ops: List[Op] = []
    probes: List[Any] = []
    kernels: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        round_, slot = divmod(len(ops), len(MIX))
        if round_ >= QUALITY_ROUNDS and time.perf_counter() >= deadline:
            break
        # A traced run alternates untraced and traced rounds, so the
        # tracing overhead is measured within one run.
        traced = trace and round_ % 2 == 1
        op = Op(len(ops), round_, MIX[slot], rng.randrange(2**31), traced)
        ops.append(op)
        caches = shared if warm else Caches()
        caches.set_tracer(tracer if traced else None)
        try:
            if traced:
                tracer.op = op.index
                with tracer.span("op", program=op.program.name):
                    run_op(op, caches, tracer)
            else:
                run_op(op, caches, None)
            judge(op)
            if not traced:  # keep memory flat: only traced ops are read later
                op.compiled = op.result = None
        except Exception:  # an op that raises is a failed op, not a crash
            op.error = traceback.format_exc()
            print(op.error, file=sys.stderr)
        finally:
            caches.set_tracer(None)
            if tracer is not None:
                tracer.op = None
        kernels.append(calibrate.kernel_s())
        if op.program.name in PROBE_AFTER:
            if trace:
                probes.append(startup.import_breakdown(src_dir, root))
            else:
                probes.append(startup.cli_start_s(src_dir, root))

    failed = sum(op.failed for op in ops)
    _report(name, ops, kernels)
    if trace:
        metrics = layer_metrics(ops, tracer, probes, kernels)
    else:
        setup_s = statistics.median(setup_times) * calibrate.scale(setup_kernels)
        metrics = end_to_end_metrics(ops, setup_s, probes, calibrate.scale(kernels))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def _ok(ops: List[Op]) -> List[Op]:
    return [op for op in ops if op.error is None]


def end_to_end_metrics(
    ops: List[Op], setup_s: float, cli: List[Tuple[float, float]], speed: float
) -> Dict[str, Dict[str, Any]]:
    """The user-facing metrics; op times are scaled by ``speed`` (and
    ``setup_s`` already is) to the reference machine speed, and CLI
    starts by the bare interpreter start next to each."""
    quality = [op for op in ops if op.round < QUALITY_ROUNDS]
    done = _ok(quality)
    metrics = {"setup_s": (setup_s, "s")}
    for program in PROGRAMS:
        walls = [op.wall_s for op in _ok(ops) if op.program is program]
        metrics[f"solve_s.{program.name}"] = (_median(walls) * speed, "s")
    metrics["certified_frac"] = (
        sum(op.certified for op in done) / max(1, sum(op.reads for op in done)),
        "frac",
    )
    metrics["answer_frac"] = (
        sum(op.answered and not op.failed for op in quality) / len(quality),
        "frac",
    )
    metrics["physical_qubits"] = (
        _mean([op.physical_qubits for op in done]),
        "count",
    )
    metrics["cli_start_s"] = (calibrate.start_s(cli), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _counter(result, stage: str, key: str) -> float:
    if stage not in result.stats:
        return 0.0
    value = result.stats[stage].counters.get(key, 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def layer_metrics(
    ops: List[Op],
    tracer: spans.Tracer,
    imports: List[Dict[str, float]],
    kernels: List[float],
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced ops, in measured seconds."""
    traced = [op for op in _ok(ops) if op.traced]
    plain = [op for op in _ok(ops) if not op.traced]
    n = max(1, len(traced))
    own = tracer.self_times()
    by_op = {op.index: op for op in traced}

    layer_self: Dict[str, float] = {}
    embed_s: Dict[int, float] = {}
    embed_kind: Dict[int, str] = {}
    cache_gets: Dict[str, List[Tuple[float, bool]]] = {"compile": [], "embedding": []}
    read_sweeps = 0
    compiler_s: List[float] = []
    coverage: List[float] = []
    for span, self_s in zip(tracer.spans, own):
        if span.op not in by_op:
            continue
        layer_self[span.name] = layer_self.get(span.name, 0.0) + self_s
        if span.name == "op":
            compiler_s.append(self_s)
            coverage.append(1.0 - self_s / span.duration)
        elif span.name == "hardware.find_embedding":
            embed_s[span.op] = embed_s.get(span.op, 0.0) + span.duration
            if "cache" in span.attrs:
                embed_kind[span.op] = span.attrs["cache"]
        elif span.name == "solvers.sample":
            read_sweeps += span.attrs.get("read_sweeps", 0)
        elif span.name.endswith("_get") and span.name.startswith("core.cache."):
            kind = span.name[len("core.cache."):-len("_get")]
            cache_gets.setdefault(kind, []).append(
                (span.duration, span.attrs.get("hit", False))
            )

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in STAGE_TIME_METRICS:
        metrics[layer + "_s"] = (layer_self.get(layer, 0.0) / n, "s")
    misses = [i for i, kind in embed_kind.items() if kind == "miss"]
    hits = [i for i, kind in embed_kind.items() if kind == "hit"]
    metrics["hardware.find_embedding_miss_s"] = (
        _mean([embed_s[i] for i in misses]),
        "s",
    )
    metrics["hardware.find_embedding_hit_s"] = (_mean([embed_s[i] for i in hits]), "s")
    metrics["hardware.embed_restarts"] = (
        _mean([_counter(by_op[i].result, "find_embedding", "restarts") for i in misses]),
        "count",
    )
    results = [op.result for op in traced]
    for key, stage, counter in (
        ("hardware.physical_qubits", "find_embedding", "physical_qubits"),
        ("hardware.max_chain", "find_embedding", "max_chain"),
        ("hardware.physical_couplers", "scale_to_hardware", "physical_couplers"),
        ("solvers.sample_attempts", "sample", "sample_attempts"),
    ):
        metrics[key] = (_mean([_counter(r, stage, counter) for r in results]), "count")
    sample_s = layer_self.get("solvers.sample", 0.0)
    metrics["solvers.sweeps_per_s"] = (
        read_sweeps / sample_s if sample_s > 0 else 0.0,
        "1/s",
    )
    metrics["qmasm.chain_break_frac"] = (
        _mean([float(r.info.get("chain_break_fraction", 0.0)) for r in results]),
        "frac",
    )
    metrics["synth.cells"] = (
        _mean([op.compiled.netlist.num_cells() for op in traced]),
        "count",
    )
    metrics["qmasm.logical_variables"] = (
        _mean([r.num_logical_variables() for r in results]),
        "count",
    )
    for kind in ("compile", "embedding"):
        gets = cache_gets.get(kind, [])
        metrics[f"core.cache.{kind}_get_s"] = (_mean([d for d, _ in gets]), "s")
        metrics[f"core.cache.{kind}_hit_ratio"] = (
            _mean([1.0 if hit else 0.0 for _, hit in gets]),
            "frac",
        )
    metrics["core.compiler_s"] = (_mean(compiler_s), "s")
    for key in ("total", *startup.IMPORT_PACKAGES):
        metrics[f"import.{key}_s"] = (_median([i[key] for i in imports]), "s")
    metrics["trace.stage_coverage"] = (_median(coverage), "frac")
    overheads = []
    for program in PROGRAMS:
        t = [op.wall_s for op in traced if op.program is program]
        u = [op.wall_s for op in plain if op.program is program]
        if t and u:
            overheads.append(_median(t) / _median(u) - 1.0)
    metrics["trace.overhead_frac"] = (_median(overheads), "frac")
    metrics["machine.kernel_s"] = (_median(kernels), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _report(name: str, ops: List[Op], kernels: List[float]) -> None:
    """A per-program summary on stderr: op count and measured wall-time
    quartiles, before any scaling."""
    print(
        f"{name}: {len(ops)} ops; calibration kernel median "
        f"{_median(kernels):.4f} s, speed scale {calibrate.scale(kernels):.3f}",
        file=sys.stderr,
    )
    for program in PROGRAMS:
        walls = sorted(op.wall_s for op in _ok(ops) if op.program is program)
        if not walls:
            continue
        quartiles = (
            statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        )
        print(
            f"  {program.name:<10} n={len(walls):<3} "
            + " ".join(f"{q:.3f}" for q in quartiles)
            + " s (quartiles)",
            file=sys.stderr,
        )
