"""Command-line interface: ``verilog2qmasm``.

Compiles a Verilog file to QMASM (and optionally runs it), mirroring
the paper's toolchain invocation style, including ``--pin``::

    verilog2qmasm mult.v --pin "C[7:0] := 10001111" --run --solver sa

Pipeline introspection flags:

``--time-passes``
    print the per-stage wall-time/counter table for the compilation
    (and, with ``--run``, the execution) pass pipeline.
``--stats``
    print the Section 6.1 static properties of the compilation.
``--no-cache``
    bypass the compilation and embedding caches.

Observability flags (see ``repro.core.trace``):

``--trace out.json``
    record hierarchical spans for every compile/run stage (plus solver
    and embedding internals) and write a Chrome ``trace_event`` file,
    viewable in ``about:tracing`` or https://ui.perfetto.dev.
``--metrics``
    print the process metrics summary (counters, gauges, histograms)
    to stderr after the command finishes.

``python -m repro run design.v ...`` is accepted as sugar for
``python -m repro design.v ... --run``.

``python -m repro serve --port 8000 --workers 4`` mounts the same
pipeline behind the long-lived HTTP/JSON job service
(:mod:`repro.service`): asynchronous jobs, shared compile/embedding
caches, per-tenant rate limits, ``/healthz`` and ``/metrics``.

Fault-injection and deadline flags (see ``repro.core.faults`` and
``repro.core.deadline``):

``--inject-fault SPEC``
    deterministically damage the simulated machine, e.g.
    ``--inject-fault 'dead_qubits=5%,fail_first=2,seed=7'`` kills 5% of
    qubits and makes the first two sample calls fail.  Repeatable; later
    specs override earlier keys.
``--deadline SECONDS``
    wall-clock budget for the whole run; samplers stop cooperatively
    at sweep-batch granularity and the run exits 4 if the budget
    expires before a usable result exists.

The compile and run flags (``--steps``, ``--solver``, ``--num-reads``,
``--retries``, ``--certify``, ...) are generated from the options
schema (:mod:`repro.core.options`): each knob's flag, help text and
bounds are declared once, on its :class:`CompileOptions`,
:class:`~repro.qmasm.runner.RunOptions` or
:class:`~repro.qmasm.runner.RetryPolicy` field, and an out-of-range
value exits 1 with a one-line ``error: --<flag>: ...``.

Exit codes: 0 success; 1 generic error; 2 usage/pin diagnostics or no
valid solutions; 3 certification failure; 4 deadline exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import options as _options
from repro.core.compiler import CompileOptions, VerilogAnnealerCompiler
from repro.core.faults import parse_fault_spec
from repro.qmasm.runner import RetryPolicy, RunOptions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verilog2qmasm",
        description=(
            "Compile classical Verilog code to a quadratic pseudo-Boolean "
            "function and (optionally) minimize it on a simulated quantum "
            "annealer.  Reproduction of Pakin, ASPLOS 2019."
        ),
    )
    parser.add_argument("source", help="Verilog source file ('-' for stdin)")
    parser.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="'VAR := VALUE'",
        help="pin a variable, e.g. --pin 'C[7:0] := 10001111' (repeatable)",
    )
    parser.add_argument(
        "--emit",
        choices=["qmasm", "edif", "stats", "qubo"],
        default="qmasm",
        help=(
            "artifact to print when not running: the QMASM program, the "
            "EDIF netlist, compile statistics, or a qbsolv-format .qubo "
            "file (default: qmasm)"
        ),
    )
    parser.add_argument("--run", action="store_true", help="execute the program")
    # Compile, run and retry knobs: flags, help and bounds come from
    # the options schema (repro.core.options); the CLI reads more by
    # default than the library does.
    _options.add_arguments(parser, CompileOptions)
    _options.add_arguments(parser, RunOptions, defaults={"num_reads": 1000})
    _options.add_arguments(parser, RetryPolicy)
    from repro.hardware.registry import available_topologies

    parser.add_argument(
        "--topology",
        choices=list(available_topologies()),
        default="chimera",
        help="hardware graph family for the simulated annealer "
        "(default: chimera, the 2000Q's)",
    )
    parser.add_argument(
        "--topology-size",
        type=int,
        default=None,
        metavar="M",
        help="grid parameter for --topology (default: the family's "
        "flagship chip, e.g. C16/P16/Z15)",
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=4,
        metavar="N",
        help="simulated fleet size for --solver shard (default: 4)",
    )
    parser.add_argument(
        "--fleet",
        metavar="SPEC",
        default=None,
        help=(
            "heterogeneous fleet for --solver shard: comma-separated "
            "FAMILY[SIZE] tokens, e.g. 'C16,P8,Z6' (families by name, "
            "prefix, or letter code); overrides --machines"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist shard-solver state into DIR after every stitch "
            "round (crash-safe; enables --resume)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted --solver shard run from its "
            "--checkpoint-dir checkpoint (bit-identical continuation)"
        ),
    )
    parser.add_argument("--seed", type=int, help="RNG seed for reproducibility")
    parser.add_argument(
        "--all-solutions",
        action="store_true",
        help="print every distinct solution, not just valid ones",
    )
    parser.add_argument(
        "--time-passes",
        action="store_true",
        help="print per-stage wall times and artifact counters",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the compilation's static properties (Section 6.1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the compilation and embedding caches",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "damage the simulated machine deterministically, e.g. "
            "'dead_qubits=5%%,fail_first=2,seed=7' (keys: dead_qubits, "
            "dead_couplers, fail_first, fail_rate, drop_rate, "
            "break_chains, read_corruption, seed; repeatable); "
            "machine_crash/machine_straggler/machine_flaky clauses "
            "(e.g. 'machine_crash=1:3,machine_flaky=0:30%%') drive the "
            "--solver shard fleet's chaos plan"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the run; exit 4 with the "
        "interrupted stage named if it expires",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record a hierarchical execution trace and write it as a "
            "Chrome trace_event JSON file (open in about:tracing or "
            "https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the process metrics summary (counters, gauges, "
        "histograms) after the command finishes",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``python -m repro run design.v ...`` is sugar for ``design.v ...
    # --run`` -- the paper's compile-then-execute flow as a subcommand.
    if argv and argv[0] == "run":
        argv = list(argv[1:]) + ["--run"]
    # ``python -m repro serve ...`` mounts the whole pipeline behind the
    # long-lived HTTP job service (repro.service).
    if argv and argv[0] == "serve":
        from repro.service.app import serve_main

        return serve_main(list(argv[1:]))
    args = build_parser().parse_args(argv)

    from repro.core import trace as _trace

    if args.trace or args.metrics:
        _trace.install()
    try:
        return _run_command(args)
    finally:
        if args.trace:
            _trace.tracer().write_chrome_trace(args.trace)
        if args.metrics:
            print(_trace.metrics().render_summary(), file=sys.stderr)
        if args.trace or args.metrics:
            _trace.uninstall()


def _run_command(args: argparse.Namespace) -> int:
    try:
        compile_options = _options.from_args(CompileOptions, args)
        run_options = _options.from_args(
            RunOptions,
            args,
            certify=args.certify or args.repair,
            retry_policy=_options.from_args(RetryPolicy, args),
        )
    except _options.OptionError as exc:
        print(f"error: {exc.flag or exc.name}: {exc.reason}", file=sys.stderr)
        return 1
    if args.topology_size is not None and args.topology_size < 1:
        print(f"error: --topology-size: must be >= 1, got {args.topology_size}", file=sys.stderr)
        return 1

    try:
        if args.source == "-":
            source = sys.stdin.read()
        else:
            with open(args.source, "r", encoding="utf-8") as handle:
                source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: {args.source}: {reason}", file=sys.stderr)
        return 1

    machine = None
    spec = None
    if args.inject_fault:
        try:
            for text in args.inject_fault:
                spec = parse_fault_spec(text, base=spec)
        except ValueError as exc:
            print(f"error: --inject-fault: {exc}", file=sys.stderr)
            return 1
    if spec is not None or args.topology != "chimera" or args.topology_size is not None:
        from repro.solvers.machine import DWaveSimulator, MachineProperties

        props = MachineProperties(topology=args.topology, cells=args.topology_size)
        machine = DWaveSimulator(
            properties=props, seed=args.seed, faults=spec
        )

    if args.fleet is not None:
        from repro.solvers.fleet import parse_fleet_spec

        try:
            parse_fleet_spec(args.fleet)
        except ValueError as exc:
            print(f"error: --fleet: {exc}", file=sys.stderr)
            return 1
    if args.resume and args.checkpoint_dir is None:
        print(
            "error: --resume needs --checkpoint-dir (the directory the "
            "interrupted run checkpointed into)",
            file=sys.stderr,
        )
        return 1

    compiler = VerilogAnnealerCompiler(
        machine=machine,
        seed=args.seed,
        cache=not args.no_cache,
        machines=args.machines,
        fleet=args.fleet,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    try:
        program = compiler.compile(source, compile_options)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.stats:
        from repro.core.report import format_compile_summary

        print(format_compile_summary(program))

    if not args.run:
        if args.time_passes:
            from repro.core.report import format_pass_table

            print(format_pass_table(program.stats, title="compile passes:"))
        if args.stats or args.time_passes:
            return 0
        if args.emit == "qmasm":
            print(program.qmasm_source)
        elif args.emit == "edif":
            print(program.edif_text)
        elif args.emit == "qubo":
            from repro.qmasm.qubo_format import write_qubo_file

            model, _ = program.logical.to_ising(apply_pins=False)
            print(
                write_qubo_file(
                    model,
                    comments=[f"compiled from module {program.netlist.name}"],
                ),
                end="",
            )
        else:
            from repro.core.report import format_compile_summary

            print(format_compile_summary(program))
        return 0

    code = _validate_pins(args.pin, program)
    if code:
        return code

    from repro.core.deadline import DeadlineExceeded

    try:
        result = compiler.run(
            program, args.pin, run_options, deadline=args.deadline
        )
    except DeadlineExceeded as exc:
        print(
            f"error: deadline of {exc.budget_s:.3g}s exceeded after "
            f"{exc.elapsed_s:.3g}s in stage {exc.stage}",
            file=sys.stderr,
        )
        return 4
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    solutions = result.solutions if args.all_solutions else result.valid_solutions
    if not solutions:
        print("no valid solutions found; try more reads", file=sys.stderr)
        return 2
    from repro.core.report import format_run_result

    print(format_run_result(result, valid_only=not args.all_solutions))
    if args.time_passes:
        from repro.core.report import format_pass_table

        print()
        print(format_pass_table(program.stats, title="compile passes:"))
        print()
        print(format_pass_table(result.stats, title="run passes:"))
    if run_options.certify and result.certificate is not None:
        print(f"certificate: {result.certificate.summary()}")
        if not result.certificate.ok:
            print(
                "error: certification failed: "
                f"{result.certificate.summary()}",
                file=sys.stderr,
            )
            return 3
    return 0


def _validate_pins(pin_texts, program) -> int:
    """Pre-validate ``--pin`` options before the run pipeline starts.

    Returns 0 when everything checks out, 2 with a one-line structured
    diagnostic on stderr otherwise (same formatting as the Verilog
    frontend's errors, see :func:`repro.hdl.errors.format_diagnostic`).
    """
    from repro.hdl.errors import format_diagnostic
    from repro.qmasm.parser import parse_pin
    from repro.qmasm.program import QmasmError

    known = program.logical.variables
    for text in pin_texts:
        try:
            pin = parse_pin(text)
        except QmasmError as exc:
            print(
                "error: "
                + format_diagnostic(str(exc), source=f"--pin {text!r}"),
                file=sys.stderr,
            )
            return 2
        unknown = sorted(v for v in pin.assignments if v not in known)
        if unknown:
            visible = program.logical.visible_variables()
            print(
                "error: "
                + format_diagnostic(
                    f"unknown variable(s) {', '.join(unknown)}; "
                    f"known: {', '.join(visible)}",
                    source=f"--pin {text!r}",
                ),
                file=sys.stderr,
            )
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
