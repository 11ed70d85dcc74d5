"""repro: Targeting Classical Code to a Quantum Annealer.

A faithful, self-contained reproduction of Pakin's ASPLOS 2019 compiler
pipeline: classical Verilog code is lowered to a digital circuit, to an
EDIF netlist, to QMASM, to a logical quadratic pseudo-Boolean function,
and finally minor-embedded onto a (simulated) D-Wave 2000Q whose
annealing returns the function-minimizing Booleans.  Because the
compiled artifact is a relation rather than a function, programs run
forward (inputs to outputs) or backward (outputs to inputs), turning
NP-problem verifiers into approximate solvers.

Quickstart::

    from repro import run_verilog

    MULT = '''
    module mult (A, B, C);
       input [3:0] A;
       input [3:0] B;
       output[7:0] C;
       assign C = A * B;
    endmodule
    '''
    result = run_verilog(MULT, pins=["C[7:0] := 10001111"],  # 143
                         solver="sa", num_reads=2000, seed=0)
    best = result.valid_solutions[0]
    print(best.value_of("A"), best.value_of("B"))   # 11 x 13 (or 13 x 11)

The same pipeline is servable: ``python -m repro serve --port 8000``
starts the annealing-as-a-service HTTP/JSON job API
(:mod:`repro.service`) -- asynchronous jobs over a bounded worker pool,
compile/embedding caches shared across requests, per-tenant rate
limits, and ``/healthz`` + ``/metrics`` endpoints.
"""

from repro.core.compiler import (
    CompiledProgram,
    CompileOptions,
    VerilogAnnealerCompiler,
    compile_verilog,
    run_verilog,
)
from repro.core.faults import FaultSpec, TransientSolverError, parse_fault_spec
from repro.ising.model import IsingModel
from repro.qmasm.runner import QmasmRunner, RetryPolicy, RunOptions, RunResult, Solution
from repro.solvers.machine import DWaveSimulator, MachineProperties

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "CompileOptions",
    "VerilogAnnealerCompiler",
    "compile_verilog",
    "run_verilog",
    "FaultSpec",
    "TransientSolverError",
    "parse_fault_spec",
    "IsingModel",
    "QmasmRunner",
    "RetryPolicy",
    "RunOptions",
    "RunResult",
    "Solution",
    "DWaveSimulator",
    "MachineProperties",
    "__version__",
]
