"""The four paper programs and their reference answers.

Each program is a Verilog source from the paper, the compile options
and pins that pose its question, and a checker that judges the reads
the compiler certified.  The checkers recompute the answer in plain
Python from the problem statement -- arithmetic, the adjacency list,
brute force over the gate equations, a simulation of the counter --
and never call the compiler under test.

This module imports nothing from ``repro``, so the checkers can be
tested without the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Listing 6: a 4x4-bit multiplier, run backward to factor.
LISTING_6_MULT = """
module mult (A, B, C);
   input [3:0] A;
   input [3:0] B;
   output[7:0] C;
   assign C = A * B;
endmodule
"""

#: Listing 7: map colouring of Australia's states and territories.
LISTING_7_AUSTRALIA = """
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
   input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
   output valid;
   assign valid = WA != NT && WA != SA && NT != SA && NT != QLD
       && SA != QLD && SA != NSW && SA != VIC && QLD != NSW
       && NSW != VIC && NSW != ACT;
endmodule
"""

#: Figure 4 (Listing 5): a circuit-satisfiability instance.
LISTING_5_CIRCSAT = """
module circsat (a, b, c, y);
    input a, b, c;
    output y;
    wire [1:10] x;
    assign x[1] = a;
    assign x[2] = b;
    assign x[3] = c;
    assign x[4] = ~x[3];
    assign x[5] = x[1] | x[2];
    assign x[6] = ~x[4];
    assign x[7] = x[1] & x[2] & x[4];
    assign x[8] = x[5] | x[6];
    assign x[9] = x[6] | x[7];
    assign x[10] = x[8] & x[9] & x[7];
    assign y = x[10];
endmodule
"""

#: Listing 3: a sequential counter, unrolled over time steps.
LISTING_3_COUNTER = """
module count (clk, inc, reset, out);
    input clk;
    input inc;
    input reset;
    output [5:0] out;
    reg [5:0] var;
    always @(posedge clk)
      if (reset)
        var <= 0;
      else
        if (inc)
          var <= var + 1;
    assign out = var;
endmodule
"""

AUSTRALIA_REGIONS = ("NSW", "QLD", "SA", "VIC", "WA", "NT", "ACT")
#: The borders Listing 7 encodes (the same list as
#: ``benchmarks/conftest.py``; the self-test keeps them equal).
AUSTRALIA_ADJACENT = (
    ("WA", "NT"), ("WA", "SA"), ("NT", "SA"), ("NT", "QLD"),
    ("SA", "QLD"), ("SA", "NSW"), ("SA", "VIC"), ("QLD", "NSW"),
    ("NSW", "VIC"), ("NSW", "ACT"),
)

FACTOR_TARGET = 143
COUNTER_STEPS = 3
COUNTER_TARGET = 2


def word(values: Dict[str, bool], base: str) -> int:
    """The integer a read assigns to ``base`` (``A`` gathers ``A[0]``...)."""
    if base in values:
        return int(values[base])
    total = 0
    found = False
    prefix = base + "["
    for name, bit in values.items():
        if name.startswith(prefix) and name.endswith("]"):
            total |= int(bit) << int(name[len(prefix):-1])
            found = True
    if not found:
        raise KeyError(f"read assigns no variable {base!r}")
    return total


def circsat_outputs(a: int, b: int, c: int) -> int:
    """Figure 4's gate equations, evaluated in Python."""
    x1, x2, x3 = a, b, c
    x4 = 1 - x3
    x5 = x1 | x2
    x6 = 1 - x4
    x7 = x1 & x2 & x4
    x8 = x5 | x6
    x9 = x6 | x7
    return x8 & x9 & x7


def counter_output(incs: Sequence[int], resets: Sequence[int]) -> int:
    """Listing 3's register after ``len(incs)`` clock edges from 0."""
    var = 0
    for inc, reset in zip(incs, resets):
        if reset:
            var = 0
        elif inc:
            var = (var + 1) % 64
    return var


#: Brute force over all 8 inputs: the assignments that make ``y`` true.
CIRCSAT_ANSWERS = frozenset(
    abc for abc in itertools.product((0, 1), repeat=3) if circsat_outputs(*abc)
)
#: The inc pulses on the two edges before step 2 that count to 2.
COUNTER_ANSWERS = frozenset(
    incs
    for incs in itertools.product((0, 1), repeat=COUNTER_STEPS - 1)
    if counter_output(incs, (0,) * len(incs)) == COUNTER_TARGET
)


def _factor_check(read: Dict[str, bool]) -> Tuple[bool, bool]:
    a, b, c = word(read, "A"), word(read, "B"), word(read, "C")
    ok = c == FACTOR_TARGET and a * b == FACTOR_TARGET
    return ok, ok


def _australia_check(read: Dict[str, bool]) -> Tuple[bool, bool]:
    colors = {region: word(read, region) for region in AUSTRALIA_REGIONS}
    proper = all(colors[a] != colors[b] for a, b in AUSTRALIA_ADJACENT)
    # valid := true is pinned, so a certified read claims a proper colouring.
    return proper and word(read, "valid") == 1, proper


def _circsat_check(read: Dict[str, bool]) -> Tuple[bool, bool]:
    abc = (word(read, "a"), word(read, "b"), word(read, "c"))
    ok = word(read, "y") == 1 and abc in CIRCSAT_ANSWERS
    return ok, ok


def _counter_check(read: Dict[str, bool]) -> Tuple[bool, bool]:
    incs = tuple(word(read, f"inc@{t}") for t in range(COUNTER_STEPS - 1))
    out = word(read, f"out@{COUNTER_STEPS - 1}")
    ok = out == COUNTER_TARGET and incs in COUNTER_ANSWERS
    return ok, ok


@dataclass(frozen=True)
class PaperProgram:
    """One paper program: source, how it is compiled and pinned, and
    how a certified read is judged.

    ``check(read)`` returns ``(consistent, answer)``: whether the read
    agrees with the reference, and whether it is the reference answer.
    """

    name: str
    source: str
    pins: Tuple[str, ...]
    check: Callable[[Dict[str, bool]], Tuple[bool, bool]]
    compile_options: Dict[str, int] = field(default_factory=dict)

    def judge(self, reads: List[Dict[str, bool]]) -> Tuple[bool, bool]:
        """``(contradiction, answered)`` over an op's certified reads."""
        verdicts = [self.check(read) for read in reads]
        contradiction = any(not consistent for consistent, _ in verdicts)
        answered = any(answer for _, answer in verdicts)
        return contradiction, answered


#: The mix, in the fixed order every round runs it.
PROGRAMS = (
    PaperProgram(
        "factor143", LISTING_6_MULT, (f"C[7:0] := {FACTOR_TARGET}",), _factor_check
    ),
    PaperProgram(
        "australia", LISTING_7_AUSTRALIA, ("valid := true",), _australia_check
    ),
    PaperProgram("circsat", LISTING_5_CIRCSAT, ("y := true",), _circsat_check),
    PaperProgram(
        "counter",
        LISTING_3_COUNTER,
        tuple(f"reset@{t} := 0" for t in range(COUNTER_STEPS))
        + (f"out@{COUNTER_STEPS - 1}[5:0] := {COUNTER_TARGET}",),
        _counter_check,
        {"unroll_steps": COUNTER_STEPS, "initial_state": 0},
    ),
)
