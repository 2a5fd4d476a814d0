"""Quickstart: assemble, compile with predicating, and watch it run.

This walks the library's whole pipeline on a small kernel:

1. write a scalar program in the repro assembly dialect;
2. profile it and compile it with the *region predicating* model
   (the paper's mechanism: both branch arms speculated, side effects
   buffered in predicated state);
3. execute the scheduled VLIW code on the cycle-level machine and print a
   Table 1-style machine-state transition log;
4. compare cycles with the scalar baseline.

Run:  python examples/quickstart.py
"""

from repro.compiler.pipeline import compile_program, train_predictor
from repro.ir import build_cfg
from repro.isa import parse_program
from repro.machine.config import base_machine
from repro.machine.scalar import run_scalar
from repro.machine.vliw import VLIWMachine
from repro.sim.memory import Memory

SOURCE = """
# Sum b[a[i]] for even a[i], subtract for odd, over 32 elements.
    li   r1, 0           # i
    li   r2, 32          # n
    li   r3, 0           # acc
loop:
    ld   r4, r1, 100     # x = a[i]
    andi r5, r4, 1
    ceqi c0, r5, 1       # odd?
    br   c0, odd
    ld   r6, r4, 200     # even: acc += b[x]
    add  r3, r3, r6
    jmp  next
odd:
    ld   r7, r4, 200     # odd: acc -= b[x]
    sub  r3, r3, r7
next:
    addi r1, r1, 1
    clt  c1, r1, r2
    br   c1, loop
    out  r3
    halt
"""


def make_memory() -> Memory:
    memory = Memory()
    memory.write_block(100, [(7 * i + 3) % 32 for i in range(32)])  # a[]
    memory.write_block(200, [(5 * i + 1) % 97 for i in range(32)])  # b[]
    return memory


def main() -> None:
    program = parse_program(SOURCE, name="quickstart")
    cfg = build_cfg(program)
    config = base_machine()

    # Profile on one input, evaluate on the same one (a real setup would
    # use a separate training input; see repro.compiler.evaluate_model).
    predictor = train_predictor(program, cfg, make_memory())
    scalar = run_scalar(program, cfg, make_memory())

    compiled = compile_program(program, "region_pred", config, predictor)
    assert compiled.vliw is not None
    print("=== scheduled VLIW code (region predicating) ===")
    print(compiled.vliw.format())

    machine = VLIWMachine(
        compiled.vliw, config, make_memory(), record_events=True
    )
    result = machine.run()

    print("=== first iterations, Table 1 style ===")
    print(f"{'cycle':>5}  {'seq write':<12} {'spec write':<22} "
          f"{'commit':<12} {'squash':<12} ccr")
    for events in machine.events[:12]:
        spec = ", ".join(f"{n}@{p}" for n, p in events.speculative_writes)
        seq = ", ".join(f"r{r}" for r in events.sequential_writes)
        ccr = ", ".join(f"c{i}={'T' if v else 'F'}" for i, v in events.ccr_sets)
        print(f"{events.cycle:>5}  {seq:<12} {spec:<22} "
              f"{', '.join(events.committed):<12} "
              f"{', '.join(events.squashed):<12} {ccr}")

    print()
    print(f"scalar output        : {list(scalar.output)}")
    print(f"VLIW output          : {result.output}")
    assert list(scalar.output) == result.output, "semantics must match!"
    print(f"scalar cycles        : {scalar.cycles}")
    print(f"predicating cycles   : {result.cycles}")
    print(f"speedup              : {scalar.cycles / result.cycles:.2f}x")
    print(f"speculative issues   : {result.speculative_ops}")
    print(f"squashed at issue    : {result.squashed_ops}")


if __name__ == "__main__":
    main()
