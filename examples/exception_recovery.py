"""Speculative exceptions and future-condition recovery (Section 3.5).

The paper's motivating unsafe motion: a loop walking a linked list wants
to dereference the node *before* knowing whether the pointer is NULL.
Predicating hoists the control-dependent loads above the NULL test; on
the last iteration the speculative load dereferences NULL and faults.
The fault is buffered with the E flag and its predicate:

* when the continue-path predicate commits FALSE (the normal last
  iteration) the exception is squashed -- the program never sees it,
  which is exactly the motion compiler-only schemes must forgo;
* with a demand-paged memory, a *committed* speculative fault rolls the
  machine back to the region top (RPC) in recovery mode, re-executes
  under the current condition, decides the re-raised fault against the
  future condition (invoking the pager), and resumes -- the full
  Section 3.5 machinery, observable in the run statistics.

Run:  python examples/exception_recovery.py
"""

from repro.compiler.pipeline import compile_program, train_predictor
from repro.core.exceptions import FaultKind
from repro.ir import build_cfg
from repro.isa import parse_program
from repro.machine.config import base_machine
from repro.machine.scalar import run_scalar
from repro.machine.vliw import VLIWMachine
from repro.sim.memory import Memory

# A linked list in memory: node = [value, next]; next == 0 terminates.
# The NULL test sits at the loop top, so the dereferences are control
# dependent on it -- the shape whose speculation needs E-flag buffering.
LIST_SUM = """
    li   r1, 500          # p = head
    li   r2, 0            # sum
loop:
    cnei c0, r1, 0        # p != NULL ?
    brf  c0, done
    ld   r3, r1, 0        # value = p->value   (unsafe when hoisted)
    add  r2, r2, r3
    ld   r1, r1, 1        # p = p->next        (unsafe when hoisted)
    jmp  loop
done:
    out  r2
    halt
"""

HEAD = 500
VALUES = [3, 1, 4, 1, 5, 9, 2, 6]


def list_words(head: int, values: list[int]) -> dict[int, int]:
    words: dict[int, int] = {}
    address = head
    for index, value in enumerate(values):
        next_address = head + 2 * (index + 1) if index + 1 < len(values) else 0
        words[address] = value
        words[address + 1] = next_address
        address = next_address
    return words


def run_case(title: str, memory: Memory, handler=None) -> None:
    print(f"--- {title} ---")
    program = parse_program(LIST_SUM, name="list-sum")
    cfg = build_cfg(program)
    predictor = train_predictor(
        program, cfg, memory.clone(), fault_handler=handler
    )
    scalar = run_scalar(program, cfg, memory.clone(), fault_handler=handler)
    compiled = compile_program(program, "region_pred", base_machine(), predictor)
    assert compiled.vliw is not None

    machine = VLIWMachine(
        compiled.vliw, base_machine(), memory.clone(), fault_handler=handler
    )
    result = machine.run()
    assert result.output == list(scalar.output)
    print(f"  output           : {result.output}  (matches scalar)")
    print(f"  cycles           : {result.cycles} vs scalar {scalar.cycles} "
          f"({scalar.cycles / result.cycles:.2f}x)")
    print(f"  speculative ops  : {result.speculative_ops}")
    print(f"  squashed ops     : {result.squashed_ops}")
    print(f"  recoveries       : {result.recoveries}")
    print(f"  handled faults   : {result.handled_faults}")
    print()


def main() -> None:
    # Case 1: the classic squash. The hoisted dereferences fault on NULL
    # in the last iteration; the continue predicate commits false and the
    # buffered exceptions evaporate. No handler is even installed.
    memory = Memory()
    for address, word in list_words(HEAD, VALUES).items():
        memory.map(address, word)
    run_case("NULL-pointer speculation: exceptions squashed", memory)

    # Case 2: committed speculative fault + recovery. The list lives in
    # demand-paged memory with the tail node not yet resident: the
    # speculative dereference of a real node faults, its predicate commits
    # TRUE, and the machine recovers via the future condition; the pager
    # reads the node back from the backing store mid-recovery.
    backing_store = list_words(HEAD, VALUES)
    paged = Memory(mapped_only=True)
    last_node = HEAD + 2 * (len(VALUES) - 1)
    for address, word in backing_store.items():
        if address not in (last_node, last_node + 1):
            paged.map(address, word)

    # The training, scalar and machine runs each start from the paged-out
    # image, so each pages the tail node in.
    def pager(fault, machine):
        if fault.kind is FaultKind.MEMORY and fault.address in backing_store:
            machine.memory.map(fault.address, backing_store[fault.address])
            print(f"    [pager] faulted in word {fault.address}")
            return True
        return False

    run_case(
        "demand paging: committed exception, future-condition recovery",
        paged,
        handler=pager,
    )


if __name__ == "__main__":
    main()
