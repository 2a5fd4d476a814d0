"""A checkpoint taken mid-speculation keeps its exact format and meaning.

The snapshot below was captured at the cycle-2 boundary of
:func:`speculating_program`: two shadow writes are buffered (``r6``
under ``c0``, ``r7`` under ``!c0``), a speculative load's result is in
flight, and a speculative store waits in the store buffer, all while
``c0`` is still unspecified.  It is the snapshot format as written
before the machine decoded its program at construction; the tests pin
that

* the machine still writes exactly this document at that boundary, and
* restoring the document and running on finishes bit-identically to an
  uninterrupted run.
"""

from __future__ import annotations

import json

from repro.ckpt.state import canonical_dumps, restore_vliw, snapshot_vliw
from repro.isa.parser import parse_instruction as P
from repro.machine import Bundle, VLIWMachine, VLIWProgram
from repro.machine.config import base_machine
from repro.machine.program import RegionSpan
from repro.sim.memory import Memory

MID_SPECULATION_SNAPSHOT = (
    '{"engine":"vliw","fingerprint":"bfe4ccbc2d5fc54c5b332746979e178e8afefd'
    'a71dfa92a29305b308aaa781db","hash":"7516946c971c6d138df00850de16a8cdef'
    'f2ef6e5d55b90a19c9701ead57d39a","schema":"repro-checkpoint/v1","state"'
    ':{"btb":null,"ccr":[null,null,null,null],"cycle":2,"epc":null,"future_'
    'ccr":null,"in_flight":[{"due_cycle":3,"fault":null,"pred":"c0","reg":3'
    ',"value":41}],"last_issued":[[1,0],[2,1]],"memory":{"limit":1048576,"m'
    'apped_only":false,"words":{"100":41}},"metrics":null,"mode":"normal","'
    'observation":null,"output":[],"pc":2,"regfile":{"pending":{"6":[{"faul'
    't":null,"pred":"c0","value":8}],"7":[{"fault":null,"pred":"!c0","value'
    '":9}]},"sequential":[0,100,3,0,0,7,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0'
    ',0,0,0,0,0,0,0,0]},"rpc":0,"stalls":0,"stats":{"bundles_issued":2,"han'
    'dled_faults":0,"issued_ops":7,"recoveries":0,"speculative_ops":4,"squa'
    'shed_ops":0},"store_buffer":{"entries":[{"address":101,"fault":null,"p'
    'red":"c0","serial":1,"speculative":true,"valid":true,"value":7}],"seri'
    'al":1}}}'
)


def speculating_program() -> VLIWProgram:
    """Speculative load, ALU writes on both arms and a speculative store
    issue before ``c0`` is set; the result then commits or squashes."""
    bundles = [
        Bundle((P("li r1, 100"), P("li r2, 3"), P("li r5, 7"))),
        Bundle(
            (
                P("[c0] ld r3, r1, 0"),
                P("[c0] addi r6, r5, 1"),
                P("[!c0] li r7, 9"),
                P("[c0] st r5, r1, 1"),
            )
        ),
        Bundle((P("cgt c0, r2, r0"), P("[c0] addi r8, r6.s, 2"))),
        Bundle((P("[c0] addi r4, r3.s, 1"), P("[!c0] li r4, 5"))),
        Bundle((P("[c0] jmp OUT"), P("[!c0] jmp OUT"))),
        Bundle((P("out r4"),)),
        Bundle((P("out r6"),)),
        Bundle((P("out r8"),)),
        Bundle((P("out r7"),)),
        Bundle((P("halt"),)),
    ]
    return VLIWProgram(
        bundles=bundles,
        labels={"R0": 0, "OUT": 5},
        regions=[RegionSpan("R0", 0, 5), RegionSpan("OUT", 5, 10)],
    )


def _memory() -> Memory:
    memory = Memory()
    memory.store(100, 41)
    return memory


def _outcome(machine: VLIWMachine) -> tuple:
    result = machine.result()
    return (
        result.output,
        result.registers,
        result.cycles,
        result.bundles_issued,
        result.useful_ops,
        result.squashed_ops,
        result.speculative_ops,
        result.recoveries,
        machine.memory.snapshot(),
    )


def test_machine_writes_the_same_snapshot():
    machine = VLIWMachine(speculating_program(), base_machine(), _memory())
    while machine.cycle < 2:
        assert machine.step()
    assert machine.regfile.occupied == {6, 7}
    assert len(machine.store_buffer) == 1
    assert [flight.reg for flight in machine._in_flight] == [3]
    assert canonical_dumps(snapshot_vliw(machine)) == MID_SPECULATION_SNAPSHOT


def test_stored_snapshot_restores_and_finishes_identically():
    uninterrupted = VLIWMachine(speculating_program(), base_machine(), _memory())
    uninterrupted.run()
    assert uninterrupted.result().output == [42, 8, 10, 0]

    restored = restore_vliw(
        json.loads(MID_SPECULATION_SNAPSHOT),
        speculating_program(),
        base_machine(),
    )
    assert restored.regfile.occupied == {6, 7}
    restored.run()
    assert _outcome(restored) == _outcome(uninterrupted)
