"""In-worker job execution for the service pool.

:func:`execute_batch` is the module-level entry the pool submits (it
must be picklable by name).  Jobs in one batch share a ``group`` key --
same program text, model, machine config and training input -- so the
worker compiles once per group and replays the
:class:`~repro.compiler.pipeline.CompiledProgram` for every batch-mate:
the request batching that amortizes compilation.

The compile cache is *per worker process* and content-keyed (the job's
``group`` hash), so it also persists across batches dispatched to the
same worker.  Cache state never leaks into results: a job's result
payload is a pure function of the job, byte-identical whether its
compile hit or missed -- the property the journal-replay guarantees
rest on.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.compiler.pipeline import (
    analyze_program,
    check_equivalent,
    compile_program,
    train_predictor,
)
from repro.isa.parser import parse_program
from repro.machine.vliw import VLIWMachine
from repro.serve.protocol import ResolvedJob
from repro.sim.memory import Memory

#: Per-process compiled-program cache: group key -> (program, cfg,
#: compiled).  Bounded so a long-lived worker sweeping a huge config
#: grid cannot grow without bound; eviction is oldest-inserted-first.
_COMPILE_CACHE: dict[str, tuple] = {}
_COMPILE_CACHE_LIMIT = 64

#: Test-visible telemetry: compiles actually performed by this worker
#: process (never part of a result payload).
compile_count = 0


def _compiled(job: ResolvedJob):
    """The (program, cfg, compiled|None) triple for a job's group."""
    global compile_count
    cached = _COMPILE_CACHE.get(job.group)
    if cached is not None:
        return cached
    compile_count += 1
    if job.workload is not None:
        from repro.workloads import get_workload

        workload = get_workload(job.workload)
        program = workload.program
        train_memory = workload.make_memory(workload.train_seed)
    else:
        program = parse_program(job.program_text, name=job.name)
        train_memory = _inline_memory(job)
    facts = analyze_program(program)
    compiled = None
    if job.model != "scalar":
        predictor = train_predictor(program, facts.cfg, train_memory)
        compiled = compile_program(
            program, job.model, job.config, predictor, facts
        )
    entry = (program, facts.cfg, compiled)
    while len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE.pop(next(iter(_COMPILE_CACHE)))
    _COMPILE_CACHE[job.group] = entry
    return entry


def _inline_memory(job: ResolvedJob) -> Memory:
    memory = Memory()
    for address, value in job.memory_words:
        memory.store(address, value)
    return memory


def _eval_memory(job: ResolvedJob) -> Memory:
    if job.workload is not None:
        from repro.workloads import get_workload

        return get_workload(job.workload).make_memory(job.seed)
    return _inline_memory(job)


def run_job(job: ResolvedJob) -> dict:
    """Execute one job; returns the deterministic result payload.

    Raises on failure -- the pool (or :func:`execute_batch`) turns
    exceptions into structured error outcomes.
    """
    if job.kind == "chaos":
        return _run_chaos(job)
    if job.kind == "security":
        return _run_security(job)
    from repro.machine.scalar import run_scalar

    program, cfg, compiled = _compiled(job)
    evaluation = run_scalar(program, cfg, _eval_memory(job))
    result = {
        "kind": "simulate",
        "name": job.name,
        "model": job.model,
        "output": list(evaluation.output),
        "scalar_cycles": evaluation.cycles,
        "instructions": evaluation.instructions,
        "machine_cycles": None,
        "speedup": None,
    }
    if job.model == "scalar":
        return result
    assert compiled is not None and compiled.vliw is not None
    machine = VLIWMachine(compiled.vliw, job.config, _eval_memory(job))
    machine_result = machine.run()
    check_equivalent(
        f"{job.name}/{job.model}", machine_result,
        evaluation.output,
    )
    result["machine_cycles"] = machine_result.cycles
    result["speedup"] = evaluation.cycles / machine_result.cycles
    return result


def _run_security(job: ResolvedJob) -> dict:
    """Twin-run taint check of the job's compiled program.

    Rides the same per-group compile cache as simulate jobs, so a batch
    of security sweeps over one workload compiles once.
    """
    from repro.taint.oracle import run_security

    _, _, compiled = _compiled(job)
    assert compiled is not None and compiled.vliw is not None
    security = run_security(
        vliw=compiled.vliw,
        config=job.config,
        policy=job.policy,
        eval_memory=_eval_memory(job),
    )
    if security.error is not None:
        raise RuntimeError(
            f"{job.name}/{job.model}: security oracle error: "
            f"{security.error}"
        )
    first = security.first_leak
    return {
        "kind": "security",
        "name": job.name,
        "model": job.model,
        "policy": job.policy,
        "secure": security.secure,
        "leaks": len(security.leaks),
        "first_leak": None if first is None else first.to_dict(),
        "counters": security.counters,
        "baseline_cycles": security.baseline_cycles,
        "taint_cycles": security.taint_cycles,
    }


def _run_chaos(job: ResolvedJob) -> dict:
    """Deliberate misbehaviour for the failure-path tests (mirrors the
    experiment runner's chaos cells)."""
    mode = job.chaos_extra("mode", "ok")
    if mode == "ok":
        return {"kind": "chaos", "value": job.chaos_extra("value", 1)}
    if mode == "raise":
        raise RuntimeError("chaos job asked to raise")
    if mode == "hang":
        time.sleep(float(job.chaos_extra("seconds", 3600.0)))
        return {"kind": "chaos", "value": "woke up"}
    if mode == "kill":
        os._exit(17)
    if mode == "wait_for":
        sentinel = Path(str(job.chaos_extra("path")))
        deadline = time.perf_counter() + float(
            job.chaos_extra("timeout", 60.0)
        )
        while not sentinel.exists():
            if time.perf_counter() > deadline:
                raise TimeoutError(f"sentinel {sentinel} never appeared")
            time.sleep(0.02)
        return {"kind": "chaos", "value": job.chaos_extra("value", 1)}
    raise ValueError(f"unknown chaos mode {mode!r}")


def execute_batch(jobs: tuple[ResolvedJob, ...]) -> list[dict]:
    """Run a group batch; one outcome per job, in batch order.

    An outcome is ``{"ok": result}`` or ``{"error": {type, message}}``.
    A deterministic in-job exception costs that job only; batch-mates
    still complete (hangs and worker deaths are the pool's problem).
    """
    outcomes: list[dict] = []
    for job in jobs:
        try:
            outcomes.append({"ok": run_job(job)})
        except Exception as error:  # noqa: BLE001 -- structured outcome
            outcomes.append(
                {
                    "error": {
                        "type": type(error).__name__,
                        "message": str(error) or type(error).__name__,
                    }
                }
            )
    return outcomes
