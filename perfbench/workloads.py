"""The four workloads.  Each is a closed loop with one client.

A workload is built from the seed alone (``sweep`` ignores it) and the
program under test receives only the inputs generated here.  Its
interface, as the harness uses it:

* ``open()`` -- fresh program state, inputs and warm-up (set-up time);
* ``run_op(index, spans)`` -- operation *index* of a deterministic
  stream, returning an :class:`~perfbench.harness.Outcome`;
* ``close()``, ``verify()`` -- shut down; checks made after the loop;
* ``properties(records)`` -- measured shares of the input properties
  the workload depends on, over the leading window's records;
* ``layer_details(spans, records)`` -- figures of one traced window
  for layers only this workload exercises; names ending ``_s`` or
  ``_ms`` are host times.
"""

from __future__ import annotations

import json
import random
import time

from perfbench.harness import Outcome

KERNELS = ("compress", "eqntott", "espresso", "grep", "li", "nroff")
MODELS = ("region_pred", "trace_pred")


class Workload:
    name = ""
    #: Operations per balanced block: the timed loop ends on a block edge.
    block = 1
    #: Leading operations folded into the digest and run by the traced run.
    window = 1
    import_modules: tuple[str, ...] = ()
    #: The program runs a process pool.  Its traced run adds an untraced
    #: pooled window to each round and runs the others with
    #: :attr:`serial` set, in this process.
    pooled = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.serial = False
        #: The timed loop's :class:`~perfbench.harness.HostClock`, for
        #: operations long enough to sample host speed inside.
        self.clock = None

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def verify(self) -> list[str]:
        return []

    def properties(self, records: list) -> dict:
        return {}

    def layer_details(self, spans, records: list) -> dict:
        return {}


def _share(count: int, total: int) -> float:
    return count / total if total else 0.0


class Kernels(Workload):
    """The six paper kernels x {region_pred, trace_pred} through
    ``evaluate_model``: train on the kernel's training input, evaluate
    on ``make_memory(s)`` with a fresh *s* per operation."""

    name = "kernels"
    block = 12
    window = 12
    import_modules = ("repro.compiler.pipeline", "repro.workloads")
    #: Evaluation inputs generated at set-up (reused cyclically after).
    INPUT_BLOCKS = 16

    def open(self) -> None:
        from repro.compiler.pipeline import evaluate_model
        from repro.machine.config import base_machine
        from repro.workloads import all_workloads

        self._evaluate = evaluate_model
        self.config = base_machine()
        kernels = all_workloads()
        self.train = {kernel.name: kernel.train_memory() for kernel in kernels}
        cells = [(kernel, model) for kernel in kernels for model in MODELS]
        rng = random.Random(f"perfbench-kernels:{self.seed}")
        self.inputs = []
        for index in range(self.block * self.INPUT_BLOCKS):
            kernel, model = cells[index % len(cells)]
            eval_seed = rng.randrange(3, 1 << 30)
            self.inputs.append((kernel, model, eval_seed, kernel.make_memory(eval_seed)))
        for index, kernel in enumerate(kernels):  # warm-up: every kernel once
            self._cell(kernel, MODELS[index % 2], kernel.eval_memory())

    def _cell(self, kernel, model, memory):
        return self._evaluate(
            kernel.program,
            model,
            self.config,
            train_memory=self.train[kernel.name].clone(),
            eval_memory=memory,
        )

    def run_op(self, index: int, spans) -> Outcome:
        kernel, model, eval_seed, memory = self.inputs[index % len(self.inputs)]
        evaluation = self._cell(kernel, model, memory)
        scalar, machine = evaluation.scalar, evaluation.machine
        label = f"{kernel.name}/{model}/s={eval_seed}"
        if machine is None:
            return Outcome(units=1, failed=1, errors=(f"{label}: machine did not run",))
        agrees = machine.architectural_output == tuple(scalar.output)
        return Outcome(
            units=1,
            failed=0 if agrees else 1,
            machine_cycles=machine.cycles,
            speedups=(scalar.cycles / machine.cycles,),
            record=[
                label,
                scalar.cycles,
                scalar.instructions,
                evaluation.analytic.cycles,
                machine.cycles,
                machine.bundles_issued,
                machine.speculative_ops,
                machine.squashed_ops,
                machine.recoveries,
                machine.handled_faults,
                list(machine.output),
            ],
            errors=() if agrees else (f"{label}: machine output != scalar output",),
        )

    def properties(self, records: list) -> dict:
        cells = [record for record in records if record]
        return {
            "cells": len(cells),
            "faulting_share": _share(sum(r[9] > 0 for r in cells), len(cells)),
            "recovery_share": _share(sum(r[8] > 0 for r in cells), len(cells)),
            "squash_share": _share(sum(r[7] for r in cells), sum(r[6] for r in cells)),
        }


class Sweep(Workload):
    """Every driver in ``eval.experiments.EXPERIMENTS`` on a fresh
    ``ExperimentContext(use_cache=False)`` at ``jobs=1``: the paper's
    fixed figure set, so the seed is unused.  One operation is one
    driver call; every 13th starts a fresh context.

    A driver call can run for seconds, longer than the host keeps one
    speed, so the runner's per-cell progress hook samples host speed
    every :data:`SAMPLE_EVERY_S` inside it."""

    name = "sweep"
    block = 13
    window = 13
    import_modules = ("repro.eval.experiments",)
    SAMPLE_EVERY_S = 0.1

    def open(self) -> None:
        from repro.eval.experiments import EXPERIMENTS
        from repro.eval.runner import ExperimentContext
        from repro.workloads import get_workload

        if len(EXPERIMENTS) != self.block:
            raise RuntimeError(f"expected {self.block} experiment drivers, found {len(EXPERIMENTS)}")
        self._drivers = list(EXPERIMENTS.items())
        self._context = ExperimentContext
        self._ctx = None
        self._sampled = 0.0
        self._last = None
        self.cell_seconds: dict[str, float] = {}
        warm = ExperimentContext([get_workload("li")], use_cache=False)
        for driver in EXPERIMENTS.values():  # warm-up: every driver, one kernel
            driver(warm)

    def run_op(self, index: int, spans) -> Outcome:
        name, driver = self._drivers[index % self.block]
        if index % self.block == 0:
            self._ctx = self._context(use_cache=False, progress=self._progress)
        ctx = self._ctx
        stats = ctx.runner.stats
        cells, timed, errored = stats.total, len(stats.cell_times), len(stats.errors)
        with spans.span(f"eval.{name}"):
            result = driver(ctx)
        times = stats.cell_times[timed:]
        kinds = sorted(label.split("/", 1)[0] for label, _ in times)
        if spans.enabled:
            for label, ns in times:
                kind = label.split("/", 1)[0]
                self.cell_seconds[kind] = self.cell_seconds.get(kind, 0.0) + ns / 1e9
        cycles, speedups = self._machine_runs(ctx, result) if name == "fig7" else (0, [])
        errors = tuple(
            f"cell {entry['error']['label']}: {entry['error']['type']}"
            for entry in stats.errors[errored:]
        )
        return Outcome(
            units=stats.total - cells,
            failed=len(errors),
            machine_cycles=cycles,
            speedups=tuple(speedups),
            record={"driver": name, "result": result.to_dict(), "cell_kinds": kinds},
            latencies=tuple(ns / 1e9 for _, ns in times),
            errors=errors,
        )

    def _progress(self, done: int, total: int, stats) -> None:
        now = time.perf_counter()
        if self.clock is not None and now - self._sampled >= self.SAMPLE_EVERY_S:
            self.clock.sample()
            self._sampled = time.perf_counter()

    def _machine_runs(self, ctx, fig7) -> tuple[int, list[float]]:
        """Simulated cycles and speedups of Figure 7's machine-run cells."""
        from repro.compiler.models import MODELS as POLICIES
        from repro.eval.experiments import FIG7_MODELS

        self._last = (ctx, fig7)
        cycles = 0
        speedups = []
        for workload in ctx.workloads:
            scalar_cycles = ctx.baseline(workload).evaluation.cycles
            for model in FIG7_MODELS:
                if POLICIES[model].executable:
                    speedup = fig7.per_workload[workload.name][model]
                    speedups.append(speedup)
                    cycles += round(scalar_cycles / speedup)
        return cycles, speedups

    def verify(self) -> list[str]:
        """Figure 7's machine-measured speedups equal the analytic count."""
        from repro.compiler.models import MODELS as POLICIES
        from repro.eval.experiments import FIG7_MODELS
        from repro.machine.config import base_machine

        if self._last is None:
            return ["no Figure 7 run completed"]
        ctx, fig7 = self._last
        errors = []
        for workload in ctx.workloads:
            for model in FIG7_MODELS:
                if not POLICIES[model].executable:
                    continue
                analytic = ctx.measure(workload, model, base_machine())["speedup"]
                measured = fig7.per_workload[workload.name][model]
                if analytic != measured:
                    errors.append(
                        f"fig7 {workload.name}/{model}: machine {measured} != analytic {analytic}"
                    )
        return errors

    def properties(self, records: list) -> dict:
        kinds = [kind for record in records for kind in record["cell_kinds"]]
        shares = {
            f"{kind}_cell_share": _share(kinds.count(kind), len(kinds)) for kind in sorted(set(kinds))
        }
        return {"drivers": len(records), "cells": len(kinds), **shares}

    def layer_details(self, spans, records: list) -> dict:
        details = {
            f"eval.cells.{kind}_s": seconds for kind, seconds in sorted(self.cell_seconds.items())
        }
        self.cell_seconds = {}
        return details


class Fuzz(Workload):
    """``verify.fuzz`` campaigns: a fresh synthetic program per
    operation through ``build_case`` and the differential oracle.

    Program size, predictability and machine shape are stratified over
    each block of 108 campaigns, so every block carries the same mix;
    the program seed, model, window, join sharing and unmapped share
    are drawn from the seed."""

    name = "fuzz"
    block = 108
    window = 108
    import_modules = ("repro.verify.fuzz",)
    SIZES = (2, 3, 4)
    PREDICTABILITIES = (0.5, 0.6, 0.7, 0.85, 0.95, 1.0)
    UNMAP_FRACTIONS = (0.0, 0.0, 0.0, 0.25, 0.5)

    def open(self) -> None:
        from repro.verify.fuzz import CONFIGS, CampaignSpec, build_case

        self._build_case = build_case
        self._spec_type = CampaignSpec
        self._configs = sorted(CONFIGS)
        for index in range(12):  # warm-up: campaigns outside the stream
            self._build_case(self.spec(index, stream="warmup")).run()

    def spec(self, index: int, stream: str = "run"):
        rng = random.Random(f"perfbench-fuzz:{stream}:{self.seed}:{index}")
        return self._spec_type(
            index=index,
            program_seed=rng.randrange(1 << 30),
            predictability=self.PREDICTABILITIES[(index // 3) % 6],
            size=self.SIZES[index % 3],
            model=rng.choice(MODELS),
            window_blocks=rng.choice((4, 8, 16)),
            share_joins=rng.random() < 0.5,
            config_name=self._configs[(index // 18) % 6],
            unmap_fraction=rng.choice(self.UNMAP_FRACTIONS),
        )

    def run_op(self, index: int, spans) -> Outcome:
        spec = self.spec(index)
        with spans.span("verify.build_case"):
            case = self._build_case(spec)
        with spans.span("verify.oracle"):
            result = case.run()
        speedup = result.speedup
        return Outcome(
            units=1,
            failed=0 if result.equivalent else 1,
            machine_cycles=result.machine_cycles or 0,
            speedups=(speedup,) if result.equivalent and speedup else (),
            record=[
                spec.label(),
                result.equivalent,
                result.scalar_cycles,
                result.machine_cycles,
                result.recoveries,
                result.machine_faults,
                result.scalar_faults,
            ],
            errors=() if result.equivalent else (f"campaign {spec.label()}: {result.describe()}",),
        )

    def properties(self, records: list) -> dict:
        count = len(records)
        return {
            "campaigns": count,
            "unmapped_share": _share(sum("unmap=" in r[0] for r in records), count),
            "faulting_share": _share(sum(r[5] > 0 for r in records), count),
            "recovery_share": _share(sum(r[4] > 0 for r in records), count),
        }

    def layer_details(self, spans, records: list) -> dict:
        return {"verify.recovery_campaign_frac": self.properties(records)["recovery_share"]}


class Serve(Workload):
    """One client submitting jobs to an in-process
    ``serve.SimulationService`` with one pool worker and no journal.

    The traffic is chosen, not observed: the repository holds no record
    of serve use to take it from.  Each block of 14 submissions is the
    smallest mix that reaches every path of the service once:

    * 12 submissions, one per kernel x model cell, of two fresh
      ``simulate`` jobs: the two share a group, so they travel as one
      batch and compile once (admission, batching, pool IPC, and the
      worker's compile cache, which the warm-up filled with every
      ``simulate`` group);
    * one ``security`` job on cell ``block % 12``: the ``taint`` twin
      run, and a compile-cache miss the first time its group is seen;
    * one job repeating an earlier job's key: durable-result replay.

    Job seeds and the repeated job are drawn from the workload seed.

    The traced run runs the service on its serial fallback (the path it
    takes when no process pool can be made), so the probes see its own
    resolution and ``run_job`` calls in this process."""

    name = "serve"
    block = 14
    window = 14
    pooled = True
    import_modules = ("repro.serve.service",)
    CELLS = tuple((kernel, model) for model in MODELS for kernel in KERNELS)
    JOBS_PER_CELL = 2
    WARMUP_SEED = 2  # the kernels' default evaluation seed; never drawn below

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.submissions: list[list[dict]] = []
        self._rng = random.Random(f"perfbench-serve:{seed}")
        self._jobs = 0
        self._earlier: list[dict] = []
        self.service = None
        self.golden: dict[tuple[str, int], list] = {}

    def requests(self, index: int) -> list[dict]:
        """Submission *index* of the stream (generated in order)."""
        while len(self.submissions) <= index:
            self.submissions.extend(self._block(len(self.submissions) // self.block))
        return self.submissions[index]

    def _block(self, number: int) -> list[list[dict]]:
        submissions = [
            [self._job("simulate", kernel, model) for _ in range(self.JOBS_PER_CELL)]
            for kernel, model in self.CELLS
        ]
        kernel, model = self.CELLS[number % len(self.CELLS)]
        submissions.insert(len(self.CELLS) // 2, [self._job("security", kernel, model)])
        repeat = dict(self._rng.choice(self._earlier), id=f"r{self._jobs}")
        self._jobs += 1
        submissions.append([repeat])
        return submissions

    def _job(self, kind: str, kernel: str, model: str) -> dict:
        job = {
            "id": f"j{self._jobs}",
            "client": "perfbench",
            "kind": kind,
            "workload": kernel,
            "model": model,
            "seed": self._rng.randrange(3, 1 << 30),
        }
        self._jobs += 1
        self._earlier.append(job)
        return job

    def open(self) -> None:
        from repro.serve import worker
        from repro.serve.service import ServeSettings, SimulationService

        # Every service starts from a cold compile cache in this process
        # too, as a fresh pool worker does.
        worker._COMPILE_CACHE.clear()
        self.service = SimulationService(ServeSettings(workers=1))
        if self.serial:  # no pool can be made: batches run in this process
            self.service.pool._ensure_pool = lambda: None
        self.results: dict[str, str] = {}  # job key -> its first result, serialised
        # Warm-up: starts the pool worker, fills its compile cache with
        # every simulate group and loads the taint layer.
        for response in self.service.handle_requests(self.warmup_requests()):
            if response["status"] != "ok":
                raise RuntimeError(f"warm-up job failed: {response}")

    def warmup_requests(self) -> list[dict]:
        jobs = [("simulate", kernel, model) for kernel, model in self.CELLS]
        jobs.append(("security", *self.CELLS[-1]))
        return [
            {
                "id": f"w-{kind}-{kernel}-{model}",
                "client": "perfbench-warmup",
                "kind": kind,
                "workload": kernel,
                "model": model,
                "seed": self.WARMUP_SEED,
            }
            for kind, kernel, model in jobs
        ]

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def run_op(self, index: int, spans) -> Outcome:
        requests = self.requests(index)
        with spans.span("serve.handle"):
            responses = self.service.handle_requests(requests)
        errors = []
        cycles = 0
        speedups = []
        record = []
        for request, response in zip(requests, responses):
            label = f"{request['id']} {request['kind']} {request['workload']}/{request['model']}"
            if response.get("status") != "ok" or response.get("id") != request["id"]:
                errors.append(f"{label}: {response.get('status')}: {response.get('error')}")
                continue
            key, result = response["key"], response["result"]
            serialised = json.dumps(result, sort_keys=True)
            first = self.results.get(key)
            if first is None:
                self.results[key] = serialised
                cycles += self._cycles(result)
                if result["kind"] == "security" and (not result["secure"] or result["leaks"]):
                    errors.append(f"{label}: insecure: {result['leaks']} leaks")
                if result["kind"] == "simulate":
                    self.golden.setdefault((request["workload"], request["seed"]), result["output"])
            elif first != serialised:
                errors.append(f"{label}: repeated key answered differently")
            if result["kind"] == "simulate":
                speedups.append(result["speedup"])
            record.append(
                [request["kind"], request["workload"], request["model"], request["seed"], result]
            )
        return Outcome(
            units=len(requests),
            failed=len(errors),
            machine_cycles=cycles,
            speedups=tuple(speedups),
            record=record,
            errors=tuple(errors),
        )

    @staticmethod
    def _cycles(result: dict) -> int:
        if result["kind"] == "security":
            return result["baseline_cycles"] + result["taint_cycles"]
        return result["machine_cycles"]

    def verify(self) -> list[str]:
        """Every executed simulate job's output equals a golden scalar
        run of the same kernel on the same input, made here."""
        from repro.ir.cfg import build_cfg
        from repro.machine.scalar import run_scalar
        from repro.workloads import get_workload

        kernels = {name: get_workload(name) for name in KERNELS}
        cfgs = {name: build_cfg(kernel.program) for name, kernel in kernels.items()}
        errors = []
        for (name, seed), output in self.golden.items():
            kernel = kernels[name]
            golden = run_scalar(kernel.program, cfgs[name], kernel.make_memory(seed))
            if list(golden.output) != output:
                errors.append(f"{name} seed {seed}: served output != golden scalar output")
        self.golden = {}
        return errors

    def properties(self, records: list) -> dict:
        """Shares over the window's jobs.  A job's group is its kind,
        kernel and model (one machine config and training input)."""
        groups = {(job["kind"], job["workload"], job["model"]) for job in self.warmup_requests()}
        keys = set()
        jobs = seen_group = repeated = security = 0
        for submission in records:
            for kind, kernel, model, seed, _ in submission:
                jobs += 1
                security += kind == "security"
                seen_group += (kind, kernel, model) in groups
                repeated += (kind, kernel, model, seed) in keys
                groups.add((kind, kernel, model))
                keys.add((kind, kernel, model, seed))
        return {
            "submissions": len(records),
            "jobs": jobs,
            "seen_group_share": _share(seen_group, jobs),
            "repeated_key_share": _share(repeated, jobs),
            "security_share": _share(security, jobs),
        }

    def layer_details(self, spans, records: list) -> dict:
        """Means per submission of the service's own stages."""
        totals = spans.totals()
        return {
            f"{name}_ms": totals.get(name, 0.0) * 1e3 / len(records)
            for name in ("serve.handle", "serve.resolve", "serve.run_job", "taint.run_job")
        }


WORKLOADS = {workload.name: workload for workload in (Kernels, Sweep, Fuzz, Serve)}
