"""Zero cost when off, by structure.

With nothing attached an executor's observer slot is ``None``: every
emission point is one ``is not None`` test, and the run never calls
into ``repro.obs`` (``tests/obs/test_event_stream.py`` and
``tests/machine/test_work_count.py`` count those calls).  The tests here
pin the disabled defaults that structure rests on, and that attaching
observers or taint never changes what the machine does.
"""

from __future__ import annotations

from repro.obs.metrics import NULL_SINK
from repro.obs.flight import NULL_RECORDER
from repro.taint import NULL_TAINT


def test_null_sink_is_disabled():
    assert NULL_SINK.enabled is False


class TestDisabledRecorderGuard:
    """The flight recorder's disabled state is the same zero-cost shape.

    A default machine run carries :data:`NULL_RECORDER` and an empty
    observer slot; the hot loop pays one branch per emission point and
    allocates nothing.  ``repro bench compare`` only reports wall-clock
    cost (CI runs it ``--warn-only``), so these tests pin the
    *structure* instead: a refactor cannot silently start paying for
    forensics when they are off.
    """

    def test_null_recorder_is_disabled(self):
        assert NULL_RECORDER.enabled is False

    def test_default_machine_has_forensics_off(self):
        from repro.verify.fuzz import build_case, derive_campaign

        case = build_case(derive_campaign(0, 0))
        from repro.compiler.models import MODELS
        from repro.compiler.pipeline import compile_program, train_predictor
        from repro.ir.cfg import build_cfg
        from repro.machine.vliw import VLIWMachine

        program = case.program()
        cfg = build_cfg(program)
        compiled = compile_program(
            program,
            MODELS[case.model],
            case.config,
            train_predictor(program, cfg, case.make_memory()),
        )
        machine = VLIWMachine(compiled.vliw, case.config, case.make_memory())
        assert machine.flight is NULL_RECORDER
        assert machine.effects is None
        assert machine._obs is None

    def test_instrumentation_does_not_perturb_the_run(self):
        # Same case, forensics off (oracle) and fully on (diff-trace):
        # identical cycle counts and architectural verdicts, i.e. the
        # recorder observes the machine without becoming part of it.
        from repro.verify.fuzz import build_case, derive_campaign
        from repro.verify.tracediff import diff_trace_case

        case = build_case(derive_campaign(0, 0))
        bare = case.run()
        instrumented = diff_trace_case(case)
        assert instrumented.equivalent == bare.equivalent
        assert instrumented.machine.cycles == bare.machine_cycles
        assert instrumented.scalar.cycles == bare.scalar_cycles


class TestDisabledTaintGuard:
    """Taint tracking off is the same zero-cost shape as forensics off.

    A default machine (and interpreter) carries :data:`NULL_TAINT` and a
    single cached ``_taint`` boolean; with taint off the hot loop pays
    one branch per guard site, pending/store-buffer entries keep
    ``taint=None``, and snapshots stay byte-identical to the pre-taint
    layout.  As with forensics, wall-clock cost is only reported (CI
    runs ``repro bench compare --warn-only``); these tests pin the
    structure it depends on.
    """

    def test_null_taint_is_disabled(self):
        assert NULL_TAINT.enabled is False

    def test_default_machine_has_taint_off(self):
        from repro.verify.fuzz import build_case, derive_campaign

        case = build_case(derive_campaign(0, 0))
        from repro.compiler.models import MODELS
        from repro.compiler.pipeline import compile_program, train_predictor
        from repro.ir.cfg import build_cfg
        from repro.machine.vliw import VLIWMachine
        from repro.sim.interpreter import Interpreter

        program = case.program()
        cfg = build_cfg(program)
        compiled = compile_program(
            program,
            MODELS[case.model],
            case.config,
            train_predictor(program, cfg, case.make_memory()),
        )
        machine = VLIWMachine(compiled.vliw, case.config, case.make_memory())
        assert machine.taint is NULL_TAINT
        assert machine._taint is False
        interpreter = Interpreter(program, case.make_memory(), cfg=cfg)
        assert interpreter.taint is NULL_TAINT
        assert interpreter._taint is False

    def test_taint_run_does_not_perturb_cycles(self):
        # The security oracle's twin runs -- taint off, then taint on --
        # must agree on cycle count, or the taint machinery has become
        # part of the timing it is supposed to observe.  (A disagreement
        # is *also* reported as a timing leak; asserting both keeps the
        # mechanism honest.)
        from repro.taint import run_security
        from repro.workloads import get_workload

        workload = get_workload("grep")
        result = run_security(
            workload.program,
            model="region_pred",
            train_memory=workload.train_memory(),
            eval_memory=workload.eval_memory(),
        )
        assert result.error is None
        assert result.secure
        assert result.taint_cycles == result.baseline_cycles
