"""Behavioral contracts for autonomous agent sessions.

A contract separates zero-tolerance hard constraints from recoverable soft
constraints, attaches bounded recovery strategies, and is enforced per
turn by a session monitor that tracks compliance, behavioral drift, and
recovery effectiveness.  Companion tooling simulates and bounds drift as a
mean-reverting diffusion, checks multi-agent composition conditions, and
certifies compliance rates sequentially.

Typical use::

    from agentcontracts import load_contract, run_session, ExecutionTrace

    contract = load_contract("financial-advisor.yaml")
    report = run_session(contract, trace)
    print(report.outcome, report.metrics.theta)
"""

import importlib

from .model import (
    ActionRecord,
    Constraint,
    Contract,
    DriftConfig,
    ExecutionTrace,
    Predicate,
    RecoveryStrategy,
    ReliabilityWeights,
    SatisfactionParams,
    StructuralIssue,
    validate_contract,
)
from .expressions import compile_expression, eval_expression
from .parser import (
    PipelineContract,
    contract_to_yaml,
    load_contract,
    load_document,
    parse_contract,
    parse_document,
    parse_pipeline,
)
from .engine import (
    SatisfactionVerdict,
    StepEvaluation,
    ViolationEvent,
    check_deterministic,
    classify_outcome,
    evaluate_step,
)
from .drift import (
    DriftSample,
    DriftWindow,
    SessionMetrics,
    jsd,
    recovery_effectiveness,
    reliability_index,
    stress_resilience,
    update_drift,
)
from .monitor import (
    MonitorEvent,
    PdkVerdict,
    SessionMonitor,
    SessionReport,
    StepReport,
    pdk_verdict,
    run_session,
)
from .composition import (
    ChainBounds,
    ChainSpec,
    ConditionReport,
    HandoffSpec,
    chain_bounds,
    check_conditions,
    compose_chain,
    compose_contracts,
    verify_chain_trace,
)
from .bench import (
    Scenario,
    ScenarioScore,
    aggregate,
    load_scenario,
    load_suite,
    score_scenario,
    score_suite,
)

__version__ = "0.1.0"

# Names resolved on first use (PEP 562).  ``dynamics`` and ``generator``
# import numpy, which importing the package, CLI ``run`` and CLI ``bench``
# do not need; ``certification`` is off those paths too.
_LAZY = {
    **dict.fromkeys(("DesignSpec", "OUFit", "OUParams", "design_gamma_approx", "fit_ou",
                     "mse_at_time", "simulate_ou", "simulate_ou_exact", "simulate_ou_paths",
                     "solve_design_gamma", "stationary_stats", "tail_probability"),
                    "dynamics"),
    **dict.fromkeys(("CertificationStream", "SprtConfig", "SprtState",
                     "compliance_no_recovery", "compliance_with_recovery", "hoeffding_n",
                     "kl_bernoulli", "sprt_expected_n", "sprt_start", "sprt_update",
                     "sprt_update_batch"),
                    "certification"),
    "generate_suite": "generator",
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    elif name in _LAZY.values():   # the submodule itself
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
