#!/usr/bin/env python3
"""Multi-agent composition walkthrough.

Generates the bundled loan-processing pipeline (intake -> analysis ->
decision), checks the four composition conditions over witness states,
computes the end-to-end chain bounds, and verifies a chain trace against
the composed contract with phase scoping.
"""

import json
import os
import tempfile

from agentcontracts import (
    ActionRecord,
    ChainSpec,
    ExecutionTrace,
    chain_bounds,
    check_conditions,
    compose_chain,
    load_document,
    verify_chain_trace,
)
from agentcontracts.bench import load_scenario
from agentcontracts.generator import generate_suite

with tempfile.TemporaryDirectory(prefix="abc-suite-") as suite:
    generate_suite(suite, seed=7)
    pipeline = load_document(os.path.join(suite, "contracts", "loan-pipeline.yaml"))
    print(f"pipeline: {pipeline.name} with stages "
          f"{[s.name for s in pipeline.stages]}\n")

    # --- composition conditions over the witness corpus -------------------
    with open(os.path.join(suite, "witnesses", "states.json")) as fh:
        states = json.load(fh)
    with open(os.path.join(suite, "witnesses", "actions.json")) as fh:
        actions = [ActionRecord(a["label"], a.get("payload", {})) for a in json.load(fh)]

    for i in range(len(pipeline.stages) - 1):
        a = pipeline.stages[i].contract
        b = pipeline.stages[i + 1].contract
        report = check_conditions(a, b, pipeline.handoffs[i], states, actions)
        print(f"handoff {a.name} -> {b.name}: "
              f"C1={report.c1_interface.passed} C2={report.c2_assumptions.passed} "
              f"C3={report.c3_governance.passed} C4={report.c4_recovery.passed}")

    # --- probabilistic chain bounds ---------------------------------------
    bounds = chain_bounds(ChainSpec.from_pipeline(pipeline))
    print(f"\nchain bounds: p >= {bounds.p_chain_lower:.4f}, "
          f"delta <= {bounds.delta_chain_upper:.4f}, "
          f"conservative (Frechet fold) p >= {bounds.p_frechet_lower:.4f}")

    uniform = ChainSpec.uniform(5, p=0.95, delta=0.02, p_h=0.98, delta_h=0.01)
    five = chain_bounds(uniform)
    print(f"five 95%-reliable agents with 98%-reliable handoffs degrade to "
          f"p >= {five.p_chain_lower:.3f} with delta <= {five.delta_chain_upper:.2f}\n")

    # --- phase-scoped verification of a chain trace ------------------------
    composed = compose_chain([s.contract for s in pipeline.stages],
                             list(pipeline.handoffs))
    clean = next(s for s in os.listdir(suite) if s.startswith("composition-clean"))
    scenario = load_scenario(os.path.join(suite, clean))
    verdict = verify_chain_trace(composed, scenario.trace, scenario.boundaries)
    print(f"clean chain trace: satisfied={verdict.overall}")

    c3 = next(s for s in os.listdir(suite) if s.startswith("composition-c3"))
    scenario = load_scenario(os.path.join(suite, c3))
    verdict = verify_chain_trace(composed, scenario.trace, scenario.boundaries)
    print(f"governance-conflict trace: satisfied={verdict.overall}, "
          f"witnesses={dict(verdict.witnesses)['governance']}")
