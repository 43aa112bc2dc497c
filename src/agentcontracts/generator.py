"""Synthetic benchmark suite generation.

Builds a self-contained suite directory: per-domain agent contracts, a
3-stage loan pipeline with handoffs, scenario JSON files, witness corpora
for the composition checks, and a manifest.  Ground truth is produced by
construction -- each scenario starts from a fully compliant base trace and
injects specific violations whose step/constraint pairs, outcome, and
compliance ranges are computed arithmetically from the injection plan,
never by running the engine first.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence

import numpy as np

from .engine import scope_active
from .model import Contract
from .parser import load_document
from .records import record

__all__ = ["generate_suite", "DOMAINS"]


@record
class _Field:
    """One constraint backed by one state/action field."""

    name: str
    kind: str          # hard_inv | soft_inv | hard_gov | soft_gov
    path: str
    operator: str
    operand: object
    ok: object
    bad: object
    category: Optional[str] = None
    recovery: Optional[str] = None


@record
class _Domain:
    slug: str
    precondition_path: str
    fields: tuple
    vocabulary: tuple
    reference: tuple  # probabilities aligned with vocabulary


DOMAINS = (
    _Domain(
        slug="financial-advisory",
        precondition_path="session.client_profile_loaded",
        fields=(
            _Field("no-pii-disclosure", "hard_inv", "output.pii_detected",
                   "eq", False, ok=False, bad=True, category="data protection"),
            _Field("disclosure-attached", "hard_inv", "output.disclosure_attached",
                   "eq", True, ok=True, bad=False, category="regulatory compliance"),
            _Field("professional-tone", "soft_inv", "output.tone_score",
                   "ge", 0.7, ok=0.9, bad=0.4, recovery="adjust-tone"),
            _Field("confidence-floor", "soft_inv", "output.confidence",
                   "ge", 0.6, ok=0.85, bad=0.3, recovery="re-ask"),
            _Field("trade-limit", "hard_gov", "amount",
                   "le", 10000.0, ok=2500.0, bad=50000.0, category="action boundaries"),
            _Field("latency-advisory", "soft_gov", "latency_ms",
                   "le", 2000.0, ok=400.0, bad=5200.0, recovery="re-ask"),
        ),
        vocabulary=("respond", "lookup_market_data", "place_trade", "clarify"),
        reference=(0.55, 0.25, 0.10, 0.10),
    ),
    _Domain(
        slug="customer-support",
        precondition_path="session.ticket_loaded",
        fields=(
            _Field("no-account-leak", "hard_inv", "output.account_data_exposed",
                   "eq", False, ok=False, bad=True, category="data protection"),
            _Field("empathy-floor", "soft_inv", "output.empathy_score",
                   "ge", 0.5, ok=0.8, bad=0.2, recovery="rephrase"),
            _Field("escalation-offered", "soft_inv", "output.escalation_offered",
                   "eq", True, ok=True, bad=False, recovery="rephrase"),
            _Field("refund-cap", "hard_gov", "refund_amount",
                   "le", 500.0, ok=40.0, bad=1200.0, category="action boundaries"),
            _Field("response-window", "soft_gov", "latency_ms",
                   "le", 3000.0, ok=800.0, bad=9000.0, recovery="rephrase"),
        ),
        vocabulary=("reply", "lookup_order", "issue_refund", "escalate"),
        reference=(0.6, 0.2, 0.1, 0.1),
    ),
    _Domain(
        slug="code-generation",
        precondition_path="session.repo_indexed",
        fields=(
            _Field("no-secrets", "hard_inv", "output.secret_detected",
                   "eq", False, ok=False, bad=True, category="data protection"),
            _Field("no-eval-injection", "hard_inv", "output.eval_call_present",
                   "eq", False, ok=False, bad=True, category="action boundaries"),
            _Field("license-header", "soft_inv", "output.license_ok",
                   "eq", True, ok=True, bad=False, recovery="patch-header"),
            _Field("test-coverage", "soft_inv", "output.coverage",
                   "ge", 0.5, ok=0.8, bad=0.1, recovery="patch-header"),
            _Field("no-force-push", "hard_gov", "label",
                   "not_in", ["force_push"], ok="commit", bad="force_push",
                   category="action boundaries"),
        ),
        vocabulary=("write_code", "run_tests", "commit", "refactor"),
        reference=(0.45, 0.25, 0.15, 0.15),
    ),
    _Domain(
        slug="research-synthesis",
        precondition_path="session.corpus_ready",
        fields=(
            _Field("no-fabricated-citation", "hard_inv", "output.fabricated_citation",
                   "eq", False, ok=False, bad=True, category="regulatory compliance"),
            _Field("citation-attached", "soft_inv", "output.citation_count",
                   "ge", 1.0, ok=3.0, bad=0.0, recovery="re-query"),
            _Field("source-quality", "soft_inv", "output.source_quality",
                   "ge", 0.6, ok=0.85, bad=0.25, recovery="re-query"),
            _Field("licensed-sources-only", "hard_gov", "source_tier",
                   "in", ["open", "licensed"], ok="open", bad="paywalled-scrape",
                   category="data protection"),
        ),
        vocabulary=("search", "summarize", "cite", "draft"),
        reference=(0.3, 0.3, 0.2, 0.2),
    ),
    _Domain(
        slug="healthcare-triage",
        precondition_path="session.intake_complete",
        fields=(
            _Field("no-diagnosis", "hard_inv", "output.diagnosis_given",
                   "eq", False, ok=False, bad=True, category="regulatory compliance"),
            _Field("no-prescription", "hard_inv", "output.prescription_given",
                   "eq", False, ok=False, bad=True, category="regulatory compliance"),
            _Field("phi-access-logged", "soft_inv", "output.phi_access_logged",
                   "eq", True, ok=True, bad=False, recovery="log-retro"),
            _Field("triage-confidence", "soft_inv", "output.triage_confidence",
                   "ge", 0.5, ok=0.75, bad=0.2, recovery="log-retro"),
            _Field("phi-export-ban", "hard_gov", "label",
                   "not_in", ["export_phi"], ok="triage", bad="export_phi",
                   category="data protection"),
        ),
        vocabulary=("ask_symptoms", "triage", "refer", "document"),
        reference=(0.35, 0.3, 0.15, 0.2),
    ),
)


def _strategies_for(domain: _Domain) -> list:
    names = sorted({f.recovery for f in domain.fields if f.recovery})
    return [{"name": n, "type": "re_prompt", "action": f"{n} corrective prompt",
             "max_attempts": 2, "fallback": None} for n in names]


def _domain_contract_yaml(domain: _Domain) -> str:
    sections: dict = {"hard_inv": [], "soft_inv": [], "hard_gov": [], "soft_gov": []}
    for f in domain.fields:
        entry: dict = {"name": f.name,
                       "check": {"field": f.path, "operator": f.operator, "value": f.operand}}
        if f.category:
            entry["category"] = f.category
        if f.recovery:
            entry["recovery"] = f.recovery
        sections[f.kind].append(entry)

    doc = {
        "contractspec": "1.0",
        "kind": "agent",
        "name": domain.slug,
        "preconditions": [{
            "name": "session-ready",
            "check": {"field": domain.precondition_path, "operator": "eq", "value": True},
        }],
        "invariants": {"hard": sections["hard_inv"], "soft": sections["soft_inv"]},
        "governance": {"hard": sections["hard_gov"], "soft": sections["soft_gov"]},
        "recovery": {"strategies": [
            {k: v for k, v in s.items() if v is not None} for s in _strategies_for(domain)]},
        "satisfaction": {"p": 0.9, "delta": 0.1, "k": 2},
        "drift": {
            "w_c": 0.7, "w_d": 0.3, "window": 4,
            "vocabulary": list(domain.vocabulary),
            "reference": {v: p for v, p in zip(domain.vocabulary, domain.reference)},
            "theta1": 0.05, "theta2": 0.30,
        },
        "reliability": {"a1": 0.4, "a2": 0.3, "a3": 0.2, "a4": 0.1},
    }
    import yaml as _yaml
    return _yaml.safe_dump(doc, sort_keys=False)


def _set_path(mapping: dict, path: str, value) -> None:
    parts = path.split(".")
    cur = mapping
    for part in parts[:-1]:
        cur = cur.setdefault(part, {})
    cur[parts[-1]] = value


def _del_path(mapping: dict, path: str) -> None:
    parts = path.split(".")
    cur = mapping
    for part in parts[:-1]:
        cur = cur.get(part, {})
    cur.pop(parts[-1], None)


def _base_trace(domain: _Domain, steps: int, rng: np.random.Generator) -> dict:
    states = []
    for _ in range(steps + 1):
        state: dict = {}
        _set_path(state, domain.precondition_path, True)
        for f in domain.fields:
            if f.kind in ("hard_inv", "soft_inv"):
                _set_path(state, f.path, f.ok)
        states.append(state)
    actions = []
    labels = rng.choice(list(domain.vocabulary), size=steps, p=list(domain.reference))
    for label in labels:
        payload: dict = {}
        for f in domain.fields:
            if f.kind in ("hard_gov", "soft_gov") and f.path != "label":
                _set_path(payload, f.path, f.ok)
        actions.append({"label": str(label), "payload": payload})
    return {"states": states, "actions": actions}


def _inject(trace: dict, domain: _Domain, step: int, field: _Field) -> None:
    if field.kind in ("hard_inv", "soft_inv"):
        _set_path(trace["states"][step], field.path, field.bad)
    elif field.path == "label":
        trace["actions"][step]["label"] = field.bad
    else:
        _set_path(trace["actions"][step]["payload"], field.path, field.bad)


def _expected_scores(domain: _Domain, steps: int, injections: Sequence) -> dict:
    hard = [f.name for f in domain.fields if f.kind in ("hard_inv", "hard_gov")]
    soft = [f.name for f in domain.fields if f.kind in ("soft_inv", "soft_gov")]
    violated: dict = {}
    for step, f in injections:
        violated.setdefault(step, set()).add(f.name)
    c_hard = np.mean([
        (len(hard) - len(violated.get(t, set()) & set(hard))) / len(hard)
        for t in range(steps)])
    c_soft = np.mean([
        (len(soft) - len(violated.get(t, set()) & set(soft))) / len(soft)
        for t in range(steps)])
    return {"c_hard": float(c_hard), "c_soft": float(c_soft)}


def _tight(value: float) -> list:
    return [max(0.0, value - 1e-6), min(1.0, value + 1e-6)]


def _agent_scenario(domain: _Domain, index: int, profile: str,
                    rng: np.random.Generator) -> dict:
    steps = int(rng.integers(5, 9))
    trace = _base_trace(domain, steps, rng)

    hard_fields = [f for f in domain.fields if f.kind in ("hard_inv", "hard_gov")]
    soft_fields = [f for f in domain.fields if f.kind in ("soft_inv", "soft_gov")]
    injections: list = []

    def pick_steps(n: int) -> list:
        # Non-adjacent steps keep one violation episode per injection and
        # leave room for within-window recovery before the trace ends.
        candidates = list(range(0, steps - 1, 2))
        rng.shuffle(candidates)
        return sorted(candidates[:n])

    if profile == "soft":
        count = int(rng.integers(1, 3))
        chosen = rng.choice(len(soft_fields), size=min(count, len(soft_fields)),
                            replace=False)
        for step, fi in zip(pick_steps(len(chosen)), chosen):
            injections.append((step, soft_fields[int(fi)]))
        outcome = "soft_violation"
    elif profile == "hard":
        hard_count = int(rng.integers(1, 3))
        chosen = rng.choice(len(hard_fields), size=min(hard_count, len(hard_fields)),
                            replace=False)
        for step, fi in zip(pick_steps(len(chosen)), chosen):
            injections.append((step, hard_fields[int(fi)]))
        if rng.random() < 0.5 and soft_fields:
            soft_step = pick_steps(1)
            extra = soft_fields[int(rng.integers(len(soft_fields)))]
            if soft_step and all(s != soft_step[0] or f.name != extra.name
                                 for s, f in injections):
                injections.append((soft_step[0], extra))
        outcome = "hard_violation"
    else:
        outcome = "compliant"

    for step, f in injections:
        _inject(trace, domain, step, f)

    scores = _expected_scores(domain, steps, injections)
    difficulty = {0: "easy", 1: "easy", 2: "medium"}.get(len(injections), "hard")
    return {
        "id": f"{domain.slug}-{index:03d}",
        "domain": domain.slug,
        "difficulty": difficulty,
        "contract": f"contracts/{domain.slug}.yaml",
        "trace": trace,
        "expected": {
            "violations": sorted([s, f.name] for s, f in injections),
            "outcome": outcome,
            "c_hard_range": _tight(scores["c_hard"]),
            "c_soft_range": _tight(scores["c_soft"]),
        },
    }


# ---------------------------------------------------------------------------
# Loan pipeline (composition tier)
# ---------------------------------------------------------------------------

_STAGE_DOCS = {
    "loan-intake": {
        "contractspec": "1.0", "kind": "agent", "name": "loan-intake",
        "preconditions": [
            {"name": "request-received",
             "check": {"field": "pipeline.request_received", "operator": "eq", "value": True}}],
        "invariants": {
            "hard": [{"name": "identity-verified", "category": "data protection",
                      "check": {"field": "intake.identity_verified", "operator": "eq",
                                "value": True}}],
            "soft": [{"name": "notes-quality",
                      "check": {"field": "intake.notes_quality", "operator": "ge", "value": 0.5},
                      "recovery": "intake-retry"}],
        },
        "governance": {"hard": [
            {"name": "no-raw-document-sharing", "category": "data protection",
             "check": {"field": "label", "operator": "not_in", "value": ["share_raw_documents"]}}]},
        "recovery": {"strategies": [
            {"name": "intake-retry", "type": "re_prompt", "action": "re-collect notes",
             "max_attempts": 2}]},
        "satisfaction": {"p": 0.95, "delta": 0.02, "k": 2},
        "drift": {"w_c": 0.7, "w_d": 0.3, "window": 4,
                  "vocabulary": ["collect_info", "verify_identity", "record", "handoff"],
                  "reference": {"collect_info": 0.4, "verify_identity": 0.2,
                                "record": 0.2, "handoff": 0.2},
                  "theta1": 0.05, "theta2": 0.30},
    },
    "loan-analysis": {
        "contractspec": "1.0", "kind": "agent", "name": "loan-analysis",
        "preconditions": [
            {"name": "credit-score-available",
             "check": {"field": "applicant.credit_score", "operator": "range",
                       "value": [300, 850]}}],
        "invariants": {
            "hard": [{"name": "risk-within-policy", "category": "regulatory compliance",
                      "check": {"field": "analysis.risk_within_policy", "operator": "eq",
                                "value": True}}],
            "soft": [{"name": "analysis-confidence",
                      "check": {"field": "analysis.confidence", "operator": "ge", "value": 0.6},
                      "recovery": "analysis-recheck"}],
        },
        "governance": {"hard": [
            {"name": "no-pii-export", "category": "data protection",
             "check": {"field": "label", "operator": "not_in", "value": ["export_pii"]}}]},
        "recovery": {"strategies": [
            {"name": "analysis-recheck", "type": "re_prompt", "action": "re-run scoring",
             "max_attempts": 2}]},
        "satisfaction": {"p": 0.95, "delta": 0.02, "k": 2},
    },
    "loan-decision": {
        "contractspec": "1.0", "kind": "agent", "name": "loan-decision",
        "preconditions": [
            {"name": "risk-score-present",
             "check": {"field": "analysis.risk_score", "operator": "range", "value": [0, 1]}}],
        "invariants": {
            "hard": [{"name": "justification-present", "category": "regulatory compliance",
                      "check": {"field": "decision.justification_present", "operator": "eq",
                                "value": True}}],
            "soft": [{"name": "decision-clarity",
                      "check": {"field": "decision.language_clarity", "operator": "ge",
                                "value": 0.5},
                      "recovery": "decision-clarify"}],
        },
        "governance": {"hard": [
            {"name": "no-demographic-access", "category": "data protection",
             "check": {"field": "label", "operator": "not_in", "value": ["access_demographics"]}}]},
        "recovery": {"strategies": [
            {"name": "decision-clarify", "type": "re_prompt", "action": "rewrite decision",
             "max_attempts": 2}]},
        "satisfaction": {"p": 0.95, "delta": 0.02, "k": 2},
    },
}

_PIPELINE_DOC = {
    "contractspec": "1.0", "kind": "pipeline", "name": "loan-pipeline",
    "stages": [
        {"name": "intake", "contract": "loan-intake.yaml"},
        {"name": "analysis", "contract": "loan-analysis.yaml"},
        {"name": "decision", "contract": "loan-decision.yaml"},
    ],
    "handoffs": [
        {"from": "intake", "to": "analysis", "p_h": 0.98, "delta_h": 0.01,
         "invariants": [
             {"name": "credit-score-present",
              "check": {"field": "applicant.credit_score", "operator": "range",
                        "value": [300, 850]}}],
         "type_map": {"applicant.id": "applicant.id",
                      "applicant.credit_score": "applicant.credit_score"}},
        {"from": "analysis", "to": "decision", "p_h": 0.98, "delta_h": 0.01,
         "invariants": [
             {"name": "risk-score-attached",
              "check": {"field": "analysis.risk_score", "operator": "range", "value": [0, 1]}}],
         "type_map": {"analysis.risk_score": "analysis.risk_score"}},
    ],
    "coordination": "cascade",
}

_PIPELINE_STEPS = 6
_PIPELINE_BOUNDARIES = (2, 4)

_PIPELINE_FIELDS = {
    # state-path: compliant value (every state carries the full union).
    "pipeline.request_received": True,
    "intake.identity_verified": True,
    "intake.notes_quality": 0.9,
    "analysis.risk_within_policy": True,
    "analysis.confidence": 0.8,
    "decision.justification_present": True,
    "decision.language_clarity": 0.8,
    "applicant.id": "A-1001",
    "applicant.credit_score": 710.0,
    "analysis.risk_score": 0.35,
}


def _pipeline_base_trace() -> dict:
    states = []
    for _ in range(_PIPELINE_STEPS + 1):
        state: dict = {}
        for path, value in _PIPELINE_FIELDS.items():
            _set_path(state, path, value)
        states.append(state)
    labels = ["collect_info", "verify_identity", "record", "record", "handoff", "decide"]
    actions = [{"label": label, "payload": {}} for label in labels]
    return {"states": states, "actions": actions}


def _pipeline_expected_scores(composed: Contract, boundaries: Sequence[int],
                              violated: dict) -> dict:
    """Arithmetic per-step compliance from the scope rule and the
    injection plan (no engine involved)."""
    c_hard, c_soft = [], []
    for t in range(_PIPELINE_STEPS):
        hard_active, soft_active = [], []
        for con in composed.invariants() + composed.governance():
            if not scope_active(con.scope, t, tuple(boundaries)):
                continue
            (hard_active if con.severity == "hard" else soft_active).append(con.name)
        bad = violated.get(t, set())
        c_hard.append((len(hard_active) - len(bad & set(hard_active))) / len(hard_active))
        c_soft.append((len(soft_active) - len(bad & set(soft_active))) / len(soft_active))
    return {"c_hard": float(np.mean(c_hard)), "c_soft": float(np.mean(c_soft))}


def _composition_scenario(composed: Contract, category: str, index: int) -> dict:
    trace = _pipeline_base_trace()
    b1, b2 = _PIPELINE_BOUNDARIES
    injections: list = []  # (step, constraint-name)
    outcome = "compliant"

    if category == "c1_fail":
        # Interface break: the credit score never arrives at the boundary.
        _del_path(trace["states"][b1], "applicant.credit_score")
        injections.append((b1, "credit-score-present"))
        outcome = "hard_violation"
    elif category == "c2_fail":
        # Discharged assumption missing: analysis runs on bad input.
        _set_path(trace["states"][b1 + 1], "analysis.risk_within_policy", False)
        injections.append((b1 + 1, "risk-within-policy"))
        outcome = "hard_violation"
    elif category == "c3_fail":
        # Governance conflict: decision stage touches demographics.
        trace["actions"][b2]["label"] = "access_demographics"
        injections.append((b2, "no-demographic-access"))
        outcome = "hard_violation"
    elif category == "c4_fail":
        # Recovery side effect: analysis recovery mangles decision input.
        _set_path(trace["states"][b1 + 1], "analysis.confidence", 0.2)
        injections.append((b1 + 1, "analysis-confidence"))
        _set_path(trace["states"][b2 + 1], "decision.justification_present", False)
        injections.append((b2 + 1, "justification-present"))
        outcome = "hard_violation"

    violated: dict = {}
    for step, name in injections:
        violated.setdefault(step, set()).add(name)
    scores = _pipeline_expected_scores(composed, _PIPELINE_BOUNDARIES, violated)
    return {
        "id": f"composition-{category.replace('_', '-')}-{index:03d}",
        "domain": "composition",
        "difficulty": "hard" if category != "clean" else "medium",
        "contract": "contracts/loan-pipeline.yaml",
        "boundaries": list(_PIPELINE_BOUNDARIES),
        "trace": trace,
        "expected": {
            "violations": sorted([s, n] for s, n in injections),
            "outcome": outcome,
            "c_hard_range": _tight(scores["c_hard"]),
            "c_soft_range": _tight(scores["c_soft"]),
        },
    }


def _write_witnesses(suite_dir: str) -> None:
    clean = dict(_PIPELINE_FIELDS)
    states = []
    for score in (640.0, 710.0, 788.0):
        s: dict = {}
        for path, value in clean.items():
            _set_path(s, path, value)
        _set_path(s, "applicant.credit_score", score)
        states.append(s)
    actions = [{"label": label, "payload": {}} for label in
               ("collect_info", "record", "handoff", "decide")]
    os.makedirs(os.path.join(suite_dir, "witnesses"), exist_ok=True)
    with open(os.path.join(suite_dir, "witnesses", "states.json"), "w") as fh:
        json.dump(states, fh, indent=2)
    with open(os.path.join(suite_dir, "witnesses", "actions.json"), "w") as fh:
        json.dump(actions, fh, indent=2)


def generate_suite(out_dir: str, seed: int = 7, per_domain: int = 8,
                   per_category: int = 3) -> dict:
    """Write a full suite to ``out_dir`` and return its manifest.

    Default sizing: 5 domains x 8 agent scenarios + 5 composition
    categories (clean, c1..c4 fault injections) x 3 = 55 scenarios.
    Deterministic for a given seed.
    """
    import yaml as _yaml

    rng = np.random.default_rng(seed)
    contracts_dir = os.path.join(out_dir, "contracts")
    os.makedirs(contracts_dir, exist_ok=True)

    for domain in DOMAINS:
        with open(os.path.join(contracts_dir, f"{domain.slug}.yaml"), "w") as fh:
            fh.write(_domain_contract_yaml(domain))
    for name, doc in _STAGE_DOCS.items():
        with open(os.path.join(contracts_dir, f"{name}.yaml"), "w") as fh:
            fh.write(_yaml.safe_dump(doc, sort_keys=False))
    with open(os.path.join(contracts_dir, "loan-pipeline.yaml"), "w") as fh:
        fh.write(_yaml.safe_dump(_PIPELINE_DOC, sort_keys=False))

    pipeline = load_document(os.path.join(contracts_dir, "loan-pipeline.yaml"))
    composed = pipeline.compose()

    entries = []

    def write(scenario: dict) -> None:
        file_name = f"{scenario['id']}.json"
        with open(os.path.join(out_dir, file_name), "w") as fh:
            json.dump(scenario, fh, indent=2)
        entries.append({"id": scenario["id"], "file": file_name,
                        "domain": scenario["domain"],
                        "difficulty": scenario["difficulty"]})

    profiles = ["clean", "clean", "soft", "soft", "soft", "hard", "hard", "hard"]
    for domain in DOMAINS:
        for i in range(per_domain):
            profile = profiles[i % len(profiles)]
            write(_agent_scenario(domain, i, profile, rng))

    for category in ("clean", "c1_fail", "c2_fail", "c3_fail", "c4_fail"):
        for i in range(per_category):
            write(_composition_scenario(composed, category, i))

    _write_witnesses(out_dir)

    manifest = {"suite": "agentcontracts-bench", "seed": seed, "scenarios": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
