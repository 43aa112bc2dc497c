"""Seeded inputs for the benchmark workloads.

The seed picks contents and order; the properties the program's cost
depends on (session counts, the length range, the outcome mix, the
operator mix of the synthetic contract) are fixed, so different seeds load
the program alike.  Where the repository records such a property, it is
taken from there: the ensemble's outcome mix and session lengths from the
scenario generator (``agentcontracts.generator``), the long-session
contract's size from the paper's enforcement-overhead criterion
(``tests/test_acceptance.py::test_criterion_11``).

Every session comes with its plan: the ``(step, constraint)`` pairs the
monitor must flag and the outcome it must report.
"""

from __future__ import annotations

import copy
import random

import yaml

# ---------------------------------------------------------------------------
# ensemble-replay: the bundled financial-advisor contract
# ---------------------------------------------------------------------------

ADVISOR_VOCAB = ("respond", "lookup_market_data", "place_trade", "clarify")
ADVISOR_WEIGHTS = (0.55, 0.25, 0.10, 0.10)   # the contract's drift reference
# The repository records no out-of-vocabulary rate; at one label in 12
# about two sessions in five carry one, so drift's pooled bucket is used.
OOV_LABELS = ("summarize_portfolio", "small_talk", "fetch_news")
OOV_RATE = 0.08

# The repository records no ensemble size either; 400 is 50 cycles of the
# profile mix, and one ensemble then runs in about half a second, so a run
# holds dozens of pdk_verdict calls.
ENSEMBLE_SESSIONS = 400
# generate_suite's profile cycle (2 clean, 3 soft, 3 hard per 8 sessions)
# and its session length, 5 to 8 steps.
PROFILES = ("compliant", "compliant", "soft", "soft", "soft", "hard", "hard", "hard")
SESSION_STEPS = (5, 8)
SOFT = ("professional-tone", "latency-advisory")
HARD = ("no-pii-disclosure", "trade-within-limit")

_OUTCOME = {"compliant": "compliant", "soft": "soft_violation", "hard": "hard_violation"}


def _advisor_label(rng: random.Random) -> str:
    if rng.random() < OOV_RATE:
        return rng.choice(OOV_LABELS)
    return rng.choices(ADVISOR_VOCAB, ADVISOR_WEIGHTS)[0]


def _advisor_inject(states: list, actions: list, t: int, name: str) -> None:
    if name == "professional-tone":
        states[t]["output"]["tone_score"] = 0.4
    elif name == "latency-advisory":
        actions[t]["payload"]["latency_ms"] = 5200
    elif name == "no-pii-disclosure":
        states[t]["output"]["pii_detected"] = True
    else:   # trade-within-limit: a trade far over the client's cap
        actions[t]["label"] = "place_trade"
        actions[t]["payload"]["amount"] = states[t]["limits"]["max_trade"] * 5


def _advisor_session(rng: random.Random, kind: str) -> dict:
    """One session built as generate_suite builds an agent scenario: 1-2
    distinct soft (or hard) constraints violated for one step each at
    non-adjacent steps, so every soft dip recovers; a hard session gets one
    extra soft violation half the time."""
    steps = rng.randint(*SESSION_STEPS)
    max_trade = rng.choice((5000, 10000, 20000))
    states = [{"session": {"client_profile_loaded": True},
               "output": {"pii_detected": False,
                          "tone_score": round(rng.uniform(0.72, 0.99), 3)},
               "limits": {"max_trade": max_trade}}
              for _ in range(steps + 1)]
    actions = []
    for _ in range(steps):
        label = _advisor_label(rng)
        amount = round(rng.uniform(100, max_trade), 2) if label == "place_trade" else 0
        actions.append({"label": label,
                        "payload": {"amount": amount,
                                    "latency_ms": rng.randint(150, 1900)}})

    def pick_steps(n: int) -> list:
        candidates = list(range(0, steps - 1, 2))
        rng.shuffle(candidates)
        return sorted(candidates[:n])

    flagged = []
    if kind != "compliant":
        names = rng.sample(SOFT if kind == "soft" else HARD, rng.randint(1, 2))
        flagged = list(zip(pick_steps(len(names)), names))
        if kind == "hard" and rng.random() < 0.5:
            flagged.append((pick_steps(1)[0], rng.choice(SOFT)))
    for t, name in flagged:
        _advisor_inject(states, actions, t, name)
    return {"trace": {"states": states, "actions": actions}, "kind": kind,
            "flagged": sorted(flagged), "outcome": _OUTCOME[kind]}


def ensemble_sessions(seed: int) -> list:
    """One ensemble of ``ENSEMBLE_SESSIONS`` sessions in ``PROFILES``
    proportions, in a seeded order."""
    rng = random.Random(seed)
    kinds = [PROFILES[i % len(PROFILES)] for i in range(ENSEMBLE_SESSIONS)]
    rng.shuffle(kinds)
    return [_advisor_session(rng, kind) for kind in kinds]


def expected_pdk(sessions: list) -> dict:
    """The (p, delta, k) verdict the plan implies: every session usable,
    the hard sessions the only counterexamples."""
    return {
        "sessions": len(sessions),
        "excluded": 0,
        "hard_counterexamples": tuple(i for i, s in enumerate(sessions) if s["kind"] == "hard"),
        "soft_counterexamples": (),
    }


# ---------------------------------------------------------------------------
# long-session: a synthetic contract in the paper's overhead setting
# ---------------------------------------------------------------------------

FIELD_OPERATORS = ("eq", "ne", "lt", "le", "gt", "ge", "in", "not_in",
                   "matches", "range", "exists")
PER_OPERATOR = 8
EXPRESSIONS = 12      # 100 constraints in all
SECTIONS = (("inv_hard", 30), ("inv_soft", 30), ("gov_hard", 20), ("gov_soft", 20))
VOCAB_SIZE = 50
WINDOW = 10
# Step counts of the sessions of one cycle, and which may carry hard
# violations (the others end soft_violation).
LONG_SESSIONS = ((300, True), (600, False), (1200, True))
# One injected event per this many steps: generate_suite's rate, 10.5
# injections per 8 sessions of 6.5 steps on average.
INJECTION_EVERY = 5

_STRATEGIES = (
    {"name": "retry", "type": "re_prompt", "max_attempts": 2, "fallback": "escalate"},
    {"name": "escalate", "type": "escalate_human", "max_attempts": 1},
    {"name": "adjust", "type": "prompt_adjust", "max_attempts": 1, "fallback": "notify"},
    {"name": "notify", "type": "emit_event", "max_attempts": 1},
)

_MISSING = object()


class _Spec:
    """One synthetic constraint: its check and how to make values that
    satisfy or violate it."""

    def __init__(self, index: int, kind: str, section: str, rng: random.Random):
        self.name = f"c{index:03d}-{kind}"
        self.kind = kind
        self.section = section
        self.governance = section.startswith("gov")
        self.hard = section.endswith("hard")
        self.on_missing = ("satisfy", "skip", "violate", "violate", "violate")[index % 5]
        self.recovery = None if self.hard else ("retry", "adjust", None)[index % 3]
        self.rng = rng
        self._build(index)

    def _path(self, index: int, leaf: str) -> str:
        depth = index % 3
        if self.governance:
            return (leaf, f"p{index % 4}.{leaf}", f"p{index % 4}.q{index % 3}.{leaf}")[depth]
        return (f"m{index % 6}.{leaf}", f"s{index % 4}.g{index % 5}.{leaf}",
                f"s{index % 4}.g{index % 5}.h{index % 2}.{leaf}")[depth]

    def _build(self, i: int) -> None:
        rng = self.rng
        k = self.kind
        self.paths = [self._path(i, f"f{i}")]
        self.operand = None
        self.expr = None
        if k == "eq":
            self.operand = rng.choice(("ok", "green", "ready"))
        elif k == "ne":
            self.operand = "blocked"
        elif k in ("lt", "le", "gt", "ge"):
            self.operand = round(rng.uniform(50, 100), 2)
        elif k == "in":
            self.operand = ["alpha", "beta", "gamma"]
        elif k == "not_in":
            self.operand = ["red", "black"]
        elif k == "matches":
            self.operand = r"^ok-[0-9]+$"
        elif k == "range":
            lo = round(rng.uniform(0, 20), 2)
            self.operand = [lo, lo + 60]
        elif k == "expr":
            a, b, c = (self._path(i, f"{x}{i}") for x in "abc")
            self.paths = [a, b, c]
            ref = (lambda p: f"action.{p}") if self.governance else (lambda p: p)
            form = i % 3
            if form == 0:
                # the cap always comes from the state, as in a trade limit
                self.expr = f"{ref(a)} + {ref(b)} <= {c} * 1.5"
            elif form == 1:
                self.expr = f"abs({ref(a)} - {ref(b)}) < 5 and not {ref(c)}"
            else:
                self.expr = f"len({ref(a)}) >= 2 and {ref(b)} != \"bad\" and {ref(c)} >= 0"
            self.form = form

    def check(self) -> dict:
        if self.kind == "expr":
            return {"expr": self.expr}
        out = {"field": self.paths[0], "operator": self.kind}
        if self.kind != "exists":
            out["value"] = self.operand
        return out

    def document(self) -> dict:
        doc = {"name": self.name, "check": self.check()}
        if self.on_missing != "violate":
            doc["on_missing"] = self.on_missing
        if self.recovery:
            doc["recovery"] = self.recovery
        return doc

    # -- values ----------------------------------------------------------

    def clean(self) -> list:
        """(path, value, in_state) triples that satisfy the constraint."""
        rng = self.rng
        k = self.kind
        if k == "expr":
            a, b, c = self.paths
            if self.form == 0:
                vals = (round(rng.uniform(0, 10), 2), round(rng.uniform(0, 10), 2),
                        round(rng.uniform(20, 40), 2))
                return [(a, vals[0], not self.governance), (b, vals[1], not self.governance),
                        (c, vals[2], True)]
            if self.form == 1:
                x = round(rng.uniform(0, 10), 2)
                vals = (x, round(x + rng.uniform(-2, 2), 2), False)
            else:
                vals = (["t"] * rng.randint(2, 4), "good", rng.randint(0, 9))
            return [(p, v, not self.governance) for p, v in zip(self.paths, vals)]
        if k == "eq":
            v = self.operand
        elif k == "ne":
            v = rng.choice(("open", "idle"))
        elif k in ("lt", "le"):
            v = round(rng.uniform(0, self.operand * 0.9), 3)
        elif k in ("gt", "ge"):
            v = round(self.operand + rng.uniform(1, 50), 3)
        elif k == "in":
            v = rng.choice(self.operand)
        elif k == "not_in":
            v = rng.choice(("green", "white"))
        elif k == "matches":
            v = f"ok-{rng.randint(0, 9999)}"
        elif k == "range":
            v = round(rng.uniform(self.operand[0], self.operand[1]), 3)
        else:  # exists
            v = rng.randint(0, 100)
        return [(self.paths[0], v, not self.governance)]

    def violation(self) -> tuple:
        """(path, value) that violates the constraint; ``_MISSING`` deletes
        the field (``exists`` checks are violated only that way)."""
        k = self.kind
        if k == "expr":
            a, b, c = self.paths
            return ((a, 100.0), (c, True), (b, "bad"))[self.form]
        bad = {"eq": "bad", "ne": "blocked", "in": "zeta", "not_in": "red",
               "matches": "err-7", "exists": _MISSING}
        if k in bad:
            return self.paths[0], bad[k]
        if k in ("lt", "le"):
            return self.paths[0], self.operand + 5.0
        if k in ("gt", "ge"):
            return self.paths[0], self.operand - 5.0
        return self.paths[0], self.operand[1] + 5.0  # range

    def missing_path(self) -> str:
        return self.paths[-1]

    def in_state(self, path: str) -> bool:
        if not self.governance:
            return True
        return self.kind == "expr" and self.form == 0 and path == self.paths[2]


def _set(mapping: dict, path: str, value) -> None:
    parts = path.split(".")
    for p in parts[:-1]:
        mapping = mapping.setdefault(p, {})
    if value is _MISSING:
        mapping.pop(parts[-1], None)
    else:
        mapping[parts[-1]] = value


class LongSessionInputs:
    """The synthetic contract (as YAML text) and one cycle of planned
    sessions over it."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        kinds = [op for op in FIELD_OPERATORS for _ in range(PER_OPERATOR)] \
            + ["expr"] * EXPRESSIONS
        rng.shuffle(kinds)
        sections = [s for s, n in SECTIONS for _ in range(n)]
        self.specs = [_Spec(i, kind, section, rng)
                      for i, (kind, section) in enumerate(zip(kinds, sections))]
        self.vocabulary = [f"act{i:02d}" for i in range(VOCAB_SIZE)]
        raw = [1.0 / (i + 1) for i in range(VOCAB_SIZE)]
        self.reference = [round(w / sum(raw), 12) for w in raw]
        self.reference[0] = round(1.0 - sum(self.reference[1:]), 12)
        self.contract_yaml = self._contract_yaml(seed)
        self._by_name = {s.name: s for s in self.specs}
        self.sessions = [self._session(rng, steps, allow_hard)
                         for steps, allow_hard in LONG_SESSIONS]

    def _contract_yaml(self, seed: int) -> str:
        def section(name):
            return [s.document() for s in self.specs if s.section == name]

        doc = {
            "contractspec": "1.0",
            "kind": "agent",
            "name": f"long-session-{seed}",
            "preconditions": [
                {"name": "system-ready",
                 "check": {"field": "sys.ready", "operator": "eq", "value": True}},
                {"name": "step-counter", "check": {"field": "meta.t", "operator": "exists"}},
            ],
            "invariants": {"hard": section("inv_hard"), "soft": section("inv_soft")},
            "governance": {"hard": section("gov_hard"), "soft": section("gov_soft")},
            "recovery": {"strategies": [dict(s) for s in _STRATEGIES]},
            "satisfaction": {"p": 0.9, "delta": 0.1, "k": 2},
            "drift": {"w_c": 0.7, "w_d": 0.3, "window": WINDOW,
                      "vocabulary": self.vocabulary,
                      "reference": dict(zip(self.vocabulary, self.reference)),
                      "theta1": 0.05, "theta2": 0.3},
            "reliability": {"a1": 0.4, "a2": 0.3, "a3": 0.2, "a4": 0.1},
        }
        return yaml.safe_dump(doc, sort_keys=False)

    def _clean_step(self, rng: random.Random, t: int) -> tuple:
        state = {"sys": {"ready": True}, "meta": {"t": t}}
        payload: dict = {}
        for spec in self.specs:
            for path, value, in_state in spec.clean():
                _set(state if in_state else payload, path, value)
        if rng.random() < OOV_RATE:
            label = f"unknown{rng.randrange(5)}"
        else:
            label = rng.choices(self.vocabulary, self.reference)[0]
        return state, {"label": label, "payload": payload}

    def _session(self, rng: random.Random, steps: int, allow_hard: bool) -> dict:
        states, actions = [], []
        for t in range(steps):
            s, a = self._clean_step(rng, t)
            states.append(s)
            actions.append(a)
        states.append(self._clean_step(rng, steps)[0])

        # Event mix, so that every path the monitor has runs: hard
        # violations, soft ones the hook corrects or declines, and missing
        # fields under each on_missing policy.  Hard events are swapped for
        # soft ones in a session that must end soft_violation.
        pattern = ("hard", "soft_fix", "soft_decline", "missing_ok",
                   "soft_fix", "missing_violate", "hard", "soft_decline")
        busy: dict = {}   # constraint name -> list of (start, end) step spans
        flagged = []
        fixes = {}
        for e in range(steps // INJECTION_EVERY):
            event = pattern[e % len(pattern)]
            if event == "hard" and not allow_hard:
                event = "soft_fix" if e % 2 else "soft_decline"
            self._place(rng, event, steps, allow_hard, states, actions, busy, flagged, fixes)
        hard = any(self._by_name[n].hard for _, n in flagged)
        outcome = "hard_violation" if hard else ("soft_violation" if flagged else "compliant")
        return {"trace": {"states": states, "actions": actions},
                "flagged": sorted(flagged), "outcome": outcome, "fixes": fixes}

    def _place(self, rng, event, steps, allow_hard, states, actions, busy, flagged,
               fixes) -> None:
        if event == "hard":
            pool = [s for s in self.specs if s.hard]
            length = rng.choice((1, 2))
        elif event == "soft_fix":
            pool = [s for s in self.specs if not s.hard]
            length = 1
        elif event == "soft_decline":
            pool = [s for s in self.specs if not s.hard]
            length = rng.randint(1, 4)
        elif event == "missing_ok":
            pool = [s for s in self.specs
                    if s.on_missing in ("satisfy", "skip") and s.kind != "exists"]
            length = rng.choice((1, 2))
        else:  # missing_violate
            pool = [s for s in self.specs if s.on_missing == "violate"
                    and s.kind != "exists" and (allow_hard or not s.hard)]
            length = 1
        for _ in range(20):
            spec = rng.choice(pool)
            t = rng.randrange(0, steps - length + 1)
            end = t + length - 1
            spans = busy.setdefault(spec.name, [])
            # One clean step around every event closes the episode before
            # the next one opens.
            if any(t <= e + 1 and s <= end + 1 for s, e in spans):
                continue
            spans.append((t, end))
            break
        else:
            return   # no free span for this event

        if event in ("missing_ok", "missing_violate"):
            path, value = spec.missing_path(), _MISSING
        else:
            path, value = spec.violation()
        for u in range(t, end + 1):
            if event == "soft_fix":
                fixes[(u, spec.name)] = (copy.deepcopy(states[u]), copy.deepcopy(actions[u]))
            if spec.in_state(path):
                _set(states[u], path, value)
            else:
                _set(actions[u]["payload"], path, value)
        if event != "missing_ok":
            flagged.append((t, spec.name))
