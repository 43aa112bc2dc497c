"""Drift score, JSD, window equivalence, and session metrics."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from agentcontracts import drift
from agentcontracts.assets import asset_path
from agentcontracts.drift import (
    DriftWindow,
    _jsd,
    _smooth,
    jsd,
    mean,
    recovery_effectiveness,
    reliability_index,
    stress_resilience,
    update_drift,
)
from agentcontracts.engine import ViolationEvent, evaluate_step
from agentcontracts.errors import (
    DimensionMismatch,
    EmptyInput,
    NotNormalized,
    ZeroBaseline,
    ZeroSeverity,
)
from agentcontracts.generator import generate_suite
from agentcontracts.model import (
    ActionRecord,
    Constraint,
    Contract,
    DriftConfig,
    Predicate,
)
from agentcontracts.monitor import SessionMonitor
from agentcontracts.parser import PipelineContract, load_contract, load_document


@st.composite
def distribution_pairs(draw):
    size = draw(st.integers(1, 60))
    weights = st.lists(st.floats(0, 1, allow_subnormal=False), min_size=size, max_size=size)
    p, q = draw(weights.filter(lambda w: sum(w) >= 1e-3)), draw(
        weights.filter(lambda w: sum(w) >= 1e-3))
    return [v / sum(p) for v in p], [v / sum(q) for v in q]


class TestPurePythonKernels:
    """drift runs without numpy: its JSD against scipy as an oracle, and its
    mean bit for bit against numpy's."""

    @given(pair=distribution_pairs())
    @settings(max_examples=300, deadline=None)
    def test_jsd_matches_scipy(self, pair):
        p, q = pair
        assert jsd(p, q) == pytest.approx(jensenshannon(p, q, base=2) ** 2, abs=1e-12)

    @given(xs=st.lists(st.floats(), max_size=600))
    @settings(max_examples=300, deadline=None)
    def test_mean_is_numpys_bit_for_bit(self, xs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = float(np.mean(xs))
        got = mean(xs)
        assert (math.isnan(got) and math.isnan(expected)) or \
            struct.pack("<d", got) == struct.pack("<d", expected)


def brute_force_jsd(p, q):
    """Independent oracle: direct base-2 KL sums against the mixture."""
    m = [(a + b) / 2 for a, b in zip(p, q)]
    def kl(x, y):
        return sum(a * math.log2(a / b) for a, b in zip(x, y) if a > 0)
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


class TestJsd:
    def test_identical_distributions_zero(self):
        assert jsd([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_support_maximal(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap_value(self):
        # Oracle: hand evaluation of the definition (frozen: 0.311278...).
        expected = brute_force_jsd([1.0, 0.0], [0.5, 0.5])
        assert expected == pytest.approx(0.3112781244591328, abs=1e-12)
        assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            jsd([1.0], [0.5, 0.5])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            jsd([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(NotNormalized):
            jsd([-0.1, 1.1], [0.5, 0.5])

    @pytest.mark.parametrize("p, q", [
        ([math.nan, 1.0], [0.5, 0.5]),
        ([0.5, 0.5], [math.nan, 1.0]),
        ([math.nan, math.nan], [0.5, 0.5]),
        ([0.5, 0.5, math.nan], [0.5, 0.5, 0.0]),
        ([math.inf, 0.0], [0.5, 0.5]),
    ])
    def test_non_finite_entries_not_normalized(self, p, q):
        with pytest.raises(NotNormalized):
            jsd(p, q)

    def test_sqrt_jsd_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q, r = (rng.dirichlet(np.ones(5)) for _ in range(3))
            ab = math.sqrt(jsd(p, q))
            bc = math.sqrt(jsd(q, r))
            ac = math.sqrt(jsd(p, r))
            assert ac <= ab + bc + 1e-9


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestDistributionalDriftTerms:
    """The window's divergence reuses cached terms for labels absent from
    it; it must equal the plain kernel over the full support bit for bit."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_plain_kernel_bit_for_bit(self, data):
        size = data.draw(st.integers(1, 60))
        vocabulary = [f"a{i}" for i in range(size)]
        weights = data.draw(st.lists(st.floats(0, 1, allow_subnormal=False), min_size=size,
                                     max_size=size).filter(lambda w: sum(w) >= 1e-3))
        config = DriftConfig(window=data.draw(st.integers(1, 20)), vocabulary=vocabulary,
                             reference={a: w / sum(weights) for a, w in zip(vocabulary, weights)})
        labels = st.sampled_from(vocabulary + ["oov-1", "oov-2"])
        # Fresh windows on one configuration share its cache of terms.
        for _ in range(data.draw(st.integers(1, 3))):
            window = DriftWindow(config)
            reference = _smooth([config.reference.get(a, 0.0) for a in window.support])
            assert window.distributional_drift() == 0.0
            for label in data.draw(st.lists(labels, min_size=1, max_size=40)):
                window.push(label)
                expected = _jsd(_smooth(window.observed()), reference)
                assert bits(window.distributional_drift()) == bits(expected)

    def test_the_cache_of_terms_stays_bounded(self, monkeypatch):
        # A window gives only a few distinct smoothed totals (4 here), so
        # the bound is lowered to see it hold.
        monkeypatch.setattr(drift, "_ABSENT_TERMS_KEPT", 2)
        vocabulary = [f"a{i}" for i in range(40)]
        config = DriftConfig(window=20, vocabulary=vocabulary,
                             reference={a: (i + 1) / 820 for i, a in enumerate(vocabulary)})
        reference = _smooth([config.reference[a] for a in vocabulary] + [0.0])
        rng = np.random.default_rng(3)
        window = DriftWindow(config)
        norms = set()
        for label in rng.choice(vocabulary, size=600):
            window.push(str(label))
            expected = _jsd(_smooth(window.observed()), reference)
            assert bits(window.distributional_drift()) == bits(expected)
            norms.update(window._absent_terms)
            assert len(window._absent_terms) <= 2
        assert len(norms) > 2


def gate_count(config):
    """The count vectors a window over the configuration can hold: at most
    ``window`` labels over the vocabulary plus the pooled bucket."""
    return math.comb(config.window + len(config.vocabulary) + 1, len(config.vocabulary) + 1)


class TestWindowStateTable:
    """A configuration with few reachable windows keeps a table from count
    vector to divergence; its values are the plain kernel's bit for bit."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tabled_and_untabled_windows_equal_the_plain_kernel(self, data):
        # Sizes and windows on both sides of the gate; streams over a few
        # labels revisit windows, and fresh windows fill one shared table.
        size = data.draw(st.sampled_from([1, 2, 4, 9, 30]))
        vocabulary = [f"a{i}" for i in range(size)]
        weights = data.draw(st.lists(st.floats(0, 1, allow_subnormal=False), min_size=size,
                                     max_size=size).filter(lambda w: sum(w) >= 1e-3))
        config = DriftConfig(window=data.draw(st.integers(1, 12)), vocabulary=vocabulary,
                             reference={a: w / sum(weights) for a, w in zip(vocabulary, weights)})
        tabled = gate_count(config) * (size + 1) <= 2 ** 16
        labels = st.sampled_from(vocabulary[:3] + ["oov-1", "oov-2"])
        windows = []
        for _ in range(data.draw(st.integers(1, 3))):
            window = DriftWindow(config)
            windows.append(window)
            reference = _smooth([config.reference.get(a, 0.0) for a in window.support])
            for label in data.draw(st.lists(labels, min_size=1, max_size=60)):
                window.push(label)
                expected = _jsd(_smooth(window.observed()), reference)
                assert bits(window.distributional_drift()) == bits(expected)
                assert bits(window.distributional_drift()) == bits(expected)  # a hit
        table = windows[0]._table
        assert all(w._table is table for w in windows)
        if not tabled:
            assert table is None
            return
        assert len(table) <= gate_count(config)
        for counts, value in table.items():
            observed = [c / sum(counts) for c in counts]
            assert bits(value) == bits(_jsd(_smooth(observed), reference))

    def test_the_bundled_and_generated_contracts_get_a_table(self, tmp_path):
        contracts = [load_contract(asset_path("contracts", "financial-advisor.yaml"))]
        for seed in (1, 2, 3, 7, 11):
            out = tmp_path / str(seed)
            generate_suite(str(out), seed=seed)
            for path in sorted((out / "contracts").glob("*.yaml")):
                doc = load_document(str(path))
                if isinstance(doc, PipelineContract):
                    contracts += [doc.compose()] + [s.contract for s in doc.stages]
                else:
                    contracts.append(doc)
        assert len(contracts) > 40
        # A contract with no vocabulary (the loan pipeline's) has no
        # reference and no distributional drift to table.
        drifting = [c for c in contracts if c.drift_config.vocabulary]
        assert len(drifting) > 20
        for contract in contracts:
            table = DriftWindow.for_contract(contract)._table
            assert (table is not None) is bool(contract.drift_config.vocabulary), contract.name
        for contract in drifting:
            assert gate_count(contract.drift_config) * 5 == 630, contract.name

    def test_a_config_past_the_gate_gets_none(self):
        vocabulary = [f"a{i}" for i in range(50)]
        config = DriftConfig(window=10, vocabulary=vocabulary,
                             reference={a: 1 / 50 for a in vocabulary})
        window = DriftWindow(config)
        for label in vocabulary[:20]:
            window.push(label)
            window.distributional_drift()
        assert window._table is None
        assert gate_count(config) * 51 > 4.5e12

    def test_a_config_without_reference_fills_no_table(self):
        window = DriftWindow(DriftConfig(window=3))
        window.push("a")
        assert window.distributional_drift() == 0.0
        assert window._table is None

    def test_monitors_on_one_contract_share_its_tables(self):
        contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
        one, two = SessionMonitor(contract).window, SessionMonitor(contract).window
        assert one.support is two.support
        assert one._index is two._index
        assert one._weights is two._weights
        assert one._table is two._table
        assert one._labels is not two._labels and one._counts is not two._counts


def contract_for_drift(w_c=0.7, w_d=0.3):
    config = DriftConfig(w_c=w_c, w_d=w_d, window=3,
                         vocabulary=("a", "b"), reference={"a": 0.5, "b": 0.5})
    return Contract(
        name="d",
        invariants_hard=(Constraint(
            name="inv", severity="hard",
            check=Predicate(field_path="x", operator="ge", operand=1)),),
        governance_hard=(Constraint(
            name="gov", severity="hard",
            check=Predicate(field_path="cost", operator="le", operand=10)),),
        drift_config=config,
    )


def run_steps(contract, pairs):
    """pairs: (state, action) tuples; returns drift samples."""
    window = DriftWindow.for_contract(contract)
    samples = []
    for t, (state, action) in enumerate(pairs):
        ev = evaluate_step(contract, state, action, t)
        samples.append(update_drift(window, contract.drift_config, ev, action))
    return samples


class TestUpdateDrift:
    def test_full_compliance_reference_actions_zero(self):
        contract = contract_for_drift()
        # Window 3 with alternating a/b converges to (0.5, 0.5) = reference
        # after an even number of pushes within the window... use window=2.
        config = DriftConfig(w_c=0.7, w_d=0.3, window=2,
                             vocabulary=("a", "b"), reference={"a": 0.5, "b": 0.5})
        contract = Contract(name="d", invariants_hard=contract.invariants_hard,
                            governance_hard=contract.governance_hard,
                            drift_config=config)
        pairs = [({"x": 5}, ActionRecord("a", {"cost": 1})),
                 ({"x": 5}, ActionRecord("b", {"cost": 1})),
                 ({"x": 5}, ActionRecord("a", {"cost": 1}))]
        samples = run_steps(contract, pairs)
        assert samples[1].d_total == pytest.approx(0.0, abs=1e-12)
        assert samples[1].d_compliance == 0.0
        assert samples[1].d_distributional == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_distribution_gives_w_d(self):
        config = DriftConfig(w_c=0.7, w_d=0.3, window=3,
                             vocabulary=("a", "b"), reference={"a": 1.0, "b": 0.0})
        contract = Contract(
            name="d",
            invariants_hard=(Constraint(
                name="inv", severity="hard",
                check=Predicate(field_path="x", operator="ge", operand=1)),),
            drift_config=config)
        pairs = [({"x": 5}, ActionRecord("b"))] * 3
        samples = run_steps(contract, pairs)
        # Smoothing (eps = 1e-9) keeps this marginally below the exact 0.3.
        assert samples[-1].d_total == pytest.approx(0.3, abs=1e-6)

    def test_all_violated_identical_distribution_gives_w_c(self):
        contract = contract_for_drift()
        pairs = [({"x": 0}, ActionRecord("a", {"cost": 99})),
                 ({"x": 0}, ActionRecord("b", {"cost": 99}))]
        samples = run_steps(contract, pairs)
        assert samples[-1].d_compliance == 1.0
        assert samples[-1].d_total == pytest.approx(
            0.7 + 0.3 * samples[-1].d_distributional, abs=1e-12)

    def test_weighted_gap_uses_constraint_weights(self):
        config = DriftConfig(vocabulary=("a",), reference={"a": 1.0})
        contract = Contract(
            name="d",
            invariants_hard=(
                Constraint(name="heavy", severity="hard", weight=3.0,
                           check=Predicate(field_path="x", operator="ge", operand=1)),
                Constraint(name="light", severity="hard", weight=1.0,
                           check=Predicate(field_path="y", operator="ge", operand=1)),),
            drift_config=config)
        pairs = [({"x": 0, "y": 5}, ActionRecord("a"))]
        samples = run_steps(contract, pairs)
        assert samples[0].d_compliance == pytest.approx(0.75)

    def test_decomposition_splits_sources(self):
        contract = contract_for_drift()
        pairs = [({"x": 0}, ActionRecord("a", {"cost": 1}))]
        sample = run_steps(contract, pairs)[0]
        d_pre, d_inv, d_gov, d_dist = sample.decomposition
        assert d_pre == 0.0
        assert d_inv == 1.0   # the only invariant is violated
        assert d_gov == 0.0
        assert d_dist == sample.d_distributional

    def test_out_of_vocabulary_pools_into_other(self):
        contract = contract_for_drift()
        window = DriftWindow.for_contract(contract)
        window.push("weird-label")
        observed = window.observed()
        assert observed[-1] == 1.0  # __other__ bucket
        assert window.distributional_drift() > 0.5

    def test_incremental_equals_recompute(self):
        rng = np.random.default_rng(7)
        contract = contract_for_drift()
        window = DriftWindow.for_contract(contract)
        labels = [str(rng.choice(["a", "b", "zzz"])) for _ in range(40)]
        for i, label in enumerate(labels):
            window.push(label)
            fresh = DriftWindow.for_contract(contract)
            for kept in labels[max(0, i + 1 - contract.drift_config.window): i + 1]:
                fresh.push(kept)
            assert np.allclose(window.observed(), fresh.observed())

    def test_bounded_and_minimality_randomized(self):
        rng = np.random.default_rng(21)
        contract = contract_for_drift()
        for _ in range(200):
            window = DriftWindow.for_contract(contract)
            x = float(rng.integers(0, 3))
            cost = float(rng.integers(0, 20))
            label = str(rng.choice(["a", "b", "zzz"]))
            ev = evaluate_step(contract, {"x": x}, ActionRecord(label, {"cost": cost}), 0)
            sample = update_drift(window, contract.drift_config, ev,
                                  ActionRecord(label, {"cost": cost}))
            assert 0.0 <= sample.d_total <= 1.0
            full_compliance = x >= 1 and cost <= 10
            identical = False  # one action never matches a 50/50 reference
            if sample.d_total == 0.0:
                assert full_compliance and identical


class TestSessionMetrics:
    def test_single_event(self):
        event = ViolationEvent(step=1, constraint="c", severity="soft",
                               nu=0.5, recovered_at=3, delta_t_recovery=2)
        assert recovery_effectiveness([event]) == 4.0

    def test_no_events_zero(self):
        assert recovery_effectiveness([]) == 0.0

    def test_mean_over_events(self):
        events = [
            ViolationEvent(step=0, constraint="a", severity="soft",
                           nu=0.25, recovered_at=1, delta_t_recovery=1),
            ViolationEvent(step=2, constraint="b", severity="soft",
                           nu=0.5, recovered_at=4, delta_t_recovery=2),
        ]
        assert recovery_effectiveness(events) == pytest.approx((4 + 4) / 2)

    def test_zero_severity_rejected_at_construction(self):
        with pytest.raises(ZeroSeverity):
            ViolationEvent(step=0, constraint="c", severity="soft", nu=0.0)

    def test_unrecovered_events_excluded(self):
        open_event = ViolationEvent(step=0, constraint="c", severity="soft", nu=0.5)
        assert recovery_effectiveness([open_event]) == 0.0

    def test_stress_resilience_ratios(self):
        assert stress_resilience([1.0, 1.0], [1.0, 1.0]) == 1.0
        assert stress_resilience([0.8, 0.8], [1.0, 1.0]) == pytest.approx(0.8)
        assert stress_resilience([0.99], [0.9]) == pytest.approx(1.1)

    def test_stress_resilience_errors(self):
        with pytest.raises(EmptyInput):
            stress_resilience([], [1.0])
        with pytest.raises(ZeroBaseline):
            stress_resilience([0.5], [0.0, 0.0])

    def test_reliability_perfect_session(self):
        assert reliability_index(1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_reliability_worst_case_limit(self):
        assert reliability_index(0.0, 1.0, 1e12, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_reliability_default_weights_example(self):
        theta = reliability_index(0.9, 0.1, 1.0, 1.0)
        assert theta == pytest.approx(0.4 * 0.9 + 0.3 * 0.9 + 0.2 * 0.5 + 0.1 * 1.0)
        assert theta == pytest.approx(0.83)

    def test_reliability_clamps_stress_only_inside(self):
        assert reliability_index(1.0, 0.0, 0.0, 1.7) == pytest.approx(1.0)

    def test_reliability_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c, d, e, s = rng.random(), rng.random(), rng.random() * 5, rng.random()
            base = reliability_index(c, d, e, s)
            assert reliability_index(min(1, c + 0.1), d, e, s) >= base
            assert reliability_index(c, min(1, d + 0.1), e, s) <= base
            assert reliability_index(c, d, e + 0.5, s) <= base
            assert reliability_index(c, d, e, min(1, s + 0.1)) >= base
