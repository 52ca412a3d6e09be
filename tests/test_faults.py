"""Unit tests for the fault-injection core (``repro.faults``).

These exercise the plan/rule machinery in-process — serialization,
selectors, counters, determinism, retry policy.  End-to-end seeded
chaos against the real pool/scheduler/server lives in
``tests/test_chaos.py``.
"""

import pytest

from repro.faults import (
    ENV_VAR,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedFaultError,
    RetryPolicy,
    activate,
    active_plan,
    deactivate,
    fault_stats,
    inject,
    is_retryable,
    plan_from_rules,
    reset_faults,
)
from repro.faults.plan import _det_unit

pytestmark = pytest.mark.service


@pytest.fixture(autouse=True)
def _disarm():
    """Every test starts and ends in the never-armed state."""
    reset_faults()
    yield
    reset_faults()


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultRule(site="pool.nonsense", kind="kill")

    def test_unsupported_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="does not support kind"):
            FaultRule(site="native.build", kind="kill")

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault rule fields"):
            FaultRule.from_dict({"site": "pool.reply", "kind": "kill", "pe": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(FaultPlanError, match="missing field"):
            FaultRule.from_dict({"site": "pool.reply"})

    def test_dict_roundtrip(self):
        rule = FaultRule(
            site="pool.reply", kind="delay", rank=2, hits=(1, 3), delay_s=0.1
        )
        assert FaultRule.from_dict(rule.to_dict()) == rule


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = plan_from_rules(
            7,
            [
                {"site": "pool.reply", "kind": "kill", "rank": 0, "jobs": [1]},
                {"site": "server.conn", "kind": "drop", "p": 0.5},
            ],
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError, match="bad fault plan JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="must be a JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_env_roundtrip(self, monkeypatch):
        plan = plan_from_rules(3, [{"site": "native.build", "kind": "fail"}])
        env = plan.env()
        assert set(env) == {ENV_VAR}
        monkeypatch.setenv(ENV_VAR, env[ENV_VAR])
        assert FaultPlan.from_env() == plan

    def test_from_env_absent_is_none(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None


class TestInject:
    def test_disarmed_is_none_and_stats_none(self):
        assert inject("pool.reply", rank=0) is None
        assert fault_stats() is None

    def test_always_fires_without_selector(self):
        activate(plan_from_rules(0, [{"site": "server.conn", "kind": "drop"}]))
        assert inject("server.conn").kind == "drop"
        assert inject("server.conn").kind == "drop"

    def test_hits_selector(self):
        activate(
            plan_from_rules(
                0, [{"site": "server.conn", "kind": "drop", "hits": [2]}]
            )
        )
        assert inject("server.conn") is None
        assert inject("server.conn") is not None
        assert inject("server.conn") is None

    def test_rank_filter(self):
        activate(
            plan_from_rules(
                0, [{"site": "pool.reply", "kind": "kill", "rank": 1}]
            )
        )
        assert inject("pool.reply", rank=0) is None
        assert inject("pool.reply", rank=1) is not None

    def test_jobs_selector_ignores_arrival_index(self):
        activate(
            plan_from_rules(
                0, [{"site": "pool.job_send", "kind": "drop", "jobs": [3]}]
            )
        )
        for _ in range(5):  # arrival index is irrelevant to a jobs rule
            assert inject("pool.job_send", job=2) is None
        assert inject("pool.job_send", job=3) is not None

    def test_times_caps_total_fires(self):
        activate(
            plan_from_rules(
                0, [{"site": "server.conn", "kind": "drop", "times": 2}]
            )
        )
        fired = [inject("server.conn") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_p_draws_are_deterministic(self):
        def pattern():
            activate(
                plan_from_rules(
                    11, [{"site": "server.conn", "kind": "drop", "p": 0.4}]
                )
            )
            return [inject("server.conn") is not None for _ in range(50)]

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)  # p=0.4 actually selects

    def test_p_depends_on_seed(self):
        def pattern(seed):
            activate(
                plan_from_rules(
                    seed, [{"site": "server.conn", "kind": "drop", "p": 0.4}]
                )
            )
            return [inject("server.conn") is not None for _ in range(50)]

        assert pattern(1) != pattern(2)

    def test_first_matching_rule_wins(self):
        activate(
            plan_from_rules(
                0,
                [
                    {"site": "pool.reply", "kind": "delay", "rank": 0},
                    {"site": "pool.reply", "kind": "kill"},
                ],
            )
        )
        assert inject("pool.reply", rank=0).kind == "delay"
        assert inject("pool.reply", rank=1).kind == "kill"

    def test_stats_counters(self):
        activate(
            plan_from_rules(
                0, [{"site": "server.conn", "kind": "drop", "hits": [1]}]
            )
        )
        inject("server.conn")
        inject("server.conn")
        stats = fault_stats()
        assert stats["armed"] is True
        assert stats["arrivals"] == {"server.conn": 2}
        assert stats["fires"] == {"server.conn:drop": 1}
        deactivate()
        assert active_plan() is None
        assert fault_stats()["armed"] is False  # counters survive disarm

    def test_det_unit_is_content_keyed(self):
        a = _det_unit(5, "retry", 1)
        assert a == _det_unit(5, "retry", 1)
        assert a != _det_unit(5, "retry", 2)
        assert a != _det_unit(6, "retry", 1)
        assert 0.0 <= a < 1.0


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base=0.1,
            backoff_factor=2.0,
            max_backoff=0.3,
            jitter=0.0,
        )
        delays = [policy.delay(a) for a in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.25)
        d = policy.delay(1, seed=9)
        assert d == policy.delay(1, seed=9)
        assert 0.1 <= d <= 0.1 * 1.25
        assert policy.delay(1, seed=9) != policy.delay(1, seed=10)

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_describe_shape(self):
        desc = RetryPolicy().describe()
        assert desc["max_attempts"] == 3
        assert set(desc) == {
            "max_attempts",
            "backoff_base_s",
            "backoff_factor",
            "max_backoff_s",
            "jitter",
        }


class TestRetryability:
    def test_plain_exceptions_are_not_retryable(self):
        assert not is_retryable(ValueError("nope"))

    def test_injected_fault_is_retryable_and_names_the_site(self):
        rule = FaultRule(site="pool.job_send", kind="drop", rank=1)
        exc = InjectedFaultError(rule)
        assert is_retryable(exc)
        assert exc.site == "pool.job_send"
        assert "pool.job_send" in str(exc) and "drop" in str(exc)

    def test_typed_errors_carry_the_protocol(self):
        from repro.compiler.native import (
            NativeBuildError,
            NativeBuildTransientError,
        )
        from repro.service.client import ServerUnavailableError
        from repro.service.pool import StragglerTimeoutError, WorkerCrashError
        from repro.service.scheduler import QueueFullError

        assert is_retryable(WorkerCrashError("w"))
        assert is_retryable(NativeBuildTransientError("n"))
        assert is_retryable(QueueFullError("q", 0.5))
        assert is_retryable(
            ServerUnavailableError("s", mid_request=False)
        )
        # Deliberate non-members: program-shaped failures must never be
        # silently re-run.
        assert not is_retryable(NativeBuildError("cc rejected codegen"))
        assert not is_retryable(StragglerTimeoutError("deadlock?"))
