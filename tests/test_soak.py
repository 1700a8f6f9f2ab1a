"""The multi-tenant soak: 100+ tenants, seeded faults, fourteen invariants.

The acceptance bar for the service plane: a fleet of 100+ tenants with
heterogeneous quotas/weights/backpressure caps — all deliberately
reusing the same command ids — completes under probabilistic message
faults with every invariant green, exact quota ledgers and zero
cross-tenant leakage, and the whole run reproduces from its seed.
"""

import pytest

from repro.net.protocol import MessageType
from repro.testing import TenantSpec, run_multitenant_soak
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def soak():
    # one full-size run shared by the assertions below (it is the
    # expensive part; ~100 tenants of short MD commands)
    return run_multitenant_soak(n_tenants=100, seed=0)


def test_soak_completes_all_tenants(soak):
    assert len(soak.specs) == 100
    assert soak.completed_tenants() == 100


def test_soak_passes_all_fourteen_invariants(soak):
    assert soak.violations == []


def test_soak_actually_injected_faults(soak):
    # a soak without weather proves nothing
    assert soak.chaos["firings"] > 0
    assert soak.chaos["dropped"] > 0


def test_soak_exercises_backpressure_and_quotas(soak):
    ledgers = {t: r["ledger"] for t, r in soak.report.items() if r["ledger"]}
    assert sum(l["deferred_total"] for l in ledgers.values()) > 0
    assert all(l["deferred_pending"] == 0 for l in ledgers.values())
    # every 5th tenant is quota-capped at 2; ledgers must respect it
    for k in range(0, 100, 5):
        ledger = ledgers[f"tenant{k:03d}"]
        assert ledger["peak_in_flight"] <= 2, (k, ledger)
    # all work released: nothing in flight at the end
    assert all(l["in_flight"] == 0 for l in ledgers.values())


def test_soak_zero_cross_tenant_leakage(soak):
    # every controller saw exactly its own command count, with the
    # colliding ids resolved per tenant
    for spec in soak.specs:
        controller = soak.controllers[spec.name]
        assert sorted(controller.finished) == sorted(
            f"cmd{k}" for k in range(spec.n_commands)
        ), spec.name


def test_soak_spreads_tenants_across_shards(soak):
    shards = {r["shard"] for r in soak.report.values()}
    assert len(shards) == len(soak.shards)  # every shard hosts someone


def test_soak_exports_per_tenant_metrics(soak):
    metrics = soak.obs.metrics
    for name in ("tenant000", "tenant042", "tenant099"):
        completed = metrics.value(
            "repro_tenant_commands_completed",
            project=name,
            shard=soak.report[name]["shard"],
        )
        assert completed == soak.report[name]["completed"]


def test_soak_is_deterministic_from_its_seed():
    # the soak harness's one true run-twice test: it proves seeding
    # itself works, where the churn scenarios trust a committed digest
    a = run_multitenant_soak(n_tenants=12, n_shards=2, seed=3)
    b = run_multitenant_soak(n_tenants=12, n_shards=2, seed=3)
    assert a.transcript == b.transcript
    assert a.report == b.report


def test_soak_with_custom_faults_and_mix():
    specs = [
        TenantSpec(name="solo-a", model="double-well", n_commands=2,
                   n_steps=150, quota=1),
        TenantSpec(name="solo-b", model="muller-brown", n_commands=2,
                   n_steps=150, max_queued=1),
    ]

    def configure(plan):
        plan.duplicate(message_type=MessageType.COMMAND_RESULT, count=3)

    result = run_multitenant_soak(
        specs=specs, n_shards=2, workers_per_shard=1,
        configure=configure, seed=9,
    )
    assert result.violations == []
    assert result.completed_tenants() == 2
    assert result.report["solo-b"]["ledger"]["deferred_total"] > 0


def test_soak_rejects_bad_populations():
    with pytest.raises(ConfigurationError):
        run_multitenant_soak(specs=[], seed=0)
    dup = TenantSpec(name="d", model="double-well", n_commands=1, n_steps=100)
    with pytest.raises(ConfigurationError):
        run_multitenant_soak(specs=[dup, dup], seed=0)


def test_soak_cli_emits_json_verdict(tmp_path, capsys):
    import json

    from repro.cli import main

    out_file = tmp_path / "soak.json"
    code = main([
        "soak", "--tenants", "10", "--shards", "2", "--seed", "1",
        "--out", str(out_file),
    ])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["invariants_ok"] is True
    assert report["completed"] == report["tenants"] == 10
    assert set(report["per_tenant"]) == {f"tenant{k:03d}" for k in range(10)}
