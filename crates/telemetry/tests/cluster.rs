//! The cluster differential: partitioning ingestion across N nodes and
//! folding their exported states through the coordinator must reproduce
//! the single-store merge **byte-for-byte** — clean, under transport
//! chaos, and across deterministic kill-and-restart schedules.

use hangdoctor::HangDoctorConfig;
use hd_appmodel::corpus::table5;
use hd_faults::{FaultConfig, LinkFaultConfig, NodeCrashPlan};
use hd_fleet::{DeviceProfile, FleetSpec};
use hd_telemetry::run_cluster_telemetry;

fn spec(faults: FaultConfig) -> FleetSpec {
    FleetSpec {
        apps: vec![table5::k9mail(), table5::omninotes(), table5::andstatus()],
        profiles: DeviceProfile::default_set(),
        devices_per_app: 3,
        executions_per_action: 2,
        root_seed: 29,
        threads: 3,
        config: HangDoctorConfig::default(),
        apidb_year: 2017,
        faults,
    }
}

#[test]
fn three_node_fold_matches_single_store_byte_for_byte() {
    let outcome = run_cluster_telemetry(
        &spec(FaultConfig::none()),
        &LinkFaultConfig::none(),
        3,
        50,
        &NodeCrashPlan::none(1),
    );
    assert!(
        outcome.byte_identical,
        "cluster fold diverged:\ncluster:\n{}\nreference:\n{}",
        outcome.report.to_json(),
        outcome.reference.to_json()
    );
    assert!(outcome.state_identical, "raw folded state diverged");
    assert_eq!(outcome.nodes, 3);
    assert!(outcome.crashes.is_empty());
    assert_eq!(outcome.batches_recovered, 0);
    // Partitioning is real: with 9 devices over 3 nodes, more than one
    // node must have ingested something.
    let busy = outcome
        .node_stats
        .iter()
        .filter(|s| s.ingest.batches_applied > 0)
        .count();
    assert!(busy > 1, "all batches landed on one node");
}

#[test]
fn kill_and_restart_mid_upload_keeps_the_fold_identical() {
    let outcome = run_cluster_telemetry(
        &spec(FaultConfig::none()),
        &LinkFaultConfig::none(),
        3,
        50,
        // Three waves; node 1 is killed and WAL-restarted after wave 0.
        &NodeCrashPlan::pinned(3, 0, 1),
    );
    assert!(
        outcome.byte_identical,
        "restart broke the fold:\ncluster:\n{}\nreference:\n{}",
        outcome.report.to_json(),
        outcome.reference.to_json()
    );
    assert!(outcome.state_identical);
    assert_eq!(outcome.crashes, vec![(0, 1)]);
    // The victim had ingested wave-0 batches before dying; they must
    // have come back through WAL replay, not been silently lost.
    assert!(
        outcome.batches_recovered > 0,
        "the killed node replayed nothing — the differential passed vacuously"
    );
}

#[test]
fn chaos_plus_random_crashes_stay_identical_with_duplicates_absorbed() {
    let outcome = run_cluster_telemetry(
        &spec(FaultConfig::none()),
        &LinkFaultConfig::chaos(0.5),
        3,
        50,
        &NodeCrashPlan::for_cluster(1.0, 3, 4, 29),
    );
    assert!(
        outcome.byte_identical,
        "chaos broke the fold:\ncluster:\n{}\nreference:\n{}",
        outcome.report.to_json(),
        outcome.reference.to_json()
    );
    assert!(outcome.state_identical);
    assert!(
        !outcome.crashes.is_empty(),
        "a certain crash rate must fire at least once"
    );
    let duplicates: u64 = outcome
        .node_stats
        .iter()
        .map(|s| s.ingest.duplicates_absorbed)
        .sum();
    assert!(
        duplicates > 0,
        "a 50% duplicate rate over 9 devices should fire at least once"
    );
}

/// Same spec, same bytes: the whole cluster run — routing, chaos
/// streams, crash schedule, recovery — is deterministic.
#[test]
fn cluster_outcome_is_deterministic() {
    let run = || {
        let outcome = run_cluster_telemetry(
            &spec(FaultConfig::none()),
            &LinkFaultConfig::chaos(0.3),
            2,
            25,
            &NodeCrashPlan::pinned(2, 0, 0),
        );
        assert!(outcome.byte_identical && outcome.state_identical);
        (
            outcome.report.to_json(),
            outcome.crashes.clone(),
            outcome.batches_recovered,
        )
    };
    assert_eq!(run(), run());
}
