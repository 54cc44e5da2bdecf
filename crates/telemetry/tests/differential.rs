//! The telemetry subsystem's end-to-end differential: routing every
//! fleet job's report through the real uploader → TCP server →
//! aggregation path must reproduce the in-process fleet merge
//! **byte-for-byte** — clean, and under chaos mode with transport
//! faults whose duplicate deliveries the idempotent ingest absorbs.

use hangdoctor::HangDoctorConfig;
use hd_appmodel::corpus::table5;
use hd_faults::{FaultConfig, LinkFaultConfig};
use hd_fleet::{DeviceProfile, FleetSpec};
use hd_telemetry::run_fleet_telemetry;

fn spec(faults: FaultConfig) -> FleetSpec {
    FleetSpec {
        apps: vec![table5::k9mail(), table5::omninotes(), table5::andstatus()],
        profiles: DeviceProfile::default_set(),
        devices_per_app: 3,
        executions_per_action: 2,
        root_seed: 23,
        threads: 3,
        config: HangDoctorConfig::default(),
        apidb_year: 2017,
        faults,
    }
}

#[test]
fn clean_loopback_matches_in_process_merge_byte_for_byte() {
    let outcome = run_fleet_telemetry(&spec(FaultConfig::none()), &LinkFaultConfig::none(), 50);
    assert!(
        outcome.byte_identical,
        "networked:\n{}\nreference:\n{}",
        outcome.report.to_json(),
        outcome.reference.to_json()
    );
    // Every job uploaded exactly one batch; none were dropped or
    // double-applied.
    assert_eq!(
        outcome.server.ingest.batches_applied as usize,
        outcome.fleet.merged.jobs
    );
    assert_eq!(outcome.server.ingest.duplicates_absorbed, 0);
    assert_eq!(outcome.server.nacks_sent, 0);
    // Clean runs must not grow chaos accounting.
    assert!(outcome.fleet.chaos.is_none());
    assert_eq!(outcome.report.devices, outcome.fleet.merged.jobs);
}

#[test]
fn chaos_loopback_stays_byte_identical_with_duplicates_absorbed() {
    let outcome = run_fleet_telemetry(
        &spec(FaultConfig::chaos(0.2)),
        &LinkFaultConfig::chaos(0.5),
        50,
    );
    assert!(
        outcome.byte_identical,
        "chaos broke the differential:\nnetworked:\n{}\nreference:\n{}",
        outcome.report.to_json(),
        outcome.reference.to_json()
    );

    let chaos = outcome.fleet.chaos.as_ref().expect("chaos accounting");
    assert!(
        chaos.net.frames_duplicated > 0,
        "a 50% duplicate rate over 9 devices should fire at least once"
    );
    // Every injected duplicate the server saw was absorbed, not merged
    // twice (the byte-identity above is the stronger form of this).
    assert_eq!(
        outcome.server.ingest.duplicates_absorbed,
        chaos.net.duplicates_absorbed
    );
    assert_eq!(
        outcome.server.ingest.batches_applied as usize,
        outcome.fleet.merged.jobs
    );
}

/// The chaos transport tally is deterministic: same spec, same bytes —
/// scheduling, retries, and server timing cannot perturb it.
#[test]
fn chaos_net_tally_is_deterministic() {
    let run = || {
        let outcome = run_fleet_telemetry(
            &spec(FaultConfig::chaos(0.1)),
            &LinkFaultConfig::chaos(0.4),
            50,
        );
        assert!(outcome.byte_identical);
        serde_json::to_string(&outcome.fleet.chaos.expect("chaos accounting").net).unwrap()
    };
    assert_eq!(run(), run());
}
