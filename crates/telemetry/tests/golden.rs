//! Golden fixture: the aggregated top-N hang groups over the Table 1
//! corpus, produced by the full loopback telemetry path (uploader →
//! TCP server → aggregation store → query) and checked in byte-for-
//! byte. Any drift means the cross-device aggregation — or the wire
//! schema feeding it — changed.
//!
//! Regenerate (only when a deliberate behavior change lands) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p hd-telemetry --test golden
//! ```

use hangdoctor::HangDoctorConfig;
use hd_faults::{FaultConfig, LinkFaultConfig};
use hd_fleet::{run_fleet_with_reports, DeviceProfile, FleetSpec};
use hd_telemetry::{
    encode_frame_in, run_fleet_telemetry, wire::read_frame_versioned, Request, Response,
    TelemetryItem, TelemetryServer, UploadBatch, WireVersion,
};

fn spec() -> FleetSpec {
    FleetSpec {
        apps: hd_appmodel::corpus::table1::apps(),
        profiles: DeviceProfile::default_set(),
        devices_per_app: 2,
        executions_per_action: 2,
        root_seed: 17,
        threads: 4,
        config: HangDoctorConfig::default(),
        apidb_year: 2017,
        faults: FaultConfig::none(),
    }
}

const FIXTURE: &str = include_str!("fixtures/telemetry_table1.json");

fn check_or_regen(rendered: String, fixture: &str, name: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, rendered).expect("write fixture");
        return;
    }
    assert_eq!(
        rendered, fixture,
        "{name} drifted from the golden fixture; if the change is \
         intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn table1_aggregation_matches_checked_in_fixture() {
    let outcome = run_fleet_telemetry(&spec(), &LinkFaultConfig::none(), 25);
    assert!(
        outcome.byte_identical,
        "loopback path diverged from the in-process merge"
    );
    let json = serde_json::to_string_pretty(&outcome.report).expect("serializable report");
    check_or_regen(format!("{json}\n"), FIXTURE, "telemetry_table1.json");
}

/// Backward compatibility: a legacy v1 uploader talking to the v2
/// server — v1 envelopes, no Hello — must produce the **same bytes**
/// as the fixture the v2 path generates, and be answered in its own
/// dialect.
#[test]
fn v1_frames_ingest_byte_identically_to_the_v2_fixture() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return; // the fixture is regenerated by the v2 test above
    }
    let (_, jobs) = run_fleet_with_reports(&spec());
    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .start()
        .unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    for job in &jobs {
        let batch = UploadBatch {
            app: job.app.clone(),
            device: job.device,
            seq: 0,
            items: vec![TelemetryItem::Report(job.report.clone())],
        };
        let frame = encode_frame_in(WireVersion::V1, &Request::Upload(batch));
        std::io::Write::write_all(&mut stream, &frame).unwrap();
        let (resp, dialect) = read_frame_versioned::<Response>(&mut stream).unwrap();
        assert!(
            matches!(resp, Response::Ack { .. }),
            "expected Ack, got {resp:?}"
        );
        assert_eq!(
            dialect,
            WireVersion::V1,
            "the server must answer a v1 request in v1"
        );
    }
    let frame = encode_frame_in(WireVersion::V1, &Request::Query { top_n: 25 });
    std::io::Write::write_all(&mut stream, &frame).unwrap();
    let (resp, dialect) = read_frame_versioned::<Response>(&mut stream).unwrap();
    assert_eq!(dialect, WireVersion::V1);
    let report = match resp {
        Response::Report(r) => r,
        other => panic!("expected Report, got {other:?}"),
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    assert_eq!(
        format!("{json}\n"),
        FIXTURE,
        "v1-framed ingest drifted from the v2 golden fixture"
    );
    let frame = encode_frame_in(WireVersion::V1, &Request::Shutdown);
    std::io::Write::write_all(&mut stream, &frame).unwrap();
    let (resp, _) = read_frame_versioned::<Response>(&mut stream).unwrap();
    assert!(matches!(resp, Response::Bye));
    drop(stream);
    server.join();
}
