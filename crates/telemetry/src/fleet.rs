//! Loopback fleet mode: route every fleet job's report through the
//! real uploader → TCP server → aggregation store path, then compare
//! against the in-process merge.
//!
//! This is the telemetry subsystem's end-to-end differential: the
//! networked [`TelemetryReport`] must be **byte-identical** to the
//! projection straight off the in-process [`FleetReport`] — including
//! under chaos mode with transport faults, whose duplicate deliveries
//! the idempotent ingest absorbs.
//!
//! Determinism of the chaos tally: each device uploads through its own
//! deterministic [`LinkFaultPlan`](hd_faults::LinkFaultPlan) (seeded by
//! `(root_seed, device)` on the upload link), and the server queue is sized to at least
//! the upload thread count so backpressure NACKs — whose counts would
//! depend on scheduling — cannot occur in this mode. The merged
//! [`NetFaultTally`] is therefore a pure function of the spec.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::thread;

use hd_faults::{LinkFaultConfig, NetFaultTally};
use hd_fleet::{run_fleet_with_reports, FleetReport, FleetSpec, JobReport};

use crate::client::{Uploader, UploaderConfig};
use crate::error::TelemetryError;
use crate::report::TelemetryReport;
use crate::server::{ServerConfig, ServerStats, TelemetryServer};
use crate::wire::{TelemetryItem, UploadBatch};

/// Everything one loopback telemetry fleet run produced.
#[derive(Clone, Debug)]
pub struct TelemetryFleetOutcome {
    /// The in-process fleet result, with `chaos.net` filled from the
    /// uploaders' merged tallies (chaos mode only).
    pub fleet: FleetReport,
    /// The aggregation the networked path produced.
    pub report: TelemetryReport,
    /// The reference projection straight off the in-process merge.
    pub reference: TelemetryReport,
    /// Final server counters.
    pub server: ServerStats,
    /// Whether `report` and `reference` serialize to the same bytes.
    pub byte_identical: bool,
}

/// Runs the fleet, uploads every job's report over loopback TCP, and
/// differentially checks the networked aggregation against the
/// in-process merge. `top_n` bounds the exported group list.
pub fn run_fleet_telemetry(
    spec: &FleetSpec,
    net: &LinkFaultConfig,
    top_n: usize,
) -> TelemetryFleetOutcome {
    let (mut fleet, jobs) = run_fleet_with_reports(spec);
    let threads = spec.threads.max(1);

    // Queue depth ≥ upload threads ⇒ a full queue is impossible, so
    // the chaos tally cannot pick up scheduling-dependent NACK counts.
    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(threads)
        .queue_capacity(threads.max(ServerConfig::default().queue_capacity))
        .start()
        .expect("bind loopback server");
    let addr = server.local_addr();

    // Upload every job's report: `threads` worker threads, each device
    // through its own deterministically seeded uploader. Tallies are
    // keyed by job index so the merge below runs in device order.
    let tallies: Mutex<Vec<(usize, NetFaultTally)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    thread::scope(|scope| {
        for t in 0..threads {
            let jobs = &jobs;
            let tallies = &tallies;
            let net = *net;
            scope.spawn(move || {
                for job in jobs.iter().skip(t).step_by(threads) {
                    let tally = upload_job(addr, job, net, spec.root_seed)
                        .unwrap_or_else(|e| panic!("device {} upload failed: {e}", job.device));
                    tallies.lock().expect("tally lock").push((job.index, tally));
                }
            });
        }
    });

    // Networked path: query over TCP like any operator client would.
    let mut client = Uploader::plain(addr);
    let report = client.query(top_n).expect("loopback query");
    client.shutdown().expect("loopback shutdown");
    let server_stats = server.join();

    let reference = TelemetryReport::from_fleet(&fleet, top_n);
    let byte_identical = report.to_json() == reference.to_json();

    // Merge the per-device transport tallies in device order into the
    // fleet's chaos accounting (chaos runs only, so clean reports stay
    // byte-identical to a telemetry-free build's).
    if let Some(chaos) = fleet.chaos.as_mut() {
        let mut merged = NetFaultTally::default();
        let mut per_device = tallies.into_inner().expect("tally lock");
        per_device.sort_by_key(|(index, _)| *index);
        for (_, tally) in &per_device {
            merged.merge(tally);
        }
        chaos.net = merged;
    }

    TelemetryFleetOutcome {
        fleet,
        report,
        reference,
        server: server_stats,
        byte_identical,
    }
}

/// A job's report as its device's first upload batch.
pub(crate) fn job_batch(job: &JobReport) -> UploadBatch {
    UploadBatch {
        app: job.app.clone(),
        device: job.device,
        seq: 0,
        items: vec![TelemetryItem::Report(job.report.clone())],
    }
}

/// Uploads one job's report through its device's seeded uploader and
/// returns the device's transport tally.
pub fn upload_job(
    addr: SocketAddr,
    job: &JobReport,
    net: LinkFaultConfig,
    root_seed: u64,
) -> Result<NetFaultTally, TelemetryError> {
    let cfg = UploaderConfig { net_faults: net };
    let mut uploader = Uploader::new(addr, u64::from(job.device), root_seed, cfg);
    uploader.upload(&job_batch(job))?;
    Ok(uploader.tally())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hangdoctor::HangDoctorConfig;
    use hd_appmodel::corpus::table5;
    use hd_faults::FaultConfig;
    use hd_fleet::DeviceProfile;

    fn small_spec() -> FleetSpec {
        FleetSpec {
            apps: vec![table5::k9mail(), table5::omninotes()],
            profiles: DeviceProfile::default_set(),
            devices_per_app: 2,
            executions_per_action: 2,
            root_seed: 11,
            threads: 2,
            config: HangDoctorConfig::default(),
            apidb_year: 2017,
            faults: FaultConfig::none(),
        }
    }

    #[test]
    fn loopback_differential_is_byte_identical() {
        let outcome = run_fleet_telemetry(&small_spec(), &LinkFaultConfig::none(), 25);
        assert!(
            outcome.byte_identical,
            "networked:\n{}\nreference:\n{}",
            outcome.report.to_json(),
            outcome.reference.to_json()
        );
        assert_eq!(outcome.server.nacks_sent, 0);
        assert_eq!(
            outcome.server.ingest.batches_applied as usize,
            outcome.fleet.merged.jobs
        );
    }
}
