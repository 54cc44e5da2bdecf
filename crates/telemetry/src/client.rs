//! Device-side clients of the telemetry server.
//!
//! [`Uploader`] spools [`UploadBatch`]es, [`ControlClient`] drives
//! `hang-doctor/control/v1` exchanges. Both are verb layers over one
//! private `Session`: a connection opened on demand, one wire dialect,
//! one [`LinkFaultPlan`] (dropped connections, delayed deliveries,
//! duplicated frames) and one retry loop that rides out the server's
//! queue-full NACKs and transport errors with exponential backoff.
//! Delivery is **at-least-once**; the server's idempotent handling turns
//! that into exactly-once state.
//!
//! [`PipelinedUploader`] is the lean throughput path the ingest
//! benchmark drives: it keeps a window of batches in flight on one
//! connection and reads ACKs in request order (the server guarantees
//! per-connection FIFO responses), which is what pushes a single
//! connection past the syscall-per-batch wall. It injects no faults and
//! leaves retries to its caller.
//!
//! Determinism contract (what the chaos differentials lean on): every
//! fault decision for a message is drawn from the session's plan
//! *before* the first send attempt, and the retry-backoff jitter draws
//! from a separate domain-forked RNG stream. NACK timing — which depends
//! on server load — can therefore never perturb the fault schedule, so
//! the injected-fault tally for a given `(root_seed, device)` is a pure
//! function of the message count.

use std::fmt::Debug;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use hangdoctor::ActionState;
use hd_control::{
    ControlRequest, ControlResponse, Directives, RolloutSpec, RolloutStage, RolloutStatusInfo,
    StackDump, SyncReport,
};
use hd_faults::{
    CtrlFaultTally, LinkFaultConfig, LinkFaultPlan, NetFaultTally, CONTROL_LINK, UPLOAD_LINK,
};
use hd_simrt::{domain_seed, SimRng};

use crate::error::TelemetryError;
use crate::report::TelemetryReport;
use crate::store::StoreSnapshot;
use crate::wire::{
    encode_frame, encode_frame_in, read_frame, write_frame, FrameError, Request, Response,
    UploadBatch, WireVersion, SCHEMA, SCHEMA_V1, SUPPORTED_SCHEMAS,
};

/// Attempts per message before giving up (first try included).
const MAX_ATTEMPTS: u32 = 12;

/// Base backoff unit, ms; retry `k` waits about `BASE_BACKOFF_MS * 2^k`.
const BASE_BACKOFF_MS: u64 = 1;

/// XORed into a link's seed domain to fork the backoff-jitter stream
/// away from the link's fault schedule.
const BACKOFF_SALT: u64 = 0xBACC_0FF5_EED0_15EA;

fn unexpected(what: &str, reply: impl Debug) -> TelemetryError {
    TelemetryError::Protocol(format!("{what} answered with {reply:?}"))
}

/// One device's connection to a server: the transport both clients
/// share.
struct Session {
    addr: SocketAddr,
    dialect: WireVersion,
    conn: Option<TcpStream>,
    faults: LinkFaultPlan,
    backoff_rng: SimRng,
    /// What the link suffered and how the session recovered, in the
    /// upload ledger's shape; the control client renames the fields.
    ledger: NetFaultTally,
}

impl Session {
    /// The session of device `index` under `root_seed` on the link
    /// seeded in `domain`. The fault plan and the backoff jitter derive
    /// deterministically from the triple, domain-separated from each
    /// other and from every other stream.
    fn new(
        addr: SocketAddr,
        dialect: WireVersion,
        faults: LinkFaultConfig,
        domain: u64,
        root_seed: u64,
        index: u64,
    ) -> Session {
        Session {
            addr,
            dialect,
            conn: None,
            faults: LinkFaultPlan::new(faults, domain, root_seed, index),
            // Retries consume jitter at NACK-dependent times, so it must
            // not share state with the fault schedule.
            backoff_rng: SimRng::seed_from_u64(domain_seed(
                domain ^ BACKOFF_SALT,
                root_seed,
                index,
            )),
            ledger: NetFaultTally::default(),
        }
    }

    /// One request/response round trip, connecting first if needed. A
    /// transport error drops the connection; the next trip reconnects.
    fn round_trip(&mut self, frame: &[u8]) -> Result<Response, FrameError> {
        if self.conn.is_none() {
            let stream =
                TcpStream::connect(self.addr).map_err(|e| FrameError::Io(e.to_string()))?;
            self.conn = Some(stream);
        }
        let stream = self.conn.as_mut().expect("just connected");
        let reply = write_frame(stream, frame)
            .map_err(|e| FrameError::Io(e.to_string()))
            .and_then(|()| read_frame(stream));
        if reply.is_err() {
            self.conn = None;
        }
        reply
    }

    /// One unfaulted, unretried exchange.
    fn exchange(&mut self, req: &Request) -> Result<Response, TelemetryError> {
        self.round_trip(&encode_frame_in(self.dialect, req))
            .map_err(|e| TelemetryError::Exhausted(e.to_string()))
    }

    fn backoff(&mut self, attempt: u32, server_hint_ms: Option<u64>) {
        let exp = BASE_BACKOFF_MS.saturating_mul(1u64 << attempt.min(10));
        let jitter = self.backoff_rng.uniform_u64(0, BASE_BACKOFF_MS);
        let wait = server_hint_ms.unwrap_or(0).max(exp) + jitter;
        thread::sleep(Duration::from_millis(wait));
    }

    /// Delivers one request and returns its reply with the attempts it
    /// took. The message's scheduled faults are drawn before the first
    /// byte moves, so retries cannot perturb them: a dropped connection
    /// reconnects and resends, a delayed message waits, NACKs and
    /// transport errors back off and retry, and a duplicated message
    /// goes out a second time once answered — its reply is read (to keep
    /// the connection's request/response cadence) and counted as
    /// absorbed when the server handled it as a repeat.
    fn call(&mut self, req: &Request) -> Result<(Response, u32), TelemetryError> {
        let frame = encode_frame_in(self.dialect, req);
        let injected = self.faults.next_message();
        if injected.drop {
            self.ledger.connections_dropped += 1;
            self.conn = None;
        }
        if let Some(delay_ns) = injected.delay_ns {
            self.ledger.deliveries_delayed += 1;
            thread::sleep(Duration::from_nanos(delay_ns));
        }
        if injected.duplicate {
            self.ledger.frames_duplicated += 1;
        }

        let mut last_err = String::new();
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.ledger.upload_retries += 1;
            }
            match self.round_trip(&frame) {
                Ok(Response::Nack { retry_after_ms }) => {
                    self.ledger.nacks_received += 1;
                    last_err = "queue-full NACK".to_string();
                    self.backoff(attempt, Some(retry_after_ms));
                }
                Ok(Response::Error(e)) => return Err(TelemetryError::Protocol(e)),
                Ok(reply) => {
                    if injected.duplicate {
                        // A shed copy (NACK or transport loss) is fine:
                        // the original delivery was already answered.
                        if let Ok(
                            Response::Ack {
                                duplicate: true, ..
                            }
                            | Response::Control(_),
                        ) = self.round_trip(&frame)
                        {
                            self.ledger.duplicates_absorbed += 1;
                        }
                    }
                    return Ok((reply, attempt + 1));
                }
                Err(e) => {
                    last_err = e.to_string();
                    self.backoff(attempt, None);
                }
            }
        }
        Err(TelemetryError::Exhausted(last_err))
    }

    /// Tells the server every dialect in `offer` and returns the newest
    /// common one.
    fn negotiate(&mut self, offer: &[&str]) -> Result<WireVersion, TelemetryError> {
        let hello = Request::Hello {
            supported: offer.iter().map(|s| s.to_string()).collect(),
        };
        match self.round_trip(&encode_frame_in(self.dialect, &hello))? {
            Response::Welcome { schema } => {
                WireVersion::from_tag(&schema).ok_or(TelemetryError::SchemaDrift(schema))
            }
            Response::Error(e) => Err(TelemetryError::Protocol(e)),
            other => Err(unexpected("hello", other)),
        }
    }

    /// Asks the server to shut down after this connection.
    fn shutdown(&mut self) -> Result<(), TelemetryError> {
        match self.exchange(&Request::Shutdown)? {
            Response::Bye => {
                self.conn = None;
                Ok(())
            }
            other => Err(unexpected("shutdown", other)),
        }
    }
}

/// Uploader tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct UploaderConfig {
    /// Network fault injection (chaos mode); default injects nothing.
    pub net_faults: LinkFaultConfig,
}

/// Receipt for one delivered batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UploadReceipt {
    /// The server-computed content fingerprint.
    pub fingerprint: u64,
    /// Whether the server absorbed the batch as a duplicate.
    pub duplicate: bool,
    /// Attempts it took (1 = first try).
    pub attempts: u32,
}

/// A device-side uploader bound to one server address.
pub struct Uploader {
    session: Session,
}

impl Uploader {
    /// Creates the uploader for device `device` under `root_seed`, on
    /// the [`UPLOAD_LINK`] seed domain.
    pub fn new(addr: SocketAddr, device: u64, root_seed: u64, cfg: UploaderConfig) -> Uploader {
        Uploader {
            session: Session::new(
                addr,
                WireVersion::V2,
                cfg.net_faults,
                UPLOAD_LINK,
                root_seed,
                device,
            ),
        }
    }

    /// A fault-free uploader (production path).
    pub fn plain(addr: SocketAddr) -> Uploader {
        Uploader::new(addr, 0, 0, UploaderConfig::default())
    }

    /// The injected-fault and recovery tally so far.
    pub fn tally(&self) -> NetFaultTally {
        self.session.ledger
    }

    /// Explicit version negotiation: tells the server every *telemetry*
    /// dialect this build speaks and returns the newest common one.
    /// Optional — a connection that skips the handshake is answered in
    /// whatever dialect its requests arrive in. The uploader never
    /// offers the control dialect; that is [`ControlClient`]'s opening
    /// move.
    pub fn negotiate(&mut self) -> Result<WireVersion, TelemetryError> {
        self.session.negotiate(&[SCHEMA, SCHEMA_V1])
    }

    /// Delivers one batch, riding out its scheduled faults, NACKs and
    /// transport errors.
    pub fn upload(&mut self, batch: &UploadBatch) -> Result<UploadReceipt, TelemetryError> {
        let (reply, attempts) = self.session.call(&Request::Upload(batch.clone()))?;
        let Response::Ack {
            fingerprint,
            duplicate,
        } = reply
        else {
            return Err(unexpected("upload", reply));
        };
        if duplicate {
            self.session.ledger.duplicates_absorbed += 1;
        }
        Ok(UploadReceipt {
            fingerprint,
            duplicate,
            attempts,
        })
    }

    /// Queries the server's current top-N aggregation.
    pub fn query(&mut self, top_n: usize) -> Result<TelemetryReport, TelemetryError> {
        match self.session.exchange(&Request::Query { top_n })? {
            Response::Report(report) => Ok(report),
            other => Err(unexpected("query", other)),
        }
    }

    /// Exports the node's raw aggregation state (the semilattice
    /// elements, not the lossy top-N projection) — what the cluster
    /// coordinator folds across nodes.
    pub fn export(&mut self) -> Result<StoreSnapshot, TelemetryError> {
        match self.session.exchange(&Request::Export)? {
            Response::State(snapshot) => Ok(snapshot),
            other => Err(unexpected("export", other)),
        }
    }

    /// Asks the server to shut down after this connection.
    pub fn shutdown(&mut self) -> Result<(), TelemetryError> {
        self.session.shutdown()
    }
}

/// The lean throughput path: keeps many batches in flight on one
/// connection and reads ACKs in request order. No fault injection, no
/// internal retries — a NACK surfaces as [`TelemetryError::Nack`] with
/// the request-order index so the caller can re-send exactly that batch.
pub struct PipelinedUploader {
    stream: TcpStream,
    inflight: usize,
}

impl PipelinedUploader {
    /// Connects to the server (Nagle off — frames should leave now).
    pub fn connect(addr: SocketAddr) -> Result<PipelinedUploader, TelemetryError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PipelinedUploader {
            stream,
            inflight: 0,
        })
    }

    /// Batches currently awaiting an ACK.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Fires one batch without waiting for its response.
    pub fn send(&mut self, batch: &UploadBatch) -> Result<(), TelemetryError> {
        let frame = PipelinedUploader::encode_upload(batch);
        self.send_encoded(&frame)
    }

    /// Encodes an upload once, for [`PipelinedUploader::send_encoded`].
    /// A spooling device (or a benchmark harness) serializes each batch
    /// a single time and can re-send the identical bytes on retry.
    pub fn encode_upload(batch: &UploadBatch) -> Vec<u8> {
        encode_frame(&Request::Upload(batch.clone()))
    }

    /// Fires one pre-encoded upload frame without waiting for its
    /// response.
    pub fn send_encoded(&mut self, frame: &[u8]) -> Result<(), TelemetryError> {
        write_frame(&mut self.stream, frame)?;
        self.inflight += 1;
        Ok(())
    }

    /// Blocks for the next response in request order. A queue-full shed
    /// is returned as [`TelemetryError::Nack`]; the caller owns the
    /// in-flight bookkeeping, so it knows which batch that was.
    pub fn recv(&mut self) -> Result<UploadReceipt, TelemetryError> {
        if self.inflight == 0 {
            return Err(TelemetryError::Protocol(
                "recv with nothing in flight".to_string(),
            ));
        }
        self.inflight -= 1;
        match read_frame::<Response>(&mut self.stream)? {
            Response::Ack {
                fingerprint,
                duplicate,
            } => Ok(UploadReceipt {
                fingerprint,
                duplicate,
                attempts: 1,
            }),
            Response::Nack { retry_after_ms } => Err(TelemetryError::Nack { retry_after_ms }),
            Response::Error(e) => Err(TelemetryError::Protocol(e)),
            other => Err(unexpected("upload", other)),
        }
    }
}

/// The control-plane client: drives `hang-doctor/control/v1` exchanges
/// over the same session the uploader uses. Both the device agent loop
/// (periodic syncs) and the operator CLI (probes, threshold pushes)
/// speak through it.
///
/// Fault tolerance leans entirely on message idempotency: every control
/// request is safe to re-send (replace-semantics syncs, target-stage
/// advances, full-desired-state responses), so a lost frame is simply
/// re-sent and a duplicated frame's second response is read and
/// absorbed. The injected schedule comes from a [`LinkFaultPlan`] on the
/// [`CONTROL_LINK`] seed domain.
pub struct ControlClient {
    session: Session,
}

impl ControlClient {
    /// A fault-free control client (production path).
    pub fn connect(addr: SocketAddr) -> ControlClient {
        ControlClient::with_faults(addr, LinkFaultConfig::none(), 0, 0)
    }

    /// A control client whose frames suffer the deterministic fault
    /// schedule derived from `(root_seed, device)`.
    pub fn with_faults(
        addr: SocketAddr,
        cfg: LinkFaultConfig,
        root_seed: u64,
        device: u64,
    ) -> ControlClient {
        ControlClient {
            session: Session::new(
                addr,
                WireVersion::Control,
                cfg,
                CONTROL_LINK,
                root_seed,
                device,
            ),
        }
    }

    /// The injected-fault and recovery tally so far. Every lost frame is
    /// re-sent exactly once, so `resends` equals `frames_lost`.
    pub fn tally(&self) -> CtrlFaultTally {
        let l = self.session.ledger;
        CtrlFaultTally {
            frames_lost: l.connections_dropped,
            frames_delayed: l.deliveries_delayed,
            frames_duplicated: l.frames_duplicated,
            resends: l.connections_dropped,
            duplicates_absorbed: l.duplicates_absorbed,
        }
    }

    /// Opens with a Hello offering the control dialect first; the server
    /// must answer in it.
    pub fn negotiate(&mut self) -> Result<WireVersion, TelemetryError> {
        match self.session.negotiate(&SUPPORTED_SCHEMAS)? {
            WireVersion::Control => Ok(WireVersion::Control),
            other => Err(TelemetryError::SchemaDrift(other.tag().to_string())),
        }
    }

    /// One control round trip, surviving this frame's injected faults
    /// and transport errors.
    pub fn request(&mut self, req: &ControlRequest) -> Result<ControlResponse, TelemetryError> {
        match self.session.call(&Request::Control(req.clone()))? {
            (Response::Control(resp), _) => Ok(resp),
            (other, _) => Err(unexpected("control request", other)),
        }
    }

    /// [`ControlClient::request`] with a typed error reply surfaced as
    /// [`TelemetryError::Protocol`].
    fn verb(&mut self, req: ControlRequest) -> Result<ControlResponse, TelemetryError> {
        match self.request(&req)? {
            ControlResponse::Err(e) => Err(TelemetryError::Protocol(e)),
            resp => Ok(resp),
        }
    }

    /// Device path: reports live state, returns the server's directives.
    pub fn sync(&mut self, report: SyncReport) -> Result<Directives, TelemetryError> {
        match self.verb(ControlRequest::Sync(report))? {
            ControlResponse::Directives(d) => Ok(d),
            other => Err(unexpected("sync", other)),
        }
    }

    /// Operator probe: a synced device's live S-Checker state table.
    pub fn query_state(
        &mut self,
        device: u32,
    ) -> Result<Vec<(u64, ActionState, u32)>, TelemetryError> {
        match self.verb(ControlRequest::QueryState { device })? {
            ControlResponse::StateTable { states, .. } => Ok(states),
            other => Err(unexpected("state query", other)),
        }
    }

    /// Operator probe: a device's most recent on-demand stack dump.
    pub fn pull_stack(&mut self, device: u32) -> Result<Option<StackDump>, TelemetryError> {
        match self.verb(ControlRequest::PullStack { device })? {
            ControlResponse::Stack { stack, .. } => Ok(stack),
            other => Err(unexpected("stack pull", other)),
        }
    }

    /// Operator: enable/disable phase-2 diagnosis for one app.
    pub fn toggle_diagnosis(&mut self, app: &str, enabled: bool) -> Result<(), TelemetryError> {
        match self.verb(ControlRequest::ToggleDiagnosis {
            app: app.to_string(),
            enabled,
        })? {
            ControlResponse::Ok => Ok(()),
            other => Err(unexpected("toggle", other)),
        }
    }

    /// Operator: starts a canaried rollout of retrained thresholds.
    pub fn push_thresholds(
        &mut self,
        spec: RolloutSpec,
    ) -> Result<RolloutStatusInfo, TelemetryError> {
        self.rollout_verb(ControlRequest::PushThresholds(spec))
    }

    /// Operator: advances the rollout to `stage`.
    pub fn advance_rollout(
        &mut self,
        stage: RolloutStage,
    ) -> Result<RolloutStatusInfo, TelemetryError> {
        self.rollout_verb(ControlRequest::AdvanceRollout { stage })
    }

    /// Operator: the rollout's current status.
    pub fn rollout_status(&mut self) -> Result<RolloutStatusInfo, TelemetryError> {
        self.rollout_verb(ControlRequest::RolloutStatus)
    }

    fn rollout_verb(&mut self, req: ControlRequest) -> Result<RolloutStatusInfo, TelemetryError> {
        match self.verb(req)? {
            ControlResponse::Rollout(status) => Ok(status),
            other => Err(unexpected("rollout request", other)),
        }
    }

    /// Asks the server to shut down after this connection.
    pub fn shutdown(&mut self) -> Result<(), TelemetryError> {
        self.session.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TelemetryServer;
    use crate::wire::TelemetryItem;
    use hangdoctor::HangBugReport;

    fn batch(device: u32, seq: u64) -> UploadBatch {
        UploadBatch {
            app: "app".to_string(),
            device,
            seq,
            items: vec![TelemetryItem::Report(HangBugReport::new("app"))],
        }
    }

    #[test]
    fn uploader_delivers_and_queries() {
        let server = TelemetryServer::builder().start().unwrap();
        let mut up = Uploader::plain(server.local_addr());
        assert_eq!(up.negotiate().unwrap(), WireVersion::V2);
        let receipt = up.upload(&batch(1, 0)).unwrap();
        assert!(!receipt.duplicate);
        assert_eq!(receipt.attempts, 1);
        // Retransmission of the same batch is absorbed.
        let again = up.upload(&batch(1, 0)).unwrap();
        assert!(again.duplicate);
        assert_eq!(again.fingerprint, receipt.fingerprint);

        let report = up.query(10).unwrap();
        assert_eq!(report.devices, 1);

        // Export returns the raw semilattice state.
        let snapshot = up.export().unwrap();
        assert_eq!(snapshot.devices.len(), 1);
        assert_eq!(snapshot.stats.batches_applied, 1);

        up.shutdown().unwrap();
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 1);
        assert_eq!(stats.ingest.duplicates_absorbed, 1);
    }

    #[test]
    fn injected_duplicates_are_absorbed_not_double_counted() {
        let server = TelemetryServer::builder().start().unwrap();
        let cfg = UploaderConfig {
            net_faults: LinkFaultConfig::chaos(1.0), // every fault fires
        };
        let mut up = Uploader::new(server.local_addr(), 7, 42, cfg);

        for seq in 0..5 {
            up.upload(&batch(7, seq)).unwrap();
        }
        let tally = up.tally();
        assert_eq!(tally.frames_duplicated, 5);
        assert_eq!(tally.connections_dropped, 5);
        assert_eq!(tally.deliveries_delayed, 5);
        assert_eq!(tally.duplicates_absorbed, 5);

        let report = up.query(10).unwrap();
        assert_eq!(report.devices, 1);
        up.shutdown().unwrap();
        let stats = server.join();
        // 5 unique batches applied; 5 duplicate deliveries absorbed.
        assert_eq!(stats.ingest.batches_applied, 5);
        assert_eq!(stats.ingest.duplicates_absorbed, 5);
    }

    fn sync_report(device: u32) -> SyncReport {
        SyncReport {
            device,
            app: "app".to_string(),
            states: vec![(1, ActionState::Suspicious, 0)],
            stack: Some(StackDump {
                device,
                action: "act".to_string(),
                uid: 1,
                frames: vec!["frame".to_string()],
                response_ns: 150_000_000,
            }),
            health: Default::default(),
        }
    }

    #[test]
    fn control_client_probes_a_live_server() {
        let server = TelemetryServer::builder().start().unwrap();
        let mut ctl = ControlClient::connect(server.local_addr());
        assert_eq!(ctl.negotiate().unwrap(), WireVersion::Control);

        let directives = ctl.sync(sync_report(4)).unwrap();
        assert!(directives.diagnosis_enabled);
        assert_eq!(directives.thresholds, None);

        assert_eq!(
            ctl.query_state(4).unwrap(),
            vec![(1, ActionState::Suspicious, 0)]
        );
        let stack = ctl.pull_stack(4).unwrap().expect("stack present");
        assert_eq!(stack.action, "act");
        assert!(ctl.query_state(99).is_err(), "unknown device is typed");

        ctl.toggle_diagnosis("app", false).unwrap();
        let directives = ctl.sync(sync_report(4)).unwrap();
        assert!(!directives.diagnosis_enabled);

        // Uploads and control frames share one server.
        let mut up = Uploader::plain(server.local_addr());
        up.upload(&batch(1, 0)).unwrap();
        drop(up); // close the upload connection so join can drain

        ctl.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn control_client_survives_full_chaos() {
        use hangdoctor::SymptomThresholds;
        use hd_control::{device_bucket, RolloutStage};

        let server = TelemetryServer::builder().start().unwrap();
        let mut ctl =
            ControlClient::with_faults(server.local_addr(), LinkFaultConfig::chaos(1.0), 42, 1);
        // Every frame is dropped once, delayed, and duplicated — the
        // outcome must match a fault-free exchange exactly.
        let spec = RolloutSpec {
            thresholds: SymptomThresholds {
                task_clock_diff: 5.0e7,
                ..SymptomThresholds::default()
            },
            baseline: SymptomThresholds::default(),
        };
        let in_cohort = (1..10_000u32)
            .find(|&d| device_bucket(d) < RolloutStage::Canary.cutoff())
            .unwrap();
        let status = ctl.push_thresholds(spec).unwrap();
        assert_eq!(status.stage, "canary");
        let d = ctl.sync(sync_report(in_cohort)).unwrap();
        assert_eq!(d.thresholds, Some(spec.thresholds));
        // Duplicate advances land on an idempotent target stage.
        let status = ctl.advance_rollout(RolloutStage::Expanded).unwrap();
        assert_eq!(status.stage, "expanded");
        let status = ctl.advance_rollout(RolloutStage::Expanded).unwrap();
        assert_eq!(status.stage, "expanded");

        let tally = ctl.tally();
        assert!(tally.frames_lost > 0, "{tally:?}");
        assert!(tally.resends >= tally.frames_lost, "{tally:?}");
        assert!(tally.duplicates_absorbed > 0, "{tally:?}");

        ctl.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn control_client_rides_out_a_server_that_starts_late() {
        // Reserve a port, then bring the server up on it ~300 ms after
        // the first control request: the client must back off and retry
        // like the uploader, not burn its attempts in a tight loop.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let starter = thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            TelemetryServer::builder()
                .addr(&addr.to_string())
                .start()
                .unwrap()
        });
        let mut ctl = ControlClient::connect(addr);
        let outcome = ctl.toggle_diagnosis("app", false);
        let server = starter.join().unwrap();
        outcome.expect("control request survives a late server start");
        ctl.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn pipelined_uploader_windows_without_losing_order() {
        let server = TelemetryServer::builder().start().unwrap();
        let mut up = PipelinedUploader::connect(server.local_addr()).unwrap();
        let batches: Vec<UploadBatch> = (0..16).map(|seq| batch(3, seq)).collect();
        let fps: Vec<u64> = batches
            .iter()
            .map(crate::fingerprint::batch_fingerprint)
            .collect();
        for b in &batches {
            up.send(b).unwrap();
        }
        assert_eq!(up.inflight(), 16);
        for fp in fps {
            let receipt = up.recv().unwrap();
            assert_eq!(receipt.fingerprint, fp);
            assert!(!receipt.duplicate);
        }
        assert_eq!(up.inflight(), 0);
        drop(up);

        let mut ctl = Uploader::plain(server.local_addr());
        ctl.shutdown().unwrap();
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 16);
    }
}
