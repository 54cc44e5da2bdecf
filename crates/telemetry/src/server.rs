//! The TCP ingestion server.
//!
//! Thread layout (since the cluster/durability redesign):
//!
//! ```text
//! acceptor ──► round-robin hand-off to a FIXED pool of I/O workers
//!                 │  (nonblocking sockets, multiplexed per worker)
//!                 ▼
//!   io worker: read-available → batch frame decode → dispatch
//!                 │  shard = fnv(app, device) % shards
//!                 ▼
//!          bounded crossbeam channel per shard   ◄── explicit backpressure:
//!                 │                                  try_send Full → NACK
//!                 ▼
//!          shard worker ──► WAL append ──► owned shard store
//!                 │
//!                 └──► completion queue → io worker flushes ACK
//! ```
//!
//! The PR 5 server spawned **one handler thread per connection** and
//! blocked it on a per-batch reply channel; at fleet scale that is a
//! thread per device and a context switch per batch. The redesign
//! multiplexes all connections over a fixed I/O worker pool on
//! nonblocking sockets: each worker slurps whatever bytes are
//! available, carves out *every* complete frame in one pass
//! ([`drain_frames`]), dispatches the batches, and flushes responses
//! as shard completions arrive — pipelined clients keep dozens of
//! batches in flight on one connection.
//!
//! Properties that carry the correctness argument:
//!
//! * **Per-device ordering.** A device's batches arrive on one
//!   connection (decoded in arrival order by one io worker) and all
//!   hash to one shard, so the shard worker applies them in upload
//!   order.
//! * **ACK after apply.** A response slot only becomes ready once the
//!   shard worker has WAL-appended and merged the batch, so a client
//!   that has its ACKs can immediately query and see its own writes.
//!   Responses flush in request order per connection, which is what
//!   lets clients pipeline.
//! * **Sharded state.** Each shard worker owns an
//!   [`AggregationStore`] partition. A `Query` joins only the
//!   partitions' per-app reports and device pairs ([`QueryFold`]),
//!   visiting the shards in order and holding one shard lock at a
//!   time, so it reads a per-shard cut, not one atomic cut of the
//!   node. An `Export` still ships the full state: it folds the
//!   partitions through the CRDT merge ([`AggregationStore::absorb`])
//!   — the same fold the cluster coordinator runs across nodes.
//! * **Durability.** With a WAL directory configured, every batch is
//!   appended to the shard's log *before* it merges, so
//!   kill-and-restart replays to the identical aggregate
//!   (`tests/wal.rs`, `tests/cluster.rs`).
//!
//! Backpressure is explicit and non-blocking: when a shard queue is
//! full the io worker answers a retryable [`Response::Nack`] instead of
//! stalling the connection, and the batch is **not** applied.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use crossbeam::queue::SegQueue;
use serde::{Deserialize, Serialize};

use hd_control::FleetController;

use crate::error::TelemetryError;
use crate::fingerprint::{batch_fingerprint, shard_for};
use crate::report::TelemetryReport;
use crate::store::{AggregationStore, IngestOutcome, IngestStats, QueryFold, StoreSnapshot};
use crate::wal::{self, Wal};
use crate::wire::{
    drain_frames_with, encode_frame_in, upload_fingerprint_from_payload, Request, Response,
    UploadBatch, WireVersion, SUPPORTED_SCHEMAS,
};

/// Server tuning knobs. Construct via [`TelemetryServer::builder`],
/// which validates every field.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Shard workers (ingest parallelism); each owns a store partition.
    pub shards: usize,
    /// Bounded queue depth per shard; a full queue NACKs.
    pub queue_capacity: usize,
    /// Backoff hint carried by NACKs, ms.
    pub nack_retry_ms: u64,
    /// I/O workers multiplexing the connections.
    pub io_workers: usize,
    /// Durability directory for per-shard WALs and snapshots; `None`
    /// runs in-memory only.
    pub wal_dir: Option<String>,
    /// This node's id (recorded in WAL headers; the cluster routing
    /// table index).
    pub node_id: u64,
    /// Auto-compact a shard after this many applied batches
    /// (0 = compaction only via [`TelemetryServer::compact`]).
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 4,
            queue_capacity: 64,
            nack_retry_ms: 1,
            io_workers: 2,
            wal_dir: None,
            node_id: 0,
            snapshot_every: 0,
        }
    }
}

/// Validating builder for [`TelemetryServer`] — mirrors the
/// `HangDoctorConfig::builder()` pattern. Invalid values are rejected
/// with typed [`TelemetryError::Config`] errors at [`start`], never
/// silently clamped.
///
/// [`start`]: TelemetryServerBuilder::start
#[derive(Clone, Debug)]
pub struct TelemetryServerBuilder {
    addr: String,
    cfg: ServerConfig,
}

impl TelemetryServerBuilder {
    /// Sets the bind address (use `127.0.0.1:0` for an ephemeral test
    /// port).
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Sets the number of shard workers (store partitions).
    pub fn shards(mut self, v: usize) -> Self {
        self.cfg.shards = v;
        self
    }

    /// Sets the bounded queue depth per shard.
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.cfg.queue_capacity = v;
        self
    }

    /// Sets the backoff hint carried by NACKs, ms.
    pub fn nack_retry_ms(mut self, v: u64) -> Self {
        self.cfg.nack_retry_ms = v;
        self
    }

    /// Sets the number of I/O workers multiplexing connections.
    pub fn io_workers(mut self, v: usize) -> Self {
        self.cfg.io_workers = v;
        self
    }

    /// Enables durability: per-shard WALs and snapshots under `dir`.
    pub fn wal_dir(mut self, dir: impl Into<String>) -> Self {
        self.cfg.wal_dir = Some(dir.into());
        self
    }

    /// Sets this node's id (WAL headers, cluster routing).
    pub fn node_id(mut self, v: u64) -> Self {
        self.cfg.node_id = v;
        self
    }

    /// Auto-compacts a shard after `v` applied batches (0 disables).
    pub fn snapshot_every(mut self, v: u64) -> Self {
        self.cfg.snapshot_every = v;
        self
    }

    /// Validates the configuration, binds the listener, recovers any
    /// WAL state, and starts the worker threads. A WAL directory that
    /// holds state for more shards than configured is refused: those
    /// shards would never be recovered. More shards than on disk is
    /// fine.
    pub fn start(self) -> Result<TelemetryServer, TelemetryError> {
        if self.cfg.shards == 0 {
            return Err(TelemetryError::Config {
                field: "shards",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.cfg.queue_capacity == 0 {
            return Err(TelemetryError::Config {
                field: "queue_capacity",
                reason: "must be at least 1 (a zero-depth queue NACKs everything)".to_string(),
            });
        }
        if self.cfg.io_workers == 0 {
            return Err(TelemetryError::Config {
                field: "io_workers",
                reason: "must be at least 1".to_string(),
            });
        }
        if let Some(dir) = &self.cfg.wal_dir {
            let on_disk = wal::shards_on_disk(Path::new(dir))?;
            if on_disk > self.cfg.shards {
                return Err(TelemetryError::Config {
                    field: "shards",
                    reason: format!(
                        "{dir} holds state for {on_disk} shards; restarting with {} would \
                         drop the ACKed batches of shards {}..{on_disk}",
                        self.cfg.shards, self.cfg.shards
                    ),
                });
            }
        }
        TelemetryServer::launch(&self.addr, self.cfg)
    }
}

/// Counters the server exports after (or during) a run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Upload batches accepted into a shard queue.
    pub batches_accepted: u64,
    /// Retryable NACKs sent on queue-full backpressure.
    pub nacks_sent: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Batches recovered from WAL/snapshot replay at startup.
    pub batches_recovered: u64,
    /// Ingest counters folded across the shard stores.
    pub ingest: IngestStats,
}

/// A completed shard apply, routed back to the owning io worker.
struct Completion {
    conn: u64,
    slot: u64,
    result: Result<IngestOutcome, String>,
}

/// One unit of shard work.
enum ShardJob {
    /// Apply a batch (WAL-append first), then complete `(conn, slot)`.
    Ingest {
        batch: UploadBatch,
        /// Ingest fingerprint recovered from the wire bytes, when the
        /// frame was canonical; `None` makes the shard worker
        /// re-serialize.
        fingerprint: Option<u64>,
        conn: u64,
        slot: u64,
        done: Sender<Completion>,
    },
    /// Snapshot the shard store and truncate its WAL.
    Compact {
        done: mpsc::Sender<Result<(), String>>,
    },
}

struct Shared {
    stores: Vec<Mutex<AggregationStore>>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    killed: AtomicBool,
    connections: AtomicU64,
    batches_accepted: AtomicU64,
    nacks_sent: AtomicU64,
    decode_errors: AtomicU64,
    batches_recovered: AtomicU64,
    /// The embedded control plane (PR 10). Control frames are rare and
    /// cheap relative to ingest, so one mutex — never touched by the
    /// upload path — is plenty.
    controller: Mutex<FleetController>,
}

impl Shared {
    /// Folds every shard partition through the CRDT merge (full state,
    /// for `Export`).
    fn fold_stores(&self) -> AggregationStore {
        let mut folded = AggregationStore::new();
        for store in &self.stores {
            folded.absorb(&store.lock().expect("store lock").snapshot());
        }
        folded
    }

    /// The top-N report over every shard partition, joined one shard
    /// lock at a time (for `Query`).
    fn query(&self, top_n: usize) -> TelemetryReport {
        let mut fold = QueryFold::new();
        for store in &self.stores {
            fold.add(&store.lock().expect("store lock"));
        }
        fold.report(top_n)
    }
}

/// A running ingestion server. Dropping it without [`join`] leaves the
/// threads running; call [`join`] (after a client sent `Shutdown`) for
/// an orderly stop, or [`kill`] to simulate a crash.
///
/// [`join`]: TelemetryServer::join
/// [`kill`]: TelemetryServer::kill
pub struct TelemetryServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    senders: Vec<Sender<ShardJob>>,
    acceptor: Option<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
    shard_workers: Vec<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> TelemetryServerBuilder {
        TelemetryServerBuilder {
            addr: "127.0.0.1:0".to_string(),
            cfg: ServerConfig::default(),
        }
    }

    fn launch(addr: &str, cfg: ServerConfig) -> Result<TelemetryServer, TelemetryError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        // Recover (or freshly create) every shard partition. With no
        // WAL directory the stores start empty and nothing touches
        // disk.
        let mut stores = Vec::with_capacity(cfg.shards);
        let mut wals: Vec<Option<Wal>> = Vec::with_capacity(cfg.shards);
        let mut recovered = 0u64;
        for shard in 0..cfg.shards {
            match &cfg.wal_dir {
                Some(dir) => {
                    let dir = PathBuf::from(dir);
                    let (store, wal, replayed) = wal::recover_shard(&dir, cfg.node_id, shard)?;
                    recovered += replayed;
                    stores.push(Mutex::new(store));
                    wals.push(Some(wal));
                }
                None => {
                    stores.push(Mutex::new(AggregationStore::new()));
                    wals.push(None);
                }
            }
        }

        let shared = Arc::new(Shared {
            stores,
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            batches_accepted: AtomicU64::new(0),
            nacks_sent: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            batches_recovered: AtomicU64::new(recovered),
            controller: Mutex::new(FleetController::new()),
        });

        let mut senders = Vec::with_capacity(cfg.shards);
        let mut shard_workers = Vec::with_capacity(cfg.shards);
        for (shard, wal) in wals.into_iter().enumerate() {
            let (tx, rx): (Sender<ShardJob>, Receiver<ShardJob>) = bounded(cfg.queue_capacity);
            let shared_w = Arc::clone(&shared);
            shard_workers.push(
                thread::Builder::new()
                    .name(format!("hd-telemetry-shard-{shard}"))
                    .spawn(move || shard_worker(shard, rx, wal, shared_w))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }

        // New-connection hand-off queues plus a completion channel per
        // io worker. Completion capacity covers every slot the shards
        // can hold plus slack, so shard workers never stall on it.
        let completion_cap = cfg.shards * cfg.queue_capacity + 64;
        let conn_queues: Vec<Arc<SegQueue<TcpStream>>> = (0..cfg.io_workers)
            .map(|_| Arc::new(SegQueue::new()))
            .collect();
        let mut io_workers = Vec::with_capacity(cfg.io_workers);
        for (w, queue) in conn_queues.iter().enumerate() {
            let (done_tx, done_rx): (Sender<Completion>, Receiver<Completion>) =
                bounded(completion_cap);
            let shared_w = Arc::clone(&shared);
            let senders_w = senders.clone();
            let queue_w = Arc::clone(queue);
            io_workers.push(
                thread::Builder::new()
                    .name(format!("hd-telemetry-io-{w}"))
                    .spawn(move || io_worker(queue_w, done_tx, done_rx, senders_w, shared_w, local))
                    .expect("spawn io worker"),
            );
        }

        let acceptor = {
            let shared_a = Arc::clone(&shared);
            let queues_a = conn_queues;
            thread::Builder::new()
                .name("hd-telemetry-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, shared_a, queues_a))
                .expect("spawn acceptor")
        };

        Ok(TelemetryServer {
            addr: local,
            shared,
            senders,
            acceptor: Some(acceptor),
            io_workers,
            shard_workers,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration the server runs under.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.cfg
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let mut ingest = IngestStats::default();
        for store in &self.shared.stores {
            ingest.merge(store.lock().expect("store lock").stats());
        }
        ServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            batches_accepted: self.shared.batches_accepted.load(Ordering::Relaxed),
            nacks_sent: self.shared.nacks_sent.load(Ordering::Relaxed),
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            batches_recovered: self.shared.batches_recovered.load(Ordering::Relaxed),
            ingest,
        }
    }

    /// The aggregated top-N report over everything ingested so far —
    /// the answer a wire `Query` gets (shard partitions joined one lock
    /// at a time through [`QueryFold`]).
    pub fn report(&self, top_n: usize) -> TelemetryReport {
        self.shared.query(top_n)
    }

    /// The node's full aggregation state (all shard partitions folded)
    /// — what the wire `Export` request returns.
    pub fn export_state(&self) -> StoreSnapshot {
        self.shared.fold_stores().snapshot()
    }

    /// Compacts every shard: snapshots the store, then truncates the
    /// WAL. No-op (still `Ok`) without a WAL directory.
    pub fn compact(&self) -> Result<(), TelemetryError> {
        let mut waits = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (done_tx, done_rx) = mpsc::channel();
            if tx.send(ShardJob::Compact { done: done_tx }).is_err() {
                return Err(TelemetryError::Io("shard worker gone".to_string()));
            }
            waits.push(done_rx);
        }
        for rx in waits {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(TelemetryError::Io(e)),
                Err(_) => return Err(TelemetryError::Io("shard worker gone".to_string())),
            }
        }
        Ok(())
    }

    /// Simulates a crash: stops every thread as fast as possible
    /// WITHOUT snapshotting, flushing queues gracefully, or notifying
    /// clients. In-memory state is discarded; the WAL (if configured)
    /// is all that survives — restarting over the same directory must
    /// replay to the identical aggregate.
    pub fn kill(mut self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
        self.senders.clear();
        for w in self.shard_workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Waits for the acceptor, io workers, and shard workers to exit,
    /// then returns the final stats. Requires a client to have sent
    /// [`Request::Shutdown`] first; connections still open at that
    /// point must close before the io workers can drain.
    pub fn join(mut self) -> ServerStats {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
        // Release the server's own queue handles; the shard workers
        // exit once the last io-worker clone is gone and the queue is
        // empty.
        self.senders.clear();
        for w in self.shard_workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

fn acceptor_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    queues: Vec<Arc<SegQueue<TcpStream>>>,
) {
    let mut rr = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        shared.connections.fetch_add(1, Ordering::Relaxed);
        queues[rr % queues.len()].push(stream);
        rr = rr.wrapping_add(1);
    }
}

/// One queued response on a connection. Responses flush strictly in
/// request order; `slot` entries wait for their shard completion.
struct PendingEntry {
    slot: Option<u64>,
    response: Option<Response>,
    version: WireVersion,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pending: VecDeque<PendingEntry>,
    /// Dialect of the most recent request (responses echo it).
    version: WireVersion,
    /// Stop reading (clean EOF or poisoned by a decode error).
    closed_read: bool,
    /// Close the socket once everything queued has flushed.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::with_capacity(16 * 1024),
            wbuf: Vec::new(),
            pending: VecDeque::new(),
            version: WireVersion::V2,
            closed_read: false,
            close_after_flush: false,
        }
    }

    fn push_ready(&mut self, response: Response) {
        self.pending.push_back(PendingEntry {
            slot: None,
            response: Some(response),
            version: self.version,
        });
    }

    fn push_waiting(&mut self, slot: u64) {
        self.pending.push_back(PendingEntry {
            slot: Some(slot),
            response: None,
            version: self.version,
        });
    }
}

/// The nonblocking multiplex loop: drains new connections, shard
/// completions, readable bytes (batch-decoding every complete frame),
/// and writable responses — then sleeps briefly only when a pass made
/// no progress.
fn io_worker(
    new_conns: Arc<SegQueue<TcpStream>>,
    done_tx: Sender<Completion>,
    done_rx: Receiver<Completion>,
    senders: Vec<Sender<ShardJob>>,
    shared: Arc<Shared>,
    local: SocketAddr,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id = 0u64;
    let mut next_slot = 0u64;
    let mut scratch = [0u8; 64 * 1024];
    loop {
        if shared.killed.load(Ordering::SeqCst) {
            return; // crash simulation: drop everything on the floor
        }
        let mut progressed = false;

        while let Some(stream) = new_conns.pop() {
            conns.insert(next_conn_id, Conn::new(stream));
            next_conn_id += 1;
            progressed = true;
        }

        while let Ok(done) = done_rx.try_recv() {
            if let Some(conn) = conns.get_mut(&done.conn) {
                if let Some(entry) = conn.pending.iter_mut().find(|e| e.slot == Some(done.slot)) {
                    entry.response = Some(match done.result {
                        Ok(outcome) => Response::Ack {
                            fingerprint: outcome.fingerprint,
                            duplicate: outcome.duplicate,
                        },
                        Err(e) => Response::Error(e),
                    });
                    entry.slot = None;
                }
            }
            progressed = true;
        }

        let mut dead: Vec<u64> = Vec::new();
        let conn_ids: Vec<u64> = conns.keys().copied().collect();
        for id in conn_ids {
            let conn = conns.get_mut(&id).expect("conn exists");

            // Read everything available, then decode every complete
            // frame in one pass.
            if !conn.closed_read {
                let mut read_any = false;
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            conn.closed_read = true;
                            conn.close_after_flush = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            read_any = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(id);
                            break;
                        }
                    }
                }
                if dead.last() == Some(&id) {
                    continue;
                }
                if read_any {
                    progressed = true;
                    // Fingerprint upload bodies straight off the wire
                    // while the payload bytes are still in hand — the
                    // shard worker then skips re-serializing the batch.
                    let drained =
                        drain_frames_with::<Request, _>(&mut conn.rbuf, |payload, req, version| {
                            match req {
                                Request::Upload(_) => {
                                    upload_fingerprint_from_payload(payload, version)
                                }
                                _ => None,
                            }
                        });
                    match drained {
                        Ok(requests) => {
                            for (request, version, fingerprint) in requests {
                                conn.version = version;
                                handle_request(
                                    request,
                                    fingerprint,
                                    id,
                                    conn,
                                    &mut next_slot,
                                    &senders,
                                    &done_tx,
                                    &shared,
                                    local,
                                );
                            }
                        }
                        Err(err) => {
                            shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                            conn.push_ready(Response::Error(err.to_string()));
                            conn.closed_read = true;
                            conn.close_after_flush = true;
                        }
                    }
                }
            }

            // Move the ready prefix of the pending queue into the
            // write buffer (responses flush in request order).
            while matches!(conn.pending.front(), Some(e) if e.response.is_some()) {
                let entry = conn.pending.pop_front().expect("front checked");
                let frame = encode_frame_in(entry.version, &entry.response.expect("response set"));
                conn.wbuf.extend_from_slice(&frame);
                progressed = true;
            }

            // Flush as much of the write buffer as the socket takes.
            if !conn.wbuf.is_empty() {
                match conn.stream.write(&conn.wbuf) {
                    Ok(0) => dead.push(id),
                    Ok(n) => {
                        conn.wbuf.drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => dead.push(id),
                }
            }

            let conn = conns.get_mut(&id).expect("conn exists");
            if conn.close_after_flush && conn.wbuf.is_empty() && conn.pending.is_empty() {
                dead.push(id);
            }
        }
        for id in dead {
            conns.remove(&id);
            progressed = true;
        }

        if shared.shutdown.load(Ordering::SeqCst) && conns.is_empty() && new_conns.is_empty() {
            return;
        }
        if !progressed {
            // Nothing moved: yield the core instead of spinning. 200 µs
            // bounds idle-connection latency without starving the shard
            // workers on small machines.
            thread::sleep(Duration::from_micros(200));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_request(
    request: Request,
    wire_fingerprint: Option<u64>,
    conn_id: u64,
    conn: &mut Conn,
    next_slot: &mut u64,
    senders: &[Sender<ShardJob>],
    done_tx: &Sender<Completion>,
    shared: &Shared,
    local: SocketAddr,
) {
    match request {
        Request::Upload(batch) => {
            let shard = shard_for(&batch.app, batch.device, senders.len());
            let slot = *next_slot;
            *next_slot += 1;
            match senders[shard].try_send(ShardJob::Ingest {
                batch,
                fingerprint: wire_fingerprint,
                conn: conn_id,
                slot,
                done: done_tx.clone(),
            }) {
                Ok(()) => {
                    shared.batches_accepted.fetch_add(1, Ordering::Relaxed);
                    conn.push_waiting(slot);
                }
                Err(TrySendError::Full(_)) => {
                    shared.nacks_sent.fetch_add(1, Ordering::Relaxed);
                    conn.push_ready(Response::Nack {
                        retry_after_ms: shared.cfg.nack_retry_ms,
                    });
                }
                Err(TrySendError::Disconnected(_)) => {
                    conn.push_ready(Response::Error("shard worker gone".to_string()));
                }
            }
        }
        Request::Query { top_n } => {
            conn.push_ready(Response::Report(shared.query(top_n)));
        }
        Request::Export => {
            let snapshot = shared.fold_stores().snapshot();
            conn.push_ready(Response::State(snapshot));
        }
        Request::Hello { supported } => match WireVersion::negotiate(&supported) {
            Some(version) => {
                conn.version = version;
                conn.push_ready(Response::Welcome {
                    schema: version.tag().to_string(),
                });
            }
            None => {
                conn.push_ready(Response::Error(format!(
                    "no common dialect: server speaks {SUPPORTED_SCHEMAS:?}"
                )));
            }
        },
        Request::Control(creq) => {
            let response = shared
                .controller
                .lock()
                .expect("controller lock")
                .handle(creq);
            conn.push_ready(Response::Control(response));
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            conn.push_ready(Response::Bye);
            conn.close_after_flush = true;
            // Wake the acceptor out of its blocking accept; it sees the
            // flag on the next iteration and exits.
            let _ = TcpStream::connect(local);
        }
    }
}

fn shard_worker(shard: usize, rx: Receiver<ShardJob>, mut wal: Option<Wal>, shared: Arc<Shared>) {
    let mut since_snapshot = 0u64;
    while let Ok(job) = rx.recv() {
        match job {
            ShardJob::Ingest {
                batch,
                fingerprint,
                conn,
                slot,
                done,
            } => {
                let fingerprint = fingerprint.unwrap_or_else(|| batch_fingerprint(&batch));
                let mut store = shared.stores[shard].lock().expect("store lock");
                let result = if store.contains(fingerprint) {
                    Ok(store.ingest_prehashed(&batch, fingerprint))
                } else {
                    // WAL-append BEFORE the merge: a crash after the
                    // append replays the batch; a crash before it loses
                    // an un-ACKed batch the uploader will retry.
                    match wal.as_mut().map(|w| w.append(fingerprint, &batch)) {
                        Some(Err(e)) => Err(format!("wal append failed: {e}")),
                        _ => {
                            since_snapshot += 1;
                            Ok(store.ingest_prehashed(&batch, fingerprint))
                        }
                    }
                };
                drop(store);
                // The io worker may have dropped the connection; the
                // apply above still counts.
                let _ = done.send(Completion { conn, slot, result });

                if let Some(w) = wal.as_mut() {
                    if shared.cfg.snapshot_every > 0
                        && since_snapshot >= shared.cfg.snapshot_every
                        && compact_shard(shard, w, &shared).is_ok()
                    {
                        since_snapshot = 0;
                    }
                }
            }
            ShardJob::Compact { done } => {
                let result = match wal.as_mut() {
                    Some(w) => compact_shard(shard, w, &shared).map_err(|e| e.to_string()),
                    None => Ok(()),
                };
                if result.is_ok() {
                    since_snapshot = 0;
                }
                let _ = done.send(result);
            }
        }
    }
}

/// Snapshot-then-truncate. The snapshot rename lands before the WAL
/// reset, so a crash in between replays snapshot + stale records —
/// which the snapshot's fingerprint set absorbs as duplicates.
fn compact_shard(shard: usize, wal: &mut Wal, shared: &Shared) -> Result<(), TelemetryError> {
    let snapshot = shared.stores[shard].lock().expect("store lock").snapshot();
    let dir = wal
        .path()
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    wal::write_snapshot(&wal::snapshot_path(&dir, shard), &snapshot)?;
    wal.reset(shared.cfg.node_id, shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, read_frame, write_frame, TelemetryItem};
    use hangdoctor::HangBugReport;

    fn upload_once(addr: SocketAddr, batch: &UploadBatch) -> Response {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = encode_frame(&Request::Upload(batch.clone()));
        write_frame(&mut stream, &frame).expect("write");
        read_frame(&mut stream).expect("response")
    }

    fn shutdown(addr: SocketAddr) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = encode_frame(&Request::Shutdown);
        write_frame(&mut stream, &frame).expect("write");
        let resp: Response = read_frame(&mut stream).expect("bye");
        assert!(matches!(resp, Response::Bye));
    }

    #[test]
    fn upload_query_shutdown_cycle() {
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();

        let batch = UploadBatch {
            app: "app".to_string(),
            device: 1,
            seq: 0,
            items: vec![TelemetryItem::Report(HangBugReport::new("app"))],
        };
        match upload_once(addr, &batch) {
            Response::Ack { duplicate, .. } => assert!(!duplicate),
            other => panic!("expected Ack, got {other:?}"),
        }
        // Same batch again: absorbed as a duplicate.
        match upload_once(addr, &batch) {
            Response::Ack { duplicate, .. } => assert!(duplicate),
            other => panic!("expected Ack, got {other:?}"),
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        let frame = encode_frame(&Request::Query { top_n: 5 });
        write_frame(&mut stream, &frame).unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Report(report) => {
                assert_eq!(report.devices, 1);
                assert_eq!(report.apps, 1);
            }
            other => panic!("expected Report, got {other:?}"),
        }
        drop(stream);

        shutdown(addr);
        let stats = server.join();
        assert_eq!(stats.ingest.batches_applied, 1);
        assert_eq!(stats.ingest.duplicates_absorbed, 1);
        assert_eq!(stats.nacks_sent, 0);
    }

    #[test]
    fn malformed_frame_gets_a_typed_error_response() {
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut bad = encode_frame(&Request::Query { top_n: 1 });
        bad[0] = b'Z';
        write_frame(&mut stream, &bad).unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Error(msg) => assert!(msg.contains("magic"), "got: {msg}"),
            other => panic!("expected Error, got {other:?}"),
        }
        drop(stream);

        shutdown(addr);
        let stats = server.join();
        assert_eq!(stats.decode_errors, 1);
    }

    #[test]
    fn builder_rejects_zero_shards_and_zero_queue_with_typed_errors() {
        let rejected_field = |r: Result<TelemetryServer, TelemetryError>| match r {
            Err(TelemetryError::Config { field, .. }) => field,
            Err(other) => panic!("expected Config error, got {other:?}"),
            Ok(_) => panic!("expected Config error, got a running server"),
        };
        let field = rejected_field(TelemetryServer::builder().shards(0).start());
        assert_eq!(field, "shards");
        let field = rejected_field(TelemetryServer::builder().queue_capacity(0).start());
        assert_eq!(field, "queue_capacity");
        let field = rejected_field(TelemetryServer::builder().io_workers(0).start());
        assert_eq!(field, "io_workers");
    }

    #[test]
    fn hello_negotiates_the_newest_common_dialect() {
        let server = TelemetryServer::builder().start().unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Request::Hello {
            supported: vec![
                crate::wire::SCHEMA_V1.to_string(),
                crate::wire::SCHEMA.to_string(),
            ],
        };
        write_frame(&mut stream, &encode_frame(&hello)).unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Welcome { schema } => assert_eq!(schema, crate::wire::SCHEMA),
            other => panic!("expected Welcome, got {other:?}"),
        }
        drop(stream);
        shutdown(addr);
        server.join();
    }

    #[test]
    fn pipelined_uploads_ack_in_request_order() {
        let server = TelemetryServer::builder().shards(2).start().unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Fire 8 uploads without reading a single response.
        let mut fingerprints = Vec::new();
        for seq in 0..8u64 {
            let batch = UploadBatch {
                app: "pipeline".to_string(),
                device: 9,
                seq,
                items: vec![TelemetryItem::Report(HangBugReport::new("pipeline"))],
            };
            fingerprints.push(crate::fingerprint::batch_fingerprint(&batch));
            write_frame(&mut stream, &encode_frame(&Request::Upload(batch))).unwrap();
        }
        // Responses come back in request order.
        for fp in fingerprints {
            match read_frame::<Response>(&mut stream).unwrap() {
                Response::Ack { fingerprint, .. } => assert_eq!(fingerprint, fp),
                other => panic!("expected Ack, got {other:?}"),
            }
        }
        drop(stream);
        shutdown(addr);
        let stats = server.join();
        assert_eq!(stats.batches_accepted, 8);
    }
}
