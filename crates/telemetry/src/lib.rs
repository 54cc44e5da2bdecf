//! # hd-telemetry — networked hang-report ingestion and aggregation
//!
//! Hang Doctor's runtime detectors produce per-device
//! [`HangBugReport`](hangdoctor::HangBugReport)s; the paper's workflow
//! has developers triage them fleet-wide. This crate is that backend:
//! a TCP ingestion cluster, a device-side uploader, and a cross-device
//! aggregation store that clusters reports into hang groups keyed
//! `(app, action, root-cause API)` and exports the top-N ranked
//! [`TelemetryReport`].
//!
//! Built entirely on `std::net` plus the vendored `crossbeam` shim —
//! no external service dependencies.
//!
//! Module map:
//!
//! * [`wire`] — the `hang-doctor/telemetry/v2` frame protocol:
//!   length-prefixed JSON frames, typed [`FrameError`]s, explicit
//!   version negotiation (v1 frames still ingest byte-identically);
//! * [`error`] — the one typed [`TelemetryError`] every public API
//!   returns;
//! * [`fingerprint`] — FNV-1a content fingerprints (idempotent-ingest
//!   keys), `(app, device)` shard routing, and the cluster routing
//!   table generalization [`node_for`];
//! * [`store`] — the idempotent [`AggregationStore`] built on the
//!   report semilattice join, with canonical [`StoreSnapshot`]s and the
//!   CRDT fold [`AggregationStore::absorb`];
//! * [`wal`] — per-shard append-only write-ahead logs (CRC-framed
//!   canonical JSON) plus compacted snapshots; kill-and-restart replays
//!   to the identical aggregate;
//! * [`server`] — builder-validated server: acceptor → nonblocking
//!   multiplexed I/O workers (batch frame decode) → bounded shard
//!   queues → WAL-appending shard workers, with queue-full NACK
//!   backpressure and ACK-after-apply;
//! * [`client`] — the retrying [`Uploader`] with deterministic
//!   exponential backoff and `hd-faults` transport-fault injection,
//!   the windowed [`PipelinedUploader`] throughput path, and the
//!   idempotency-hardened [`ControlClient`] for the
//!   `hang-doctor/control/v1` dialect (live probes, diagnosis toggles,
//!   canaried threshold rollout — see `hd-control`);
//! * [`cluster`] — N-node partitioning, the stateless coordinator fold,
//!   and the deterministic kill-and-restart differential;
//! * [`fleet`] — loopback fleet mode and the networked-vs-in-process
//!   byte-identity differential;
//! * [`bench`] — the pipelined loopback load benchmark behind
//!   `BENCH_telemetry.json`.
//!
//! ## End-to-end invariant
//!
//! For any fleet spec, uploading every job's report through the real
//! TCP path — one node or a cluster of them, with or without a crash
//! and WAL-replay restart in the middle — and folding the aggregation
//! yields a [`TelemetryReport`] that is **byte-identical** to the
//! in-process merge. Ingest is idempotent (content-fingerprint dedup),
//! the merge is a semilattice join (order-independent, partition-
//! independent), and serialization is canonical (sorted maps,
//! declaration-order fields).

pub mod bench;
pub mod client;
pub mod cluster;
pub mod error;
pub mod fingerprint;
pub mod fleet;
pub mod report;
pub mod server;
pub mod store;
pub mod wal;
pub mod wire;

pub use bench::{run_telemetry_bench, BenchSpec, TelemetryBench, BENCH_SCHEMA};
pub use client::{ControlClient, PipelinedUploader, UploadReceipt, Uploader, UploaderConfig};
pub use cluster::{run_cluster_telemetry, Cluster, ClusterConfig, ClusterRunOutcome};
pub use error::TelemetryError;
pub use fingerprint::{batch_fingerprint, fnv1a, node_for, shard_for};
pub use fleet::{run_fleet_telemetry, TelemetryFleetOutcome};
pub use report::{HangGroup, TelemetryReport};
pub use server::{ServerConfig, ServerStats, TelemetryServer, TelemetryServerBuilder};
pub use store::{
    AggregationStore, IngestOutcome, IngestStats, QueryFold, StoreSnapshot, SNAPSHOT_SCHEMA,
};
pub use wal::{Wal, WalHeader, WalRecord, WalReplay, WAL_MAGIC, WAL_SCHEMA};
pub use wire::{
    decode_frame, drain_frames, encode_frame, encode_frame_in, read_frame, write_frame, FrameError,
    Request, Response, TelemetryItem, UploadBatch, WireVersion, MAGIC, MAX_FRAME, SCHEMA,
    SCHEMA_V1, SUPPORTED_SCHEMAS,
};
