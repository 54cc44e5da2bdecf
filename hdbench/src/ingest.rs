//! `ingest`: one WAL-backed telemetry server and no simulation. Batches
//! are generated and encoded before the clock starts; an open-loop leg
//! at a fixed rate times each upload from its due time, then a
//! closed-loop leg with a fixed window measures the saturation rate.

use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use hd_appmodel::corpus::table5;
use hd_telemetry::wire::upload_fingerprint_from_payload;
use hd_telemetry::{
    decode_frame, AggregationStore, PipelinedUploader, Request, Response, TelemetryError,
    TelemetryServer, Uploader, Wal, WireVersion,
};

use crate::bench::{latency, ms, repeated_setup, Ctx, EndToEnd, Pass};
use crate::gen::{upload_plan, UploadPlan};
use crate::openloop::{even_schedule, run_leg, Completed, Due, Verdict};
use crate::stats::percentile;
use crate::trace::SpanId;

/// Open-loop send rate, batches per second over all connections: about
/// 17% of the closed-loop saturation rate (~29k batches/s) on a quiet
/// 2-core host and about a third of it when the host is contended. At
/// half the saturation rate the median latency moved 5-9% from run to
/// run there, and a contended spell pushed the open loop past capacity
/// into a growing backlog.
pub const OPEN_RATE: f64 = 5_000.0;
/// Closed-loop sends; a chunk lasts as long as the server takes.
const SAT_SENDS: usize = 50_000;
/// The run alternates this many open-loop segments with as many
/// closed-loop chunks, so a disturbance of the host lands in one
/// segment's samples and one chunk's rate rather than in a whole leg;
/// the saturation rate is the median chunk rate.
const SEGMENTS: usize = 5;
/// Closed-loop batches in flight per connection.
pub const WINDOW: usize = 16;
/// Batches replayed through the unit calls in a traced pass.
const REPLAY: usize = 2_000;
/// Server starts per pass; `setup_s` is their median.
const SERVER_STARTS: usize = 25;

/// Starts a WAL-backed server with `shards` shards over `dir`.
pub fn start_server(dir: &Path, shards: usize) -> Result<TelemetryServer, String> {
    TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(shards)
        .wal_dir(dir.to_string_lossy().to_string())
        .start()
        .map_err(|e| format!("server start: {e}"))
}

/// Asks the server to stop, waits for it, and removes its WAL.
pub fn stop_server(server: TelemetryServer, dir: &Path) -> Result<(), String> {
    Uploader::plain(server.local_addr())
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    server.join();
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// Judges an upload response: ACK done, NACK sent again, else failed.
pub fn judge_upload(response: &Response) -> Verdict {
    match response {
        Response::Ack { .. } => Verdict::Done,
        Response::Nack { .. } => Verdict::Retry,
        _ => Verdict::Failed,
    }
}

/// What one closed-loop chunk measured.
#[derive(Default)]
pub struct Closed {
    /// Wall time of the chunk.
    pub elapsed: Duration,
    /// Process CPU time over the chunk, s.
    pub cpu_s: f64,
    /// Reports carried by the ACKed batches.
    pub reports: u64,
    /// Sends ACKed, as indices into the plan's frames.
    pub acked: Vec<usize>,
    /// NACKs received (each NACKed batch is sent again).
    pub nacks: u64,
    /// Sends answered with a protocol error.
    pub errors: u64,
}

impl Closed {
    /// Reports per second over the chunk.
    pub fn rate(&self) -> f64 {
        self.reports as f64 / self.elapsed.as_secs_f64()
    }
}

/// Sends `sends` over `conns` pipelined connections (one thread each)
/// with `WINDOW` batches in flight per connection, re-sending NACKed
/// batches.
pub fn closed_leg(
    addr: SocketAddr,
    plan: &UploadPlan,
    sends: &[usize],
    conns: usize,
) -> Result<Closed, String> {
    let start = Instant::now();
    let cpu_start = crate::host::cpu_s();
    let per_conn: Vec<Result<Closed, TelemetryError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> Result<Closed, TelemetryError> {
                    let mut up = PipelinedUploader::connect(addr)?;
                    let mut queue: VecDeque<usize> =
                        sends.iter().copied().skip(c).step_by(conns).collect();
                    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(WINDOW);
                    let mut out = Closed::default();
                    loop {
                        while inflight.len() < WINDOW {
                            let Some(i) = queue.pop_front() else { break };
                            up.send_encoded(&plan.frames[i])?;
                            inflight.push_back(i);
                        }
                        let Some(i) = inflight.pop_front() else { break };
                        match up.recv() {
                            Ok(_) => {
                                out.reports += plan.reports[i];
                                out.acked.push(i);
                            }
                            Err(TelemetryError::Nack { .. }) => {
                                out.nacks += 1;
                                queue.push_front(i);
                            }
                            Err(TelemetryError::Protocol(_)) => out.errors += 1,
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop sender panicked"))
            .collect()
    });
    let mut out = Closed {
        elapsed: start.elapsed(),
        cpu_s: crate::host::cpu_s() - cpu_start,
        ..Closed::default()
    };
    for r in per_conn {
        let conn = r.map_err(|e| format!("closed-loop leg: {e}"))?;
        out.reports += conn.reports;
        out.acked.extend(conn.acked);
        out.nacks += conn.nacks;
        out.errors += conn.errors;
    }
    Ok(out)
}

/// Unit costs of the server's ingest path, µs per batch, from replaying
/// the workload's own frames through the public calls.
pub struct UnitCosts {
    /// `decode_frame::<Request>`.
    pub decode_us: f64,
    /// `upload_fingerprint_from_payload`.
    pub fingerprint_us: f64,
    /// `Wal::append`.
    pub wal_append_us: f64,
    /// WAL bytes per appended batch.
    pub wal_bytes_per_batch: f64,
    /// `AggregationStore::ingest_prehashed`.
    pub ingest_us: f64,
}

/// Replays the first `count` distinct frames of `plan` through decode,
/// fingerprint, WAL append and store ingest, one span per call.
pub fn replay_units(
    ctx: &Ctx,
    plan: &UploadPlan,
    count: usize,
    parent: Option<SpanId>,
) -> Result<UnitCosts, String> {
    let tracer = ctx.tracer;
    let path = ctx.work.join("replay.wal");
    let (mut wal, _) = Wal::open(&path, 0, 0).map_err(|e| format!("replay wal: {e}"))?;
    let header_len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut store = AggregationStore::new();
    let (mut decode, mut fingerprint, mut append, mut ingest) = (0.0, 0.0, 0.0, 0.0);
    let n = count.min(plan.frames.len());
    for (i, frame) in plan.frames.iter().take(n).enumerate() {
        let group = i as u64 + 1;
        let t0 = Instant::now();
        let request = decode_frame::<Request>(frame);
        let t1 = Instant::now();
        let fp = upload_fingerprint_from_payload(&frame[8..], WireVersion::V2);
        let t2 = Instant::now();
        let (Ok(Request::Upload(batch)), Some(fp)) = (request, fp) else {
            return Err(format!("replay: frame {i} is not a canonical upload"));
        };
        let t3 = Instant::now();
        wal.append(fp, &batch)
            .map_err(|e| format!("replay append: {e}"))?;
        let t4 = Instant::now();
        store.ingest_prehashed(&batch, fp);
        let t5 = Instant::now();
        tracer.record("telemetry.wire.decode", parent, group, 0, t0, t1);
        tracer.record("telemetry.wire.fingerprint", parent, group, 0, t1, t2);
        tracer.record("telemetry.wal.append", parent, group, 0, t3, t4);
        tracer.record("telemetry.store.ingest", parent, group, 0, t4, t5);
        decode += ms(t1 - t0);
        fingerprint += ms(t2 - t1);
        append += ms(t4 - t3);
        ingest += ms(t5 - t4);
    }
    let wal_len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    drop(wal);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let per = |total_ms: f64| total_ms * 1e3 / n.max(1) as f64;
    Ok(UnitCosts {
        decode_us: per(decode),
        fingerprint_us: per(fingerprint),
        wal_append_us: per(append),
        wal_bytes_per_batch: (wal_len - header_len) as f64 / n.max(1) as f64,
        ingest_us: per(ingest),
    })
}

/// Wire bytes per report over a whole plan.
pub fn bytes_per_report(plan: &UploadPlan) -> f64 {
    let bytes: usize = plan.frames.iter().map(Vec::len).sum();
    let reports: u64 = plan.reports.iter().sum();
    bytes as f64 / reports.max(1) as f64
}

/// One pass of the workload.
pub fn run(ctx: &Ctx) -> Result<Pass, String> {
    let n_open = (OPEN_RATE * ctx.measure.as_secs_f64()) as usize;

    // Inputs, untimed: every batch generated and encoded once.
    let plan = upload_plan(ctx.seed, 1, &table5::apps(), n_open + SAT_SENDS, 0, false);
    // Set-up: start the server over a fresh WAL directory several
    // times; `setup_s` is the median start.
    let ((server, wal_dir), setup_s) = repeated_setup(
        SERVER_STARTS,
        |i| {
            let wal_dir = ctx.work.join(format!("ingest-{i}"));
            Ok((start_server(&wal_dir, ctx.nproc)?, wal_dir))
        },
        |(server, dir)| stop_server(server, &dir),
    )?;
    let plan = &plan;
    let addr = server.local_addr();
    let conns = ctx.nproc;
    let tracer = ctx.tracer;

    let mut open = None;
    let mut closed = None;
    let mut units = None;
    let root = tracer.span(
        "run",
        None,
        0,
        0,
        |root| -> Result<Option<SpanId>, String> {
            let per_segment = n_open.div_ceil(SEGMENTS);
            let segment_s = ctx.measure.as_secs_f64() / SEGMENTS as f64;
            let mut legs = Vec::with_capacity(SEGMENTS);
            let mut chunks = Vec::with_capacity(SEGMENTS);
            let open_parts = plan.sends[..n_open].chunks(per_segment);
            let closed_parts = plan.sends[n_open..].chunks(SAT_SENDS.div_ceil(SEGMENTS));
            for (k, (open_part, closed_part)) in open_parts.zip(closed_parts).enumerate() {
                let mut schedules: Vec<Vec<Due>> = vec![Vec::new(); conns];
                let rate = open_part.len() as f64 / segment_s;
                for (j, (at_ns, &i)) in even_schedule(open_part.len(), rate)
                    .zip(open_part)
                    .enumerate()
                {
                    schedules[j % conns].push(Due {
                        at_ns,
                        frame: &plan.frames[i],
                        tag: k * per_segment + j,
                    });
                }
                let leg = tracer
                    .span("telemetry.open_leg", root, k as u64, 0, |_| {
                        run_leg(
                            addr,
                            &schedules,
                            ctx.measure * 4 + Duration::from_secs(10),
                            None,
                            |_, _, r| judge_upload(r),
                        )
                    })
                    .map_err(|e| format!("open-loop segment {k}: {e}"))?;
                for c in &leg.completed {
                    tracer.record(
                        "telemetry.upload",
                        root,
                        c.tag as u64 + 1,
                        1 + c.conn as u32,
                        c.due,
                        c.done,
                    );
                }
                legs.push(leg);
                chunks.push(tracer.span("telemetry.closed_leg", root, k as u64, 0, |_| {
                    closed_leg(addr, plan, closed_part, conns)
                })?);
            }
            open = Some(legs);
            closed = Some(chunks);
            if tracer.enabled() {
                units = Some(replay_units(ctx, plan, REPLAY, root)?);
            }
            Ok(root)
        },
    )?;
    let legs = open.expect("open-loop segments ran");
    let chunks = closed.expect("closed-loop chunks ran");
    let rates: Vec<f64> = chunks.iter().map(Closed::rate).collect();
    let closed_elapsed: Duration = chunks.iter().map(|c| c.elapsed).sum();
    let closed_cpu_s: f64 = chunks.iter().map(|c| c.cpu_s).sum();
    let closed_acked = chunks.iter().map(|c| c.acked.len()).sum::<usize>() as u64;
    let closed_nacks: u64 = chunks.iter().map(|c| c.nacks).sum();
    let closed_errors: u64 = chunks.iter().map(|c| c.errors).sum();

    let stats = server.stats();
    stop_server(server, &wal_dir)?;

    let unique: HashSet<usize> = plan.sends.iter().copied().collect();
    let completed: Vec<&Completed> = legs.iter().flat_map(|l| &l.completed).collect();
    let open_retries: u64 = legs.iter().map(|l| l.retries).sum();
    let deliveries = completed.iter().filter(|c| c.ok).count() as u64 + closed_acked;
    let open_failed = completed.iter().filter(|c| !c.ok).count() as u64;
    let latencies: Vec<f64> = completed.iter().map(|c| c.latency_ms()).collect();
    let e2e = EndToEnd {
        setup_s,
        peak_rss_mb: crate::host::peak_rss_mb(),
        throughput: crate::stats::median(&rates),
        latency: latency("open-loop uploads", &latencies)?,
    };
    let checks = vec![
        (
            format!(
                "batches_applied {} = unique batches sent {}",
                stats.ingest.batches_applied,
                unique.len()
            ),
            stats.ingest.batches_applied == unique.len() as u64,
        ),
        (
            format!(
                "duplicates_absorbed {} = duplicates sent {}",
                stats.ingest.duplicates_absorbed,
                deliveries.saturating_sub(unique.len() as u64)
            ),
            stats.ingest.duplicates_absorbed + unique.len() as u64 == deliveries,
        ),
        (
            format!("decode_errors {} = 0", stats.decode_errors),
            stats.decode_errors == 0,
        ),
    ];
    let all_lateness: Vec<f64> = legs.iter().flat_map(|l| l.lateness_ms.concat()).collect();
    let lateness = |q| {
        percentile(&all_lateness, q)
            .map(|p| p.value)
            .map_err(|e| format!("lateness: {e}"))
    };
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("telemetry.wire.bytes_per_report", bytes_per_report(plan)),
        ("telemetry.server.nacks", stats.nacks_sent as f64),
        (
            "telemetry.server.retries",
            (open_retries + closed_nacks) as f64,
        ),
        (
            "telemetry.server.duplicates_absorbed",
            stats.ingest.duplicates_absorbed as f64,
        ),
        ("telemetry.server.decode_errors", stats.decode_errors as f64),
        (
            "telemetry.server.batches_attempted",
            plan.sends.len() as f64,
        ),
        ("gen.write.lateness_p50_ms", lateness(0.5)?),
        ("gen.write.lateness_p99_ms", lateness(0.99)?),
    ];
    if let Some(u) = &units {
        // Process CPU per batch at saturation: the server's threads plus
        // the senders' (socket writes and ACK decodes).
        let server_us = closed_cpu_s * 1e6 / closed_acked.max(1) as f64;
        layer.extend([
            ("telemetry.wire.decode_us", u.decode_us),
            ("telemetry.wire.fingerprint_us", u.fingerprint_us),
            ("telemetry.wal.append_us", u.wal_append_us),
            ("telemetry.wal.bytes_per_batch", u.wal_bytes_per_batch),
            ("telemetry.store.ingest_us", u.ingest_us),
            (
                "telemetry.server.residual_us",
                server_us - u.decode_us - u.fingerprint_us - u.wal_append_us - u.ingest_us,
            ),
        ]);
    }
    let failed_checks = checks.iter().filter(|c| !c.1).count() as u64;
    let stage = root.map(|root| crate::trace::stage_table(&tracer.snapshot(), root));
    Ok(Pass {
        e2e,
        layer,
        attempted: plan.sends.len() as u64,
        failed: open_failed + closed_errors + failed_checks,
        checks,
        stage,
        notes: vec![format!(
            "ingest: {SEGMENTS} open-loop segments ({n_open} sends at {OPEN_RATE}/s on {conns} connections, {} latency samples, lateness p99 {:.3} ms) alternating with {SEGMENTS} closed-loop chunks ({SAT_SENDS} sends, window {WINDOW}/connection, {:.3} s); throughput is reports/s at saturation, median over chunks; set-up is the median of {SERVER_STARTS} server starts",
            e2e.latency.p99.samples,
            lateness(0.99)?,
            closed_elapsed.as_secs_f64()
        )],
    })
}
