//! `mixed`: the ingest server restarted over a large preloaded state,
//! then read and written at once. Connection 2 sends, at fixed rates,
//! operator `Query{top_n}` requests (each folds every shard under the
//! shard locks) and control verbs (each runs under the controller
//! lock) throughout. Connection 1 alternates an open-loop upload part,
//! whose latency is the end-to-end latency, with a closed-loop chunk,
//! whose rate is the upload saturation under that read load. A
//! write-path change that holds a lock longer shows here, not in
//! `ingest`.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use hangdoctor::{HangDoctor, HangDoctorConfig};
use hd_appmodel::corpus::table5;
use hd_appmodel::{build_run, round_robin_schedule, CompiledApp};
use hd_control::{ControlAgent, ControlResponse, FleetController, SyncReport};
use hd_simrt::SimConfig;
use hd_telemetry::wal::{snapshot_path, wal_path, write_snapshot};
use hd_telemetry::{
    batch_fingerprint, shard_for, AggregationStore, Response, TelemetryServer, Uploader, Wal,
};

use crate::bench::{latency, ms, repeated_setup, Ctx, EndToEnd, Pass};
use crate::gen::{
    control_ops, query_op, rollout_push, upload_plan, Expect, ReadOp, UploadPlan, Verb,
    CYCLE_DEVICES, DEVICES,
};
use crate::ingest::{closed_leg, judge_upload, start_server, stop_server, Closed};
use crate::openloop::{even_schedule, run_leg, Due, LegOutcome, Verdict};
use crate::stats::{median, percentile};
use crate::trace::SpanId;

/// Batches in the preloaded state.
const PRELOAD: usize = 30_000;
/// Share of the preload restored from snapshots; the rest replays
/// from the WALs.
const SNAPSHOT_SHARE: f64 = 0.8;
/// Set-ups (preload write + restart) per pass; `setup_s` is their
/// median.
const SETUPS: usize = 3;
// Each rate is 8% of that request class's saturation on its own over
// the freshly recovered server, measured on a quiet 2-vCPU host (Intel
// Xeon, release build, seeds 1-3): uploads 8,300-11,400 batches/s on
// one connection with 16 in flight, `Query{25}` 53-62/s and control
// verbs of this mix 37,000-42,000/s, each pipelined on one connection.
// The three together offer the server about a quarter of its capacity,
// near the ~17% of saturation `ingest`'s open leg offers, and enough
// queries arrive in a run for their p90.
/// Upload rate of connection 1's open-loop parts, batches/s.
const WRITE_RATE: f64 = 800.0;
/// Operator query rate on connection 2, per s.
const QUERY_RATE: f64 = 4.5;
/// Control verb rate on connection 2, per s.
const CONTROL_RATE: f64 = 3_200.0;
/// Distinct control requests: whole rollout cycles, sent over and over
/// (a fleet syncs periodically), so the inputs stay small.
const CONTROL_OPS: usize = 20 * 3 * (1 + CYCLE_DEVICES + 2);
/// Segments of the run; each is an open-loop part followed by a
/// closed-loop chunk, so a disturbance of the host lands in one part's
/// samples and one chunk's rate; the saturation rate is the median
/// chunk rate.
const SEGMENTS: usize = 5;
/// Sends of one closed-loop chunk: about a second at the measured
/// saturation rate, long enough that the few queries landing in it
/// (each holds the shard locks ~40 ms) vary its rate little. The count
/// is fixed, not the time, so the server ends every run with the same
/// state whatever the host's speed.
const CHUNK: usize = 10_000;
/// Shortest open-loop time: enough queries for their p90 to have ten
/// samples beyond it.
const MIN_SECONDS: f64 = 25.0;
/// Groups a query asks for.
const QUERY_TOP_N: usize = 25;
/// Top-N of the final comparison: large enough to keep every group.
const CHECK_TOP_N: usize = 1 << 20;

/// The workload's inputs, generated before any timing.
struct Inputs {
    /// The preloaded batches (no frames: they go straight to disk).
    preload: UploadPlan,
    /// Open-loop uploads, sent in order (frames only).
    writes: UploadPlan,
    /// Closed-loop uploads, chunk `k` sending `sends[k * CHUNK..]`
    /// (frames only).
    burst: UploadPlan,
    /// The in-process fold of the preload and of every batch the run
    /// sends, for the final check.
    reference: AggregationStore,
    /// Connection 2's distinct requests: [`CONTROL_OPS`] control
    /// requests, then the query.
    ops: Vec<ReadOp>,
    /// Connection 2's requests as due times, ns from the start of the
    /// run, in due order, each with its index into `ops`.
    reads: Vec<(u64, usize)>,
}

struct Server {
    server: TelemetryServer,
    wal_dir: std::path::PathBuf,
    recover_ms: f64,
}

/// One real Hang Doctor run per study app, harvested by a control
/// agent into the sync report a device of that app sends.
fn sync_templates(seed: u64) -> Vec<SyncReport> {
    table5::apps()
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let device = i as u32 + 1;
            let compiled = CompiledApp::new(app.clone());
            let schedule = round_robin_schedule(app, 2, 3_000);
            let mut run = build_run(
                &compiled,
                &schedule,
                SimConfig::default(),
                seed.wrapping_add(i as u64),
            );
            let (probe, out) = HangDoctor::new(
                HangDoctorConfig::default(),
                &app.name,
                &app.package,
                device,
                None,
            );
            run.sim.add_probe(Box::new(probe));
            run.sim.run();
            let mut agent = ControlAgent::new(device, &app.name, HangDoctorConfig::default());
            agent.observe(&out.borrow());
            agent.sync_report()
        })
        .collect()
}

/// Writes the preload through the public WAL and snapshot calls, shard
/// by shard the way the server routes it.
fn write_preload(dir: &std::path::Path, plan: &UploadPlan, shards: usize) -> Result<(), String> {
    let mut stores: Vec<AggregationStore> = (0..shards).map(|_| AggregationStore::new()).collect();
    let mut wals: Vec<Wal> = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (wal, _) =
            Wal::open(&wal_path(dir, shard), 0, shard).map_err(|e| format!("preload wal: {e}"))?;
        wals.push(wal);
    }
    let in_snapshot = (plan.batches.len() as f64 * SNAPSHOT_SHARE) as usize;
    for (i, batch) in plan.batches.iter().enumerate() {
        let shard = shard_for(&batch.app, batch.device, shards);
        let fp = batch_fingerprint(batch);
        if i < in_snapshot {
            stores[shard].ingest_prehashed(batch, fp);
        } else {
            wals[shard]
                .append(fp, batch)
                .map_err(|e| format!("preload append: {e}"))?;
        }
    }
    for (shard, store) in stores.iter().enumerate() {
        write_snapshot(&snapshot_path(dir, shard), &store.snapshot())
            .map_err(|e| format!("preload snapshot: {e}"))?;
    }
    Ok(())
}

fn judge_read(expect: Expect, response: &Response) -> Verdict {
    let ok = match (expect, response) {
        (Expect::Report, Response::Report(_)) => true,
        (Expect::Directives, Response::Control(ControlResponse::Directives(_))) => true,
        (Expect::StateTable, Response::Control(ControlResponse::StateTable { .. })) => true,
        (Expect::Stack, Response::Control(ControlResponse::Stack { .. })) => true,
        (Expect::Rollout, Response::Control(ControlResponse::Rollout(s))) => !s.rolled_back,
        _ => false,
    };
    if ok {
        Verdict::Done
    } else {
        Verdict::Failed
    }
}

/// Mean `FleetController::handle` time per verb, µs, replaying the
/// first `sent` of connection 2's requests in order through an
/// in-process controller.
fn replay_control(
    ctx: &Ctx,
    inputs: &Inputs,
    sent: usize,
    parent: Option<SpanId>,
) -> BTreeMap<Verb, (f64, u64)> {
    let mut ctl = FleetController::new();
    let mut per_verb: BTreeMap<Verb, (f64, u64)> = BTreeMap::new();
    for (i, &(_, op)) in inputs.reads[..sent].iter().enumerate() {
        let op = &inputs.ops[op];
        let (Some(verb), Some(request)) = (op.verb, op.control.clone()) else {
            continue;
        };
        let start = Instant::now();
        std::hint::black_box(ctl.handle(request));
        let end = Instant::now();
        ctx.tracer
            .record("control.handle", parent, i as u64 + 1, 0, start, end);
        let slot = per_verb.entry(verb).or_default();
        slot.0 += ms(end - start) * 1e3;
        slot.1 += 1;
    }
    per_verb
}

/// Connection 2's requests from `reads[first..]` whose due time lies
/// less than `horizon` ns after the first one's, re-based so the first
/// is due at once; the tag is the request's index in `reads`.
fn reads_from(inputs: &Inputs, first: usize, horizon: u64) -> Vec<Due<'_>> {
    let Some(&(at0, _)) = inputs.reads.get(first) else {
        return Vec::new();
    };
    inputs.reads[first..]
        .iter()
        .take_while(|(at, _)| at - at0 < horizon)
        .enumerate()
        .map(|(j, &(at, op))| Due {
            at_ns: at - at0,
            frame: &inputs.ops[op].frame,
            tag: first + j,
        })
        .collect()
}

/// Generates the workload's inputs and their reference fold.
fn inputs(seed: u64, open_s: f64) -> Inputs {
    let apps = table5::apps();
    let templates = sync_templates(seed);
    let mut ops = control_ops(seed, &templates, CONTROL_OPS, rollout_push());
    ops.push(query_op(QUERY_TOP_N));
    // Connection 2's stream runs on through the closed-loop chunks,
    // whose length depends on the server's speed: due times reach far
    // enough past the open-loop time for a slow host.
    let horizon_s = 3.0 * open_s;
    let mut reads: Vec<(u64, usize)> =
        even_schedule((CONTROL_RATE * horizon_s) as usize, CONTROL_RATE)
            .zip((0..CONTROL_OPS).cycle())
            .chain(
                even_schedule((QUERY_RATE * horizon_s) as usize, QUERY_RATE)
                    .map(|at| (at + 1, CONTROL_OPS)),
            )
            .collect();
    reads.sort_by_key(|(at, _)| *at);

    let mut reference = AggregationStore::new();
    let mut preload = upload_plan(seed, 2, &apps, PRELOAD, 0, true);
    preload.frames = Vec::new();
    for batch in &preload.batches {
        reference.ingest(batch);
    }
    let mut sent = |mut plan: UploadPlan| {
        for &i in &plan.sends {
            reference.ingest(&plan.batches[i]);
        }
        plan.batches = Vec::new();
        plan
    };
    let n_write = (WRITE_RATE * open_s) as usize;
    let writes = sent(upload_plan(seed, 3, &apps, n_write, DEVICES, true));
    let burst = sent(upload_plan(
        seed,
        4,
        &apps,
        CHUNK * SEGMENTS,
        2 * DEVICES,
        true,
    ));
    Inputs {
        preload,
        writes,
        burst,
        reference,
        ops,
        reads,
    }
}

/// What the measured phase produced.
#[derive(Default)]
struct Measured {
    /// Open-loop upload legs (connection 0) with connection 2's reads
    /// (connection 1).
    open: Vec<LegOutcome>,
    /// Reads sent during the closed-loop chunks (connection 0).
    closed_reads: Vec<LegOutcome>,
    /// Closed-loop chunks.
    chunks: Vec<Closed>,
}

impl Measured {
    /// Every leg that carried reads, with the connection index they used.
    fn read_legs(&self) -> impl Iterator<Item = (&LegOutcome, usize)> {
        self.open
            .iter()
            .map(|l| (l, 1))
            .chain(self.closed_reads.iter().map(|l| (l, 0)))
    }
}

/// One pass of the workload.
pub fn run(ctx: &Ctx) -> Result<Pass, String> {
    let open_s = ctx.measure.as_secs_f64().max(MIN_SECONDS);
    let part_s = open_s / SEGMENTS as f64;
    let inputs = inputs(ctx.seed, open_s);
    let per_part = inputs.writes.sends.len() / SEGMENTS;

    // Set-up: write the preload through the WAL and snapshot calls and
    // restart the server over it (recovery).
    let (setup, setup_s) = repeated_setup(
        SETUPS,
        |i| {
            let wal_dir = ctx.work.join(format!("mixed-{i}"));
            write_preload(&wal_dir, &inputs.preload, ctx.nproc)?;
            let start = Instant::now();
            let server = start_server(&wal_dir, ctx.nproc)?;
            Ok(Server {
                server,
                wal_dir,
                recover_ms: ms(start.elapsed()),
            })
        },
        |s| stop_server(s.server, &s.wal_dir),
    )?;
    let addr = setup.server.local_addr();
    let tracer = ctx.tracer;
    let op_of = |tag: usize| &inputs.ops[inputs.reads[tag].1];
    let limit = ctx.measure * 4 + Duration::from_secs(60);
    let judge_reads = |tag: usize, r: &Response| judge_read(op_of(tag).expect, r);

    let mut m = Measured::default();
    let mut per_verb = BTreeMap::new();
    let mut query_us = Vec::new();
    let mut final_identical = false;
    let root = tracer.span(
        "run",
        None,
        0,
        0,
        |root| -> Result<Option<SpanId>, String> {
            // Index of connection 2's next request.
            let mut next_read = 0;
            for k in 0..SEGMENTS {
                let writes: Vec<Due> = even_schedule(per_part, WRITE_RATE)
                    .zip(&inputs.writes.sends[k * per_part..(k + 1) * per_part])
                    .enumerate()
                    .map(|(j, (at_ns, &i))| Due {
                        at_ns,
                        frame: &inputs.writes.frames[i],
                        tag: k * per_part + j,
                    })
                    .collect();
                let reads = reads_from(&inputs, next_read, (part_s * 1e9) as u64);
                let leg = tracer
                    .span("telemetry.open_leg", root, k as u64, 0, |_| {
                        run_leg(addr, &[writes, reads], limit, None, |conn, tag, r| {
                            if conn == 0 {
                                judge_upload(r)
                            } else {
                                judge_reads(tag, r)
                            }
                        })
                    })
                    .map_err(|e| format!("open-loop part {k}: {e}"))?;
                next_read += leg.lateness_ms[1].len();
                m.open.push(leg);

                // The chunk's uploads at saturation while connection 2's
                // stream goes on; it stops when the chunk is done.
                let chunk = &inputs.burst.sends[k * CHUNK..(k + 1) * CHUNK];
                let reads = reads_from(&inputs, next_read, u64::MAX);
                let done = AtomicBool::new(false);
                let (chunk, leg) = tracer.span("telemetry.closed_leg", root, k as u64, 0, |_| {
                    thread::scope(|scope| {
                        let reader = scope.spawn(|| {
                            run_leg(addr, &[reads], limit, Some(&done), |_, tag, r| {
                                judge_reads(tag, r)
                            })
                        });
                        let chunk = closed_leg(addr, &inputs.burst, chunk, 1);
                        done.store(true, Ordering::Release);
                        (chunk, reader.join().expect("read leg panicked"))
                    })
                });
                let leg = leg.map_err(|e| format!("closed-loop part {k} reads: {e}"))?;
                next_read += leg.lateness_ms[0].len();
                m.chunks.push(chunk?);
                m.closed_reads.push(leg);
            }
            for (leg, read_conn) in m.read_legs() {
                for c in &leg.completed {
                    let (name, lane) = if c.conn == read_conn {
                        ("telemetry.read", 2)
                    } else {
                        ("telemetry.upload", 1)
                    };
                    tracer.record(name, root, c.tag as u64 + 1, lane, c.due, c.done);
                }
            }

            // The final query over the wire must equal the in-process
            // fold of the preload plus every batch sent.
            final_identical = tracer.span("check.final_query", root, 0, 0, |_| {
                Uploader::plain(addr)
                    .query(CHECK_TOP_N)
                    .is_ok_and(|r| r.to_json() == inputs.reference.report(CHECK_TOP_N).to_json())
            });

            if tracer.enabled() {
                let sent = m.read_legs().map(|(l, rc)| l.lateness_ms[rc].len()).sum();
                per_verb = replay_control(ctx, &inputs, sent, root);
                for i in 0..5u64 {
                    let start = Instant::now();
                    let snapshot = inputs.reference.snapshot();
                    let mut folded = AggregationStore::new();
                    folded.absorb(&snapshot);
                    std::hint::black_box(folded.report(QUERY_TOP_N));
                    let end = Instant::now();
                    tracer.record("telemetry.store.query", root, i + 1, 0, start, end);
                    query_us.push(ms(end - start) * 1e3);
                }
            }
            Ok(root)
        },
    )?;
    let stats = setup.server.stats();
    stop_server(setup.server, &setup.wal_dir)?;

    let read_lat = |pick: &dyn Fn(&ReadOp) -> bool| -> Vec<f64> {
        m.read_legs()
            .flat_map(|(l, rc)| l.completed.iter().filter(move |c| c.conn == rc))
            .filter(|c| pick(op_of(c.tag)))
            .map(|c| c.latency_ms())
            .collect()
    };
    let uploads: Vec<f64> = m
        .open
        .iter()
        .flat_map(|l| l.completed.iter().filter(|c| c.conn == 0))
        .map(|c| c.latency_ms())
        .collect();
    let queries = read_lat(&|op| op.expect == Expect::Report);
    let controls = read_lat(&|op| op.verb.is_some());
    let write_lateness: Vec<f64> = m
        .open
        .iter()
        .flat_map(|l| l.lateness_ms[0].clone())
        .collect();
    let read_lateness: Vec<f64> = m
        .read_legs()
        .flat_map(|(l, rc)| l.lateness_ms[rc].clone())
        .collect();
    let reads_sent = read_lateness.len();
    let failed_requests = m
        .open
        .iter()
        .chain(&m.closed_reads)
        .flat_map(|l| &l.completed)
        .filter(|c| !c.ok)
        .count() as u64;
    let rates: Vec<f64> = m.chunks.iter().map(Closed::rate).collect();
    let e2e = EndToEnd {
        setup_s,
        peak_rss_mb: crate::host::peak_rss_mb(),
        throughput: median(&rates),
        latency: latency("mixed uploads", &uploads)?,
    };
    let pct = |samples: &[f64], q: f64, what: &str| {
        percentile(samples, q)
            .map(|p| p.value)
            .map_err(|e| format!("{what}: {e}"))
    };
    let unique = |plan: &UploadPlan| plan.sends.iter().collect::<HashSet<_>>().len();
    let applied_want =
        (inputs.preload.batches.len() + unique(&inputs.writes) + unique(&inputs.burst)) as u64;
    let acked: usize = m.chunks.iter().map(|c| c.acked.len()).sum();
    let checks = vec![
        (
            "final query equals the in-process fold of preload plus batches sent".to_string(),
            final_identical,
        ),
        (
            format!(
                "batches_applied {} = preload + unique sent {applied_want}",
                stats.ingest.batches_applied
            ),
            stats.ingest.batches_applied == applied_want,
        ),
        (
            format!(
                "closed-loop sends ACKed {acked} = sent {}",
                inputs.burst.sends.len()
            ),
            acked == inputs.burst.sends.len(),
        ),
        (
            format!("decode_errors {} = 0", stats.decode_errors),
            stats.decode_errors == 0,
        ),
    ];
    let retries: u64 = m
        .open
        .iter()
        .chain(&m.closed_reads)
        .map(|l| l.retries)
        .sum::<u64>()
        + m.chunks.iter().map(|c| c.nacks).sum::<u64>();
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("telemetry.wal.recover_ms", setup.recover_ms),
        (
            "telemetry.server.query_p50_ms",
            pct(&queries, 0.5, "queries")?,
        ),
        (
            "telemetry.server.query_p90_ms",
            pct(&queries, 0.9, "queries")?,
        ),
        ("control.p50_ms", pct(&controls, 0.5, "control verbs")?),
        ("control.p99_ms", pct(&controls, 0.99, "control verbs")?),
        (
            "telemetry.store.seen_entries",
            inputs.reference.stats().batches_applied as f64,
        ),
        (
            "telemetry.store.devices",
            inputs.reference.device_count() as f64,
        ),
        ("telemetry.store.apps", inputs.reference.app_count() as f64),
        ("telemetry.server.nacks", stats.nacks_sent as f64),
        ("telemetry.server.retries", retries as f64),
        (
            "telemetry.server.duplicates_absorbed",
            stats.ingest.duplicates_absorbed as f64,
        ),
        ("telemetry.server.decode_errors", stats.decode_errors as f64),
        (
            "telemetry.server.batches_attempted",
            (inputs.writes.sends.len() + inputs.burst.sends.len()) as f64,
        ),
        (
            "gen.write.lateness_p50_ms",
            pct(&write_lateness, 0.5, "write lateness")?,
        ),
        (
            "gen.write.lateness_p99_ms",
            pct(&write_lateness, 0.99, "write lateness")?,
        ),
        (
            "gen.read.lateness_p50_ms",
            pct(&read_lateness, 0.5, "read lateness")?,
        ),
        (
            "gen.read.lateness_p99_ms",
            pct(&read_lateness, 0.99, "read lateness")?,
        ),
    ];
    if tracer.enabled() {
        layer.push(("telemetry.store.query_us", median(&query_us)));
        for verb in Verb::ALL {
            let (total, n) = per_verb.get(&verb).copied().unwrap_or_default();
            let name = match verb {
                Verb::Sync => "control.handle_us.sync",
                Verb::QueryState => "control.handle_us.query_state",
                Verb::PullStack => "control.handle_us.pull_stack",
                Verb::PushThresholds => "control.handle_us.push_thresholds",
                Verb::AdvanceRollout => "control.handle_us.advance_rollout",
            };
            layer.push((name, total / n.max(1) as f64));
        }
    }
    let failed_checks = checks.iter().filter(|c| !c.1).count() as u64;
    let closed_errors: u64 = m.chunks.iter().map(|c| c.errors).sum();
    let stage = root.map(|root| crate::trace::stage_table(&tracer.snapshot(), root));
    let closed_s: f64 = m.chunks.iter().map(|c| c.elapsed.as_secs_f64()).sum();
    Ok(Pass {
        e2e,
        layer,
        attempted: (inputs.writes.sends.len() + inputs.burst.sends.len() + reads_sent) as u64,
        failed: failed_requests + closed_errors + failed_checks,
        checks,
        stage,
        notes: vec![format!(
            "mixed: preload {} batches ({:.0}% snapshot), recovery {:.1} ms; {SEGMENTS} segments of an open-loop part ({} uploads at {WRITE_RATE}/s in all) and a closed-loop chunk ({} uploads in all, window {}, {closed_s:.3} s); reads throughout at {QUERY_RATE} queries/s + {CONTROL_RATE} control verbs/s; query p50 {:.3} ms ({} samples), control p50 {:.3} ms ({} samples); throughput is reports/s at saturation under the read load, median over chunks",
            inputs.preload.batches.len(),
            SNAPSHOT_SHARE * 100.0,
            setup.recover_ms,
            inputs.writes.sends.len(),
            inputs.burst.sends.len(),
            crate::ingest::WINDOW,
            pct(&queries, 0.5, "queries")?,
            queries.len(),
            pct(&controls, 0.5, "control verbs")?,
            controls.len(),
        )],
    })
}
