//! `pipeline`: the north-star path as a closed batch job. Each round
//! simulates a seeded Table 5 study fleet (S-Checker and Diagnoser on
//! every device, then the merge), uploads every device's report through
//! its own uploader to a WAL-backed two-node loopback cluster, folds
//! the cluster, checks the fold against the in-process merge, and
//! pushes one threshold rollout through all three stages.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use hangdoctor::{shared, BlockingApiDb, HangBugReport, HangDoctor};
use hd_appmodel::{build_run, generate_schedule, CompiledApp, TraceParams};
use hd_baselines::install;
use hd_control::RolloutStage;
use hd_faults::FaultPlan;
use hd_fleet::{device_seed, run_fleet_with_reports, FleetSpec, JobReport, MergedFleet};
use hd_metrics::OverheadReport;
use hd_simrt::{SimConfig, SimRng};
use hd_telemetry::{
    Cluster, ClusterConfig, ControlClient, TelemetryItem, TelemetryReport, UploadBatch, Uploader,
    UploaderConfig,
};

use crate::bench::{latency, ms, repeated_setup, Ctx, EndToEnd, Pass};
use crate::gen::rollout_push;
use crate::stats::median;
use crate::trace::SpanId;

/// Simulated devices per study app in one round (16 apps).
const DEVICES_PER_APP: u32 = 4;
/// User-trace length: executions per action per device.
const EXECUTIONS: usize = 4;
/// Cluster nodes.
const NODES: usize = 2;
/// Top-N of the fold comparison: large enough to keep every group.
const TOP_N: usize = 1 << 20;
/// Fewest device uploads a pass times, so the p99 has ten beyond it.
const MIN_UPLOADS: usize = 1_100;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 5;

fn round_seed(seed: u64, round: usize) -> u64 {
    device_seed(seed ^ 0x9199_E11E, round as u64)
}

/// What one round measured.
struct Round {
    wall_s: f64,
    device_hours: f64,
    uploads_ms: Vec<f64>,
    fold_ms: f64,
    push_ms: f64,
    shard_skew: f64,
    uploads: u64,
    upload_errors: u64,
    nacks: u64,
    retries: u64,
    resends: u64,
    fold_identical: bool,
    rollout_ok: bool,
    applied_ok: bool,
    /// The merged fleet, kept for the first round only (the traced
    /// replay checks against it), so memory does not grow with the
    /// number of rounds a pass fits.
    merged: Option<MergedFleet>,
}

/// Uploads every job's report, `threads` at a time, each device through
/// its own uploader; returns per-device upload times and tallies.
fn upload_all(
    ctx: &Ctx,
    jobs: &[JobReport],
    addrs: &[SocketAddr],
    routes: &[usize],
    root_seed: u64,
    parent: Option<SpanId>,
) -> (Vec<f64>, u64, u64, u64) {
    let results: Mutex<Vec<(f64, bool, u64, u64)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    thread::scope(|scope| {
        for t in 0..ctx.nproc {
            let results = &results;
            scope.spawn(move || {
                for (job, &node) in jobs.iter().zip(routes).skip(t).step_by(ctx.nproc) {
                    let start = Instant::now();
                    let mut uploader = Uploader::new(
                        addrs[node],
                        u64::from(job.device),
                        root_seed,
                        UploaderConfig::default(),
                    );
                    let batch = UploadBatch {
                        app: job.app.clone(),
                        device: job.device,
                        seq: 0,
                        items: vec![TelemetryItem::Report(job.report.clone())],
                    };
                    let ok = uploader.negotiate().is_ok() && uploader.upload(&batch).is_ok();
                    let tally = uploader.tally();
                    drop(uploader);
                    let end = Instant::now();
                    ctx.tracer.record(
                        "telemetry.client.upload_device",
                        parent,
                        u64::from(job.device),
                        t as u32 + 1,
                        start,
                        end,
                    );
                    results.lock().expect("upload results lock").push((
                        ms(end - start),
                        ok,
                        tally.nacks_received,
                        tally.upload_retries,
                    ));
                }
            });
        }
    });
    let results = results.into_inner().expect("upload results lock");
    let errors = results.iter().filter(|r| !r.1).count() as u64;
    let nacks = results.iter().map(|r| r.2).sum();
    let retries = results.iter().map(|r| r.3).sum();
    (
        results.into_iter().map(|r| r.0).collect(),
        errors,
        nacks,
        retries,
    )
}

fn run_round(
    ctx: &Ctx,
    spec: &FleetSpec,
    round: usize,
    parent: Option<SpanId>,
) -> Result<Round, String> {
    let tracer = ctx.tracer;
    let group = round as u64;
    let started = Instant::now();
    let (fleet, jobs) = tracer.span("fleet.run", parent, group, 0, |_| {
        run_fleet_with_reports(spec)
    });

    let wal_root = ctx.work.join(format!("pipeline-{round}"));
    let cluster = tracer
        .span("telemetry.cluster.launch", parent, group, 0, |_| {
            Cluster::launch(ClusterConfig {
                nodes: NODES,
                shards: ctx.nproc,
                wal_root: Some(wal_root.clone()),
                ..ClusterConfig::default()
            })
        })
        .map_err(|e| format!("cluster launch: {e}"))?;
    let addrs: Vec<SocketAddr> = (0..NODES).map(|n| cluster.addr(n)).collect();
    let routes: Vec<usize> = jobs
        .iter()
        .map(|j| cluster.route(&j.app, j.device))
        .collect();

    let (uploads_ms, upload_errors, nacks, retries) =
        tracer.span("telemetry.client.upload", parent, group, 0, |p| {
            upload_all(ctx, &jobs, &addrs, &routes, spec.root_seed, p)
        });

    let fold_start = Instant::now();
    let folded = tracer.span("telemetry.cluster.fold", parent, group, 0, |_| {
        cluster.aggregate(TOP_N)
    });
    let fold_ms = ms(fold_start.elapsed());
    let fold_identical = tracer.span("check.fold_bytes", parent, group, 0, |_| {
        folded
            .as_ref()
            .is_ok_and(|f| f.to_json() == TelemetryReport::from_fleet(&fleet, TOP_N).to_json())
    });

    let push_start = Instant::now();
    let (rollout_ok, resends) = tracer.span("control.push", parent, group, 0, |_| {
        let mut ctl = ControlClient::connect(addrs[0]);
        let mut stages = Vec::new();
        let mut ok = ctl
            .push_thresholds(rollout_push())
            .map(|s| stages.push(s))
            .is_ok();
        for stage in [RolloutStage::Expanded, RolloutStage::Full] {
            ok &= ctl.advance_rollout(stage).map(|s| stages.push(s)).is_ok();
        }
        let want: Vec<&str> = RolloutStage::ALL.iter().map(|s| s.name()).collect();
        let got: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
        ok &= got == want && stages.iter().all(|s| !s.rolled_back);
        (ok, ctl.tally().resends)
    });
    let push_ms = ms(push_start.elapsed());

    let stats = tracer
        .span("telemetry.cluster.shutdown", parent, group, 0, |_| {
            cluster.shutdown()
        })
        .map_err(|e| format!("cluster shutdown: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&wal_root)
        .map_err(|e| format!("remove {}: {e}", wal_root.display()))?;

    let applied: u64 = stats.iter().map(|s| s.ingest.batches_applied).sum();
    let decode_errors: u64 = stats.iter().map(|s| s.decode_errors).sum();
    let busy: Vec<f64> = fleet
        .timing
        .shards
        .iter()
        .map(|s| s.busy_ms as f64)
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    Ok(Round {
        wall_s,
        device_hours: fleet.merged.simulated_ns as f64 / 3.6e12,
        uploads: jobs.len() as u64,
        uploads_ms,
        fold_ms,
        push_ms,
        shard_skew: busy.iter().fold(0.0f64, |m, &b| m.max(b)) / mean_busy.max(1.0),
        upload_errors,
        nacks,
        retries,
        resends,
        fold_identical,
        rollout_ok,
        applied_ok: applied == jobs.len() as u64 && decode_errors == 0,
        merged: (round == 0).then_some(fleet.merged),
    })
}

/// Per-layer numbers of the serial per-device replay.
struct Replay {
    compile_ms: f64,
    schedule_ms: f64,
    run_ms: f64,
    bare_run_ms: f64,
    merge_ms: f64,
    actions_completed: u64,
    simulated_hours: f64,
    schecker_checks: u64,
    diagnosis_sessions: u64,
    hangs_observed: u64,
    overhead_pct: f64,
    identical: bool,
}

/// Replays every device of one round serially through the layers'
/// public calls, with and without Hang Doctor, exactly the way the
/// fleet engine runs a job; the merged replay must reproduce the
/// fleet's merged-report bytes.
fn replay(ctx: &Ctx, spec: &FleetSpec, merged: &MergedFleet, parent: Option<SpanId>) -> Replay {
    let tracer = ctx.tracer;
    let timed = |name: &'static str, group: u64, start: Instant| {
        let end = Instant::now();
        tracer.record(name, parent, group, 0, start, end);
        ms(end - start)
    };
    let start = Instant::now();
    let compiled: Vec<CompiledApp> = spec
        .apps
        .iter()
        .map(|a| CompiledApp::new(a.clone()))
        .collect();
    let compile_ms = timed("appmodel.compile", 0, start);

    let mut out = Replay {
        compile_ms,
        schedule_ms: 0.0,
        run_ms: 0.0,
        bare_run_ms: 0.0,
        merge_ms: 0.0,
        actions_completed: 0,
        simulated_hours: 0.0,
        schecker_checks: 0,
        diagnosis_sessions: 0,
        hangs_observed: 0,
        overhead_pct: 0.0,
        identical: true,
    };
    let mut overheads = Vec::new();
    let mut apidb = BlockingApiDb::documented(spec.apidb_year);
    let dpa = spec.devices_per_app as usize;
    for (app_idx, compiled) in compiled.iter().enumerate() {
        let app = compiled.app();
        let mut app_report = HangBugReport::new(&app.name);
        for d in 0..dpa {
            let index = app_idx * dpa + d;
            let device = index as u32 + 1;
            let group = u64::from(device);
            let profile = &spec.profiles[d % spec.profiles.len()];
            let seed = device_seed(spec.root_seed, index as u64);
            let sim_cfg = SimConfig {
                cores: profile.cores,
                workers: profile.workers,
                ..SimConfig::default()
            };

            let start = Instant::now();
            let mut rng = SimRng::seed_from_u64(seed);
            let schedule = generate_schedule(
                app,
                TraceParams {
                    actions: spec.executions_per_action * app.actions.len(),
                    ..TraceParams::default()
                },
                &mut rng,
            );
            out.schedule_ms += timed("appmodel.schedule", group, start);

            let start = Instant::now();
            let mut run = build_run(compiled, &schedule, sim_cfg, seed);
            let db = shared(BlockingApiDb::documented(spec.apidb_year));
            let (mut doctor, _handle) = HangDoctor::new(
                spec.config.clone(),
                &app.name,
                &app.package,
                device,
                Some(db.clone()),
            );
            doctor.inject_faults(FaultPlan::for_job(
                spec.faults,
                spec.root_seed,
                index as u64,
            ));
            let installed = install(Box::new(doctor), &mut run.sim);
            let summary = run.sim.run();
            let hd = installed.finish().into_hang_doctor();
            out.run_ms += timed("simrt.run", group, start);

            let start = Instant::now();
            let mut bare = build_run(compiled, &schedule, sim_cfg, seed);
            std::hint::black_box(bare.sim.run());
            out.bare_run_ms += timed("simrt.bare_run", group, start);

            let Some(hd) = hd else {
                out.identical = false;
                continue;
            };
            overheads.push(OverheadReport::from_sim(&run.sim).avg_pct());
            out.actions_completed += summary.actions_completed as u64;
            out.simulated_hours += summary.ended_at.0 as f64 / 3.6e12;
            out.schecker_checks += hd.schecker_checks;
            out.diagnosis_sessions += hd.detections.len() as u64;
            out.hangs_observed += hd.hangs_observed;

            let start = Instant::now();
            app_report.merge(&hd.report);
            apidb.merge(&db.lock());
            out.merge_ms += timed("fleet.merge", group, start);
        }
        let start = Instant::now();
        out.identical &= merged.apps.get(app_idx).is_some_and(|a| {
            serde_json::to_string(&a.report).ok() == serde_json::to_string(&app_report).ok()
        });
        timed("check.replay_bytes", 0, start);
    }
    let start = Instant::now();
    out.identical &=
        serde_json::to_string(&merged.apidb).ok() == serde_json::to_string(&apidb).ok();
    timed("check.replay_bytes", 0, start);
    out.overhead_pct = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    out
}

/// One pass of the workload.
pub fn run(ctx: &Ctx) -> Result<Pass, String> {
    // Set-up: the study corpus and one warm-up round (first-touch of the
    // heap, thread and socket set-up paths).
    let (mut spec, setup_s) = repeated_setup(
        SETUPS,
        |i| {
            let mut spec = FleetSpec::study(DEVICES_PER_APP, ctx.nproc, 0);
            spec.executions_per_action = EXECUTIONS;
            spec.root_seed = round_seed(ctx.seed, usize::MAX - i);
            run_round(ctx, &spec, usize::MAX - i, None)?;
            Ok(spec)
        },
        |_| Ok(()),
    )?;

    let tracer = ctx.tracer;
    let mut rounds: Vec<Round> = Vec::new();
    let mut replayed = None;
    let root = tracer.span(
        "run",
        None,
        0,
        0,
        |root| -> Result<Option<SpanId>, String> {
            let start = Instant::now();
            while start.elapsed() < ctx.measure
                || rounds.iter().map(|r| r.uploads_ms.len()).sum::<usize>() < MIN_UPLOADS
            {
                let round = rounds.len();
                spec.root_seed = round_seed(ctx.seed, round);
                rounds.push(run_round(ctx, &spec, round, root)?);
            }
            if tracer.enabled() {
                spec.root_seed = round_seed(ctx.seed, 0);
                let merged = rounds[0].merged.as_ref().expect("round 0 keeps its merge");
                replayed = Some(replay(ctx, &spec, merged, root));
            }
            Ok(root)
        },
    )?;

    let uploads_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.uploads_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.device_hours / r.wall_s).collect();
    let e2e = EndToEnd {
        setup_s,
        peak_rss_mb: crate::host::peak_rss_mb(),
        throughput: median(&rates),
        latency: latency("device uploads", &uploads_ms)?,
    };

    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("fleet.shard_skew", med(|r| r.shard_skew)),
        ("telemetry.client.upload_ms", e2e.latency.p50.value),
        ("telemetry.cluster.fold_ms", med(|r| r.fold_ms)),
        ("control.push_ms", med(|r| r.push_ms)),
        ("control.resends", sum(|r| r.resends) as f64),
        ("telemetry.server.nacks", sum(|r| r.nacks) as f64),
        ("telemetry.server.retries", sum(|r| r.retries) as f64),
        (
            "telemetry.server.batches_attempted",
            sum(|r| r.uploads) as f64,
        ),
    ];
    let mut checks = vec![
        (
            "cluster fold byte-identical to the in-process merge".to_string(),
            rounds.iter().all(|r| r.fold_identical),
        ),
        (
            "rollout reached canary, expanded, full without rollback".to_string(),
            rounds.iter().all(|r| r.rollout_ok),
        ),
        (
            "every upload applied once, no decode errors".to_string(),
            rounds.iter().all(|r| r.applied_ok),
        ),
    ];
    if let Some(rp) = &replayed {
        checks.push((
            "per-device replay reproduces the merged-report bytes".to_string(),
            rp.identical,
        ));
        layer.extend([
            ("appmodel.compile_ms", rp.compile_ms),
            ("appmodel.schedule_ms", rp.schedule_ms),
            ("simrt.run_ms", rp.run_ms),
            ("simrt.bare_run_ms", rp.bare_run_ms),
            ("simrt.actions_completed", rp.actions_completed as f64),
            ("simrt.simulated_hours", rp.simulated_hours),
            ("core.host_cost_ms", rp.run_ms - rp.bare_run_ms),
            ("core.schecker_checks", rp.schecker_checks as f64),
            ("core.diagnosis_sessions", rp.diagnosis_sessions as f64),
            ("core.hangs_observed", rp.hangs_observed as f64),
            (
                "core.diagnosed_share",
                rp.diagnosis_sessions as f64 / rp.hangs_observed.max(1) as f64,
            ),
            ("core.sim_overhead_pct", rp.overhead_pct),
            ("fleet.merge_ms", rp.merge_ms),
        ]);
    }
    let failed_checks = checks.iter().filter(|c| !c.1).count() as u64;
    let stage = root.map(|root| crate::trace::stage_table(&tracer.snapshot(), root));
    let per_round: BTreeMap<&str, f64> = [
        ("rounds", rounds.len() as f64),
        ("devices_per_round", rounds[0].uploads as f64),
        ("device_hours_per_round", med(|r| r.device_hours)),
        ("round_wall_ms", med(|r| r.wall_s * 1e3)),
    ]
    .into_iter()
    .collect();
    Ok(Pass {
        e2e,
        layer,
        // Per round: every upload, the fold, three control verbs.
        attempted: sum(|r| r.uploads + 4),
        failed: sum(|r| r.upload_errors) + failed_checks,
        checks,
        stage,
        notes: vec![
            format!("pipeline: {per_round:?}"),
            format!(
                "pipeline: throughput is simulated device-hours per wall second, median over rounds; latency is one device's connect + negotiate + upload ({} samples)",
                e2e.latency.p99.samples
            ),
        ],
    })
}
