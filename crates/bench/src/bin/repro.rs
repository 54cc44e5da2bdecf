//! Command-line driver regenerating every table and figure of the
//! Hang Doctor evaluation.
//!
//! ```text
//! repro [--seed N] [--quick|--full] [--chaos RATE] [--json [path]] <experiment>...
//! repro all
//! ```
//!
//! Experiments: `fig1 table2 table3 table4 fig4 fig5 table5 fig6 fig7
//! table6 fig8 chaos sast` (or `all`); `sast` scans the corpus under the
//! context-sensitive profile (`--threads N` shards the scan; the report
//! is byte-identical at every thread count), `sast-full`/`sast-compat`
//! rerun it under the context-insensitive and perfchecker-compat
//! profiles, `sast-diff` scores the static↔runtime differential per bug
//! class, `sast-prec-diff` scores all three rule profiles against
//! fleet-confirmed ground truth (and fails unless the contextual arm
//! removes false positives with zero recall loss), `sast-bench` sweeps
//! the strided parallel scanner over the replicated study corpus and
//! writes `BENCH_sast.json`, and `async-diff` races the causal blame
//! walk against the naive join-site diagnosis and the static scanner
//! over the async hang corpus. `--quick` shrinks trace lengths;
//! `--full` runs the field study over the whole 114-app corpus.
//! `--chaos RATE` injects deterministic observation faults at the given
//! per-category rate into the `fleet`/`bench-summary` experiments and
//! sets the rate of the `chaos` differential (default 0.05).
//!
//! `--json` prints results as JSON; `--json <path>` writes them to
//! `<path>` instead. `bench-summary` sweeps the fleet workload over
//! 1/2/4/8/16 worker threads plus an accrual-kernel microbenchmark and
//! writes the machine-readable `hang-doctor/fleet-bench/v2` snapshot
//! `BENCH_fleet.json` (per-thread-count rows, accrue ns/call, best
//! throughput vs. the PR 2 baseline) — the repo's perf trajectory.
//!
//! Telemetry commands: `serve` runs the TCP ingestion server on
//! `--addr` until a client sends a shutdown frame (add `--wal DIR
//! --node-id N` for durable ingest that survives a crash); `upload`
//! runs the fleet and uploads every job's report to a running server,
//! then queries the top-N aggregation; `telemetry-bench` hammers a
//! loopback server with pipelined clients and writes
//! `BENCH_telemetry.json`; `cluster` runs the N-node differential
//! (`--nodes`, `--crash` kills and WAL-restarts a node mid-upload);
//! `replay` folds the WALs under `--wal DIR` offline and prints the
//! recovered aggregate. `fleet --telemetry` routes the whole fleet
//! through a loopback server and differentially checks the networked
//! aggregation against the in-process merge.
//!
//! Control commands (the `hang-doctor/control/v1` dialect): `control`
//! live-probes a running server — syncs real per-device Hang Doctor
//! runs, queries `--device N`'s S-Checker state table, pulls an
//! on-demand stack dump, toggles per-app diagnosis, and reports rollout
//! status; `push-thresholds` retrains symptom thresholds on the labeled
//! training set (`--heavy` for the exhaustive pass) and pushes them as
//! a canaried 1% → 25% → 100% rollout, exiting nonzero if the canary
//! cohort regresses and the push rolls back; `control-diff` writes
//! `CONTROL_differential.json` and exits nonzero unless a pushed
//! threshold reproduces the locally-configured detection outcome
//! byte-for-byte (clean and under `--chaos` control-frame loss, delay,
//! and duplication); `control-bench` writes `BENCH_control.json` —
//! control round-trip percentiles measured while pipelined ingest runs
//! at full rate.

use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    seed: u64,
    quick: bool,
    full: bool,
    json: bool,
    json_path: Option<PathBuf>,
    devices: u32,
    threads: usize,
    chaos: Option<f64>,
    telemetry: bool,
    addr: String,
    shards: usize,
    queue: usize,
    top: usize,
    shutdown: bool,
    nodes: usize,
    wal: Option<String>,
    node_id: u64,
    crash: bool,
    device: u32,
    heavy: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed N] [--quick|--full] [--chaos RATE] [--json [path]] [--devices N] [--threads N] <experiment>...\n\
         experiments: fig1 table1 fig2b table2 table3 table4 fig4 fig5 table5 fig6 fig7
         table6 fig8 generality ablations chaos sast sast-full sast-compat sast-diff\n\
         sast-prec-diff sast-bench async-diff fleet bench-summary all\n\
         telemetry commands: serve upload telemetry-bench cluster replay (plus fleet --telemetry)\n\
         control commands: control push-thresholds control-diff control-bench\n\
         --devices/--threads apply to the fleet and bench-summary experiments (defaults 8/1);\n\
         --threads also shards the sast scan (byte-identical at any count)\n\
         --chaos RATE injects observation faults into fleet/bench-summary and sets the\n\
         rate of the chaos differential (RATE in [0,1], default 0.05); with --telemetry\n\
         (or upload) it also enables transport faults at the same rate\n\
         --telemetry routes the fleet through a loopback TCP server and checks the\n\
         networked aggregation byte-for-byte against the in-process merge\n\
         --addr HOST:PORT for serve/upload (default 127.0.0.1:7077)\n\
         --shards N / --queue N size the serve ingest pool (defaults 4/64)\n\
         --wal DIR / --node-id N make serve durable (WAL + snapshots under DIR);\n\
         replay --wal DIR folds those logs offline into the recovered aggregate\n\
         --nodes N sizes the cluster differential (default 3); --crash kills one\n\
         node mid-upload and restarts it from its WAL\n\
         --top N bounds exported hang groups (default 25); upload --shutdown stops the server\n\
         control probes a running server in the hang-doctor/control/v1 dialect (state-table\n\
         query + stack pull on --device N, per-app diagnosis toggle, rollout status);\n\
         push-thresholds retrains on the labeled training set (--heavy for the exhaustive\n\
         pass) and pushes a canary → expanded → full rollout, failing on rollback;\n\
         control-diff writes CONTROL_differential.json and fails unless the pushed\n\
         thresholds reproduce the locally-configured run byte-for-byte (clean or --chaos);\n\
         control-bench writes BENCH_control.json (control latency under full ingest load)\n\
         bench-summary writes BENCH_fleet.json, telemetry-bench writes BENCH_telemetry.json,\n\
         sast-bench writes BENCH_sast.json (override any path with --json <path>)"
    );
    std::process::exit(2);
}

fn is_experiment(name: &str) -> bool {
    ALL.contains(&name)
        || matches!(
            name,
            "fleet"
                | "generality"
                | "bench-summary"
                | "sast-full"
                | "sast-compat"
                | "sast-diff"
                | "sast-prec-diff"
                | "sast-bench"
                | "async-diff"
                | "serve"
                | "upload"
                | "telemetry-bench"
                | "cluster"
                | "replay"
                | "control"
                | "push-thresholds"
                | "control-diff"
                | "control-bench"
                | "all"
        )
}

fn emit<T: serde::Serialize>(opts: &Opts, value: &T, text: String) {
    if opts.json {
        let json = serde_json::to_string_pretty(value).expect("serializable result");
        match &opts.json_path {
            Some(path) => {
                std::fs::write(path, format!("{json}\n"))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                println!("wrote {}", path.display());
            }
            None => println!("{json}"),
        }
    } else {
        println!("{text}");
    }
}

/// The PR 2 fleet-throughput reference, device-hours per wall second on
/// the quick-fleet workload; `BENCH_fleet.json` tracks the multiple.
const PR2_BASELINE: f64 = 1.67;

/// Times `MemProfile::accrue` directly (ns/call, ui and memory-heavy
/// profiles) so the bench artifact carries the kernel floor rather than
/// inferring it from fleet wall time.
fn measure_accrue() -> hd_fleet::AccrueBench {
    use hd_simrt::{CounterBank, MemProfile, SimRng};
    fn ns_per_call(profile: &MemProfile) -> f64 {
        let mut bank = CounterBank::new();
        let mut rng = SimRng::seed_from_u64(7);
        // Warm up, then time a fixed batch; 200k calls keep the whole
        // measurement under ~10 ms.
        for _ in 0..10_000 {
            profile.accrue(&mut bank, 50_000, &mut rng);
        }
        let calls = 200_000u32;
        let started = std::time::Instant::now();
        for _ in 0..calls {
            profile.accrue(&mut bank, 50_000, &mut rng);
        }
        let elapsed = started.elapsed();
        std::hint::black_box(&bank);
        elapsed.as_nanos() as f64 / calls as f64
    }
    hd_fleet::AccrueBench {
        ui_ns_per_call: ns_per_call(&MemProfile::ui()),
        memory_heavy_ns_per_call: ns_per_call(&MemProfile::memory_heavy()),
    }
}

/// The fleet study spec (honouring `--quick/--devices/--threads/--chaos`).
fn study_spec(opts: &Opts, seed: u64) -> hd_fleet::FleetSpec {
    let mut spec = hd_fleet::FleetSpec::study(opts.devices, opts.threads, seed);
    if opts.quick {
        spec.executions_per_action = 2;
    }
    if let Some(rate) = opts.chaos {
        spec.faults = hangdoctor::FaultConfig::chaos(rate);
    }
    spec
}

/// Runs the fleet study in-process.
fn fleet_report(opts: &Opts, seed: u64) -> hd_fleet::FleetReport {
    hd_fleet::run_fleet(&study_spec(opts, seed))
}

/// Transport fault configuration: `--chaos RATE` also shakes the
/// telemetry path.
fn net_config(opts: &Opts) -> hd_faults::LinkFaultConfig {
    hd_faults::LinkFaultConfig::chaos(opts.chaos.unwrap_or(0.0))
}

fn run_one(name: &str, opts: &Opts) -> Result<(), String> {
    let seed = opts.seed;
    let (e_small, e_mid, e_big) = if opts.quick { (4, 4, 6) } else { (6, 8, 12) };
    match name {
        "fig1" => {
            let r = hd_bench::fig1::run(seed);
            emit(opts, &r, r.render());
        }
        "table1" => {
            let r = hd_bench::table1::run(seed);
            emit(opts, &r, r.render());
        }
        "fig2b" => {
            let r = hd_bench::fig2b::run(seed, 6);
            emit(opts, &r, r.render());
        }
        "table2" => {
            let r = hd_bench::table2::run(seed, e_big.max(6));
            emit(opts, &r, r.render());
        }
        "table3" => {
            let r = hd_bench::table3::run(seed, e_small);
            emit(opts, &r, r.render());
        }
        "table4" => {
            let r = hd_bench::table4::run(seed, e_small);
            emit(opts, &r, r.render());
        }
        "fig4" => {
            let r = hd_bench::fig4::run(seed, e_small);
            emit(opts, &r, r.render());
        }
        "fig5" => {
            let r = hd_bench::fig5::run(seed);
            emit(opts, &r, r.render());
        }
        "table5" => {
            let r = if opts.full {
                hd_bench::table5::run(seed, e_mid)
            } else {
                hd_bench::table5::run_study_apps(seed, e_mid.max(8))
            };
            emit(opts, &r, r.render());
        }
        "fig6" => {
            let r = hd_bench::fig6::run(seed);
            emit(opts, &r, r.render());
        }
        "fig7" => {
            let r = hd_bench::fig7::run(seed);
            emit(opts, &r, r.render());
        }
        "table6" => {
            let r = hd_bench::table6::run(seed, e_mid);
            emit(opts, &r, r.render());
        }
        "fig8" => {
            let r = hd_bench::fig8::run(seed, e_big);
            emit(opts, &r, r.render());
        }
        "generality" => {
            let r = hd_bench::generality::run(seed, e_mid);
            emit(opts, &r, r.render());
        }
        "chaos" => {
            let rate = opts.chaos.unwrap_or(0.05);
            let r = hd_bench::chaos::run(seed, rate, e_small);
            emit(opts, &r, r.render());
        }
        "sast" => {
            let r = hd_bench::sast::run_scan(hd_sast::RuleProfile::Contextual, 2017, opts.threads);
            emit(opts, &r, r.render());
        }
        "sast-full" => {
            let r = hd_bench::sast::run_scan(hd_sast::RuleProfile::Full, 2017, opts.threads);
            emit(opts, &r, r.render());
        }
        "sast-compat" => {
            let r = hd_bench::sast::run_scan(
                hd_sast::RuleProfile::PerfCheckerCompat,
                2017,
                opts.threads,
            );
            emit(opts, &r, r.render());
        }
        "sast-diff" => {
            let r = hd_bench::sast::run_differential(seed, e_small, 2017);
            emit(opts, &r, hd_bench::sast::render_differential(&r));
        }
        "sast-prec-diff" => {
            let r = hd_bench::sast::run_precision_differential(seed, e_small, 2017);
            let text = hd_bench::sast::render_precision(&r);
            if !r.refinement_holds() {
                return Err(format!(
                    "precision differential failed: the contextual arm must remove \
                     false positives without losing a true positive\n{text}"
                ));
            }
            emit(opts, &r, text);
        }
        "sast-bench" => {
            // The strided-scanner sweep over the replicated study corpus;
            // --quick trims the replica count so CI stays fast.
            let (sweep, replicas) = if opts.quick {
                (vec![1usize, 2, 4], 200)
            } else {
                (vec![1usize, 2, 4, 8, 16], 400)
            };
            let bench = hd_bench::sast::run_bench(seed, &sweep, replicas);
            let path = opts
                .json_path
                .clone()
                .unwrap_or_else(|| PathBuf::from("BENCH_sast.json"));
            let json = serde_json::to_string_pretty(&bench).expect("serializable sast bench");
            std::fs::write(&path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "wrote {}: {}",
                path.display(),
                hd_bench::sast::render_bench(&bench)
            );
        }
        "async-diff" => {
            let r = hd_bench::async_diff::run_async_differential(seed, e_small, 2017);
            emit(
                opts,
                &r,
                hd_bench::async_diff::render_async_differential(&r),
            );
        }
        "fleet" => {
            if opts.telemetry {
                let spec = study_spec(opts, seed);
                let outcome = hd_telemetry::run_fleet_telemetry(&spec, &net_config(opts), opts.top);
                if !outcome.byte_identical {
                    return Err("telemetry differential failed: the networked aggregation \
                         diverged from the in-process merge"
                        .to_string());
                }
                let text = format!(
                    "{}\ntelemetry differential: networked report is byte-identical \
                     to the in-process merge ({} batches, {} duplicates absorbed, {} NACKs)\n\n{}",
                    outcome.fleet.render(),
                    outcome.server.ingest.batches_applied,
                    outcome.server.ingest.duplicates_absorbed,
                    outcome.server.nacks_sent,
                    outcome.report.render(),
                );
                emit(opts, &outcome.report, text);
            } else {
                let r = fleet_report(opts, seed);
                emit(opts, &r, r.render());
            }
        }
        "serve" => {
            let mut builder = hd_telemetry::TelemetryServer::builder()
                .addr(&opts.addr)
                .shards(opts.shards)
                .queue_capacity(opts.queue)
                .node_id(opts.node_id);
            if let Some(dir) = &opts.wal {
                builder = builder.wal_dir(dir.clone());
            }
            let server = builder
                .start()
                .map_err(|e| format!("cannot start server on {}: {e}", opts.addr))?;
            let durability = match &opts.wal {
                Some(dir) => format!("WAL under {dir} as node {}", opts.node_id),
                None => "in-memory".to_string(),
            };
            println!(
                "hd-telemetry server listening on {} ({} shards, queue {}, {durability}); \
                 stop it with `repro upload --shutdown` or any shutdown frame",
                server.local_addr(),
                opts.shards,
                opts.queue
            );
            if server.stats().batches_recovered > 0 {
                println!(
                    "recovered {} batches from WAL replay",
                    server.stats().batches_recovered
                );
            }
            let stats = server.join();
            emit(
                opts,
                &stats,
                format!(
                    "server stopped: {} connections, {} batches applied \
                     ({} duplicates absorbed), {} NACKs sent, {} recovered from WAL",
                    stats.connections,
                    stats.ingest.batches_applied,
                    stats.ingest.duplicates_absorbed,
                    stats.nacks_sent,
                    stats.batches_recovered
                ),
            );
        }
        "cluster" => {
            let spec = study_spec(opts, seed);
            // --crash kills one node after the middle wave and restarts
            // it from its WAL; --chaos RATE additionally draws random
            // crash waves (plus transport faults) at that rate.
            let crash = if let Some(rate) = opts.chaos {
                hd_faults::NodeCrashPlan::for_cluster(rate, opts.nodes, 4, seed)
            } else if opts.crash {
                hd_faults::NodeCrashPlan::pinned(3, 1, 1 % opts.nodes)
            } else {
                hd_faults::NodeCrashPlan::none(1)
            };
            let outcome = hd_telemetry::run_cluster_telemetry(
                &spec,
                &net_config(opts),
                opts.nodes,
                opts.top,
                &crash,
            );
            let text = format!(
                "cluster differential: {} nodes, {} waves, {} kill-and-restart events, \
                 {} batches replayed from WALs\nreport byte-identical: {}  \
                 raw state identical: {}\n\n{}",
                outcome.nodes,
                outcome.waves,
                outcome.crashes.len(),
                outcome.batches_recovered,
                outcome.byte_identical,
                outcome.state_identical,
                outcome.report.render(),
            );
            let ok = outcome.byte_identical && outcome.state_identical;
            emit(opts, &outcome, text);
            if !ok {
                return Err("cluster differential failed: the coordinator fold \
                     diverged from the single-store reference"
                    .to_string());
            }
        }
        "replay" => {
            let root = PathBuf::from(opts.wal.clone().ok_or("replay needs --wal DIR")?);
            // Accept either one node's directory (shard-*.wal inside)
            // or a cluster root (node-*/ subdirectories).
            let mut dirs = vec![root.clone()];
            if let Ok(entries) = std::fs::read_dir(&root) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.is_dir()
                        && path
                            .file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("node-"))
                    {
                        dirs.push(path);
                    }
                }
            }
            dirs.sort();
            let mut store = hd_telemetry::AggregationStore::new();
            let mut shards_replayed = 0usize;
            let mut batches_replayed = 0usize;
            for dir in &dirs {
                for shard in 0.. {
                    let wal_file = hd_telemetry::wal::wal_path(dir, shard);
                    let snap_file = hd_telemetry::wal::snapshot_path(dir, shard);
                    if !wal_file.exists() && !snap_file.exists() {
                        break;
                    }
                    if let Some(snap) = hd_telemetry::wal::read_snapshot(&snap_file)
                        .map_err(|e| format!("{}: {e}", snap_file.display()))?
                    {
                        store.absorb(&snap);
                    }
                    if wal_file.exists() {
                        let bytes = std::fs::read(&wal_file)
                            .map_err(|e| format!("{}: {e}", wal_file.display()))?;
                        let replay = hd_telemetry::wal::scan_wal(&bytes)
                            .map_err(|e| format!("{}: {e}", wal_file.display()))?;
                        batches_replayed += replay.batches.len();
                        for rec in &replay.batches {
                            store.ingest_prehashed(&rec.batch, rec.fingerprint);
                        }
                    }
                    shards_replayed += 1;
                }
            }
            if shards_replayed == 0 {
                return Err(format!(
                    "no shard-*.wal or shard-*.snap files under {}",
                    root.display()
                ));
            }
            let report = store.report(opts.top);
            let text = format!(
                "replayed {batches_replayed} batches from {shards_replayed} shard log(s) \
                 under {}\n\n{}",
                root.display(),
                report.render()
            );
            emit(opts, &report, text);
        }
        "upload" => {
            let addr = opts
                .addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| format!("cannot resolve {}", opts.addr))?;
            let spec = study_spec(opts, seed);
            let (_, jobs) = hd_fleet::run_fleet_with_reports(&spec);
            let net = net_config(opts);
            let mut tally = hd_faults::NetFaultTally::default();
            for job in &jobs {
                let up = hd_telemetry::upload_job(addr, job, net, seed)
                    .map_err(|e| format!("device {} upload failed: {e}", job.device))?;
                tally.merge(&up);
            }
            let mut client = hd_telemetry::Uploader::plain(addr);
            let report = client.query(opts.top).map_err(|e| e.to_string())?;
            let mut text = format!(
                "uploaded {} device reports to {addr}\n\n{}",
                jobs.len(),
                report.render()
            );
            if tally.injected() > 0 {
                text.push_str(&format!(
                    "\ntransport faults injected: {} connection drops, {} delayed \
                     deliveries, {} duplicate frames ({} absorbed by idempotent ingest)\n",
                    tally.connections_dropped,
                    tally.deliveries_delayed,
                    tally.frames_duplicated,
                    tally.duplicates_absorbed
                ));
            }
            if opts.shutdown {
                client.shutdown().map_err(|e| e.to_string())?;
                text.push_str("\nserver shutdown requested\n");
            }
            emit(opts, &report, text);
        }
        "control" => {
            let addr = opts
                .addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| format!("cannot resolve {}", opts.addr))?;
            let executions = if opts.quick { 2 } else { 4 };
            let probe = hd_bench::control::run_control_probe(
                addr,
                seed,
                executions,
                opts.chaos,
                opts.device,
            )
            .map_err(|e| format!("control probe against {addr} failed: {e}"))?;
            let mut text = probe.render();
            if opts.shutdown {
                hd_telemetry::ControlClient::connect(addr)
                    .shutdown()
                    .map_err(|e| e.to_string())?;
                text.push_str("server shutdown requested\n");
            }
            emit(opts, &probe, text);
        }
        "push-thresholds" => {
            let addr = opts
                .addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| format!("cannot resolve {}", opts.addr))?;
            let executions = if opts.quick { 2 } else { 3 };
            let push = hd_bench::control::run_push_thresholds(
                addr, seed, executions, opts.heavy, opts.chaos,
            )
            .map_err(|e| format!("threshold push to {addr} failed: {e}"))?;
            let rolled_back = push.statuses.iter().any(|s| s.rolled_back);
            emit(opts, &push, push.render());
            if rolled_back {
                return Err(
                    "threshold rollout rolled back: the canary cohort regressed \
                     against the rest of the fleet"
                        .to_string(),
                );
            }
        }
        "control-diff" => {
            let rate = opts.chaos.unwrap_or(0.0);
            let diff = hd_bench::control::run_control_diff(seed, rate);
            let path = opts
                .json_path
                .clone()
                .unwrap_or_else(|| PathBuf::from("CONTROL_differential.json"));
            let json = serde_json::to_string_pretty(&diff).expect("serializable differential");
            std::fs::write(&path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}: {}", path.display(), diff.render());
            if !diff.passed() {
                return Err(format!(
                    "control differential failed: pushed thresholds must reproduce the \
                     locally-configured detection outcome byte-for-byte on a \
                     detection-changing threshold (pushed_identical {}, baseline_differs {})",
                    diff.pushed_identical, diff.baseline_differs
                ));
            }
        }
        "control-bench" => {
            let (clients, batches, reports) = if opts.quick {
                (2, 64, 16)
            } else {
                (2, 256, 32)
            };
            let bench = hd_bench::control::run_control_bench(clients, batches, reports);
            let path = opts
                .json_path
                .clone()
                .unwrap_or_else(|| PathBuf::from("BENCH_control.json"));
            let json = serde_json::to_string_pretty(&bench).expect("serializable control bench");
            std::fs::write(&path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}: {}", path.display(), bench.render());
        }
        "telemetry-bench" => {
            let mut bench_spec = hd_telemetry::BenchSpec::default();
            if opts.quick {
                bench_spec.batches_per_client = 16;
            }
            let bench = hd_telemetry::run_telemetry_bench(&bench_spec);
            let path = opts
                .json_path
                .clone()
                .unwrap_or_else(|| PathBuf::from("BENCH_telemetry.json"));
            let json = serde_json::to_string_pretty(&bench).expect("serializable bench");
            std::fs::write(&path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}: {}", path.display(), bench.render());
        }
        "bench-summary" => {
            // The v2 sweep: the same workload at 1/2/4/8/16 threads plus
            // the accrual-kernel microbenchmark, so one artifact carries
            // the serial floor, the scaling curve, and the kernel cost.
            let accrue = measure_accrue();
            let mut rows = Vec::new();
            for threads in [1usize, 2, 4, 8, 16] {
                let mut spec = study_spec(opts, seed);
                spec.threads = threads;
                let r = hd_fleet::run_fleet(&spec);
                rows.push(r.bench_row());
            }
            let workload = format!(
                "table5 study corpus, {} devices/app, executions {}, seed {}{}",
                opts.devices,
                if opts.quick { 2 } else { 4 },
                seed,
                if opts.chaos.is_some() { ", chaos" } else { "" },
            );
            let bench = hd_fleet::FleetBench::new(&workload, PR2_BASELINE, accrue, rows);
            let path = opts
                .json_path
                .clone()
                .unwrap_or_else(|| PathBuf::from("BENCH_fleet.json"));
            let json = serde_json::to_string_pretty(&bench).expect("serializable bench summary");
            std::fs::write(&path, format!("{json}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "wrote {}: best {:.2} device-hours/s over {} thread counts \
                 ({:.1}x the {:.2} baseline); accrue ui {:.1} ns, memory-heavy {:.1} ns",
                path.display(),
                bench.best_device_hours_per_wall_second,
                bench.rows.len(),
                bench.best_device_hours_per_wall_second / PR2_BASELINE,
                PR2_BASELINE,
                bench.accrue.ui_ns_per_call,
                bench.accrue.memory_heavy_ns_per_call,
            );
        }
        "ablations" => {
            let r = hd_bench::ablation::phase2_only(seed, e_mid);
            emit(opts, &r, r.render());
            let r = hd_bench::ablation::single_counter(seed, e_mid);
            emit(opts, &r, r.render());
            let r = hd_bench::ablation::early_sampling(seed, e_mid.max(8));
            emit(opts, &r, r.render());
            let r = hd_bench::ablation::occurrence_sweep(seed, e_small);
            emit(opts, &r, r.render());
            let r = hd_bench::ablation::period_sweep(seed, e_small);
            emit(opts, &r, r.render());
        }
        other => return Err(format!("unknown experiment '{other}'")),
    }
    Ok(())
}

const ALL: [&str; 16] = [
    "fig1",
    "table1",
    "fig2b",
    "table2",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "table5",
    "fig6",
    "fig7",
    "table6",
    "fig8",
    "ablations",
    "chaos",
    "sast",
];

fn main() -> ExitCode {
    let mut opts = Opts {
        seed: 42,
        quick: false,
        full: false,
        json: false,
        json_path: None,
        devices: 8,
        threads: 1,
        chaos: None,
        telemetry: false,
        addr: "127.0.0.1:7077".to_string(),
        shards: 4,
        queue: 64,
        top: 25,
        shutdown: false,
        nodes: 3,
        wal: None,
        node_id: 0,
        crash: false,
        device: 1,
        heavy: false,
    };
    let mut experiments: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                opts.seed = v;
            }
            "--devices" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.devices = v;
            }
            "--threads" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.threads = v;
            }
            "--chaos" => {
                let Some(v) = args
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| (0.0..=1.0).contains(v))
                else {
                    usage()
                };
                opts.chaos = Some(v);
            }
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--telemetry" => opts.telemetry = true,
            "--shutdown" => opts.shutdown = true,
            "--crash" => opts.crash = true,
            "--heavy" => opts.heavy = true,
            "--device" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.device = v;
            }
            "--nodes" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.nodes = v;
            }
            "--wal" => {
                let Some(v) = args.next() else { usage() };
                opts.wal = Some(v);
            }
            "--node-id" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                opts.node_id = v;
            }
            "--addr" => {
                let Some(v) = args.next() else { usage() };
                opts.addr = v;
            }
            "--shards" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.shards = v;
            }
            "--queue" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.queue = v;
            }
            "--top" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()).filter(|v| *v > 0) else {
                    usage()
                };
                opts.top = v;
            }
            "--json" => {
                opts.json = true;
                // An optional operand: `--json out.json` writes to the
                // file; a following experiment name or flag means stdout.
                if let Some(next) = args.peek() {
                    if !next.starts_with('-') && !is_experiment(next) {
                        opts.json_path = Some(PathBuf::from(args.next().expect("peeked")));
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }
    for (i, name) in experiments.iter().enumerate() {
        if i > 0 && !opts.json {
            println!("\n{}\n", "=".repeat(72));
        }
        if let Err(e) = run_one(name, &opts) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
