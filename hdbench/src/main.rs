//! `hdbench`: the seeded benchmark of the Hang Doctor reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path hdbench/Cargo.toml -- \
//!     --workload pipeline|ingest|mixed|sast --seed N --seconds N --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! workload untraced for `--seconds` and prints the end-to-end metrics;
//! with `--trace 1` it measures an untraced and then a traced pass of
//! half that length each and prints the per-layer metrics, the stage
//! table and the tracing overhead. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod bench;
mod gen;
mod host;
mod ingest;
mod mixed;
mod openloop;
mod pipeline;
mod sast;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bench::{Ctx, Pass, END_TO_END};
use trace::Tracer;

/// A seed no tuning of the benchmark or the program used: a claimed
/// gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_181_023;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["pipeline", "ingest", "mixed", "sast"];

/// Per-layer metric names and units, in output order. A workload that
/// does not reach a layer reports its metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("appmodel.compile_ms", "ms"),
    ("appmodel.schedule_ms", "ms"),
    ("simrt.run_ms", "ms"),
    ("simrt.bare_run_ms", "ms"),
    ("simrt.actions_completed", "count"),
    ("simrt.simulated_hours", "h"),
    ("core.host_cost_ms", "ms"),
    ("core.schecker_checks", "count"),
    ("core.diagnosis_sessions", "count"),
    ("core.hangs_observed", "count"),
    ("core.diagnosed_share", "ratio"),
    ("core.sim_overhead_pct", "%"),
    ("fleet.merge_ms", "ms"),
    ("fleet.shard_skew", "ratio"),
    ("telemetry.client.upload_ms", "ms"),
    ("telemetry.cluster.fold_ms", "ms"),
    ("telemetry.wire.bytes_per_report", "B"),
    ("telemetry.wire.decode_us", "us"),
    ("telemetry.wire.fingerprint_us", "us"),
    ("telemetry.wal.append_us", "us"),
    ("telemetry.wal.bytes_per_batch", "B"),
    ("telemetry.store.ingest_us", "us"),
    ("telemetry.server.residual_us", "us"),
    ("telemetry.server.nacks", "count"),
    ("telemetry.server.retries", "count"),
    ("telemetry.server.duplicates_absorbed", "count"),
    ("telemetry.server.decode_errors", "count"),
    ("telemetry.server.batches_attempted", "count"),
    ("telemetry.server.query_p50_ms", "ms"),
    ("telemetry.server.query_p90_ms", "ms"),
    ("telemetry.store.query_us", "us"),
    ("telemetry.store.seen_entries", "count"),
    ("telemetry.store.devices", "count"),
    ("telemetry.store.apps", "count"),
    ("telemetry.wal.recover_ms", "ms"),
    ("control.handle_us.sync", "us"),
    ("control.handle_us.query_state", "us"),
    ("control.handle_us.pull_stack", "us"),
    ("control.handle_us.push_thresholds", "us"),
    ("control.handle_us.advance_rollout", "us"),
    ("control.p50_ms", "ms"),
    ("control.p99_ms", "ms"),
    ("control.resends", "count"),
    ("control.push_ms", "ms"),
    ("sast.analyze_us_per_app", "us"),
    ("sast.cache_hit_rate", "ratio"),
    ("sast.cache_entries", "count"),
    ("sast.findings", "count"),
    ("sast.worker_skew", "ratio"),
    ("gen.write.lateness_p50_ms", "ms"),
    ("gen.write.lateness_p99_ms", "ms"),
    ("gen.read.lateness_p50_ms", "ms"),
    ("gen.read.lateness_p99_ms", "ms"),
    ("stage.wall_ms", "ms"),
    ("stage.residual_ms", "ms"),
    ("stage.residual_share", "ratio"),
    ("stage.appmodel_ms", "ms"),
    ("stage.simrt_ms", "ms"),
    ("stage.fleet_ms", "ms"),
    ("stage.telemetry_ms", "ms"),
    ("stage.telemetry_busy_ms", "ms"),
    ("stage.control_ms", "ms"),
    ("stage.sast_ms", "ms"),
    ("stage.gen_ms", "ms"),
    ("stage.check_ms", "ms"),
    ("tail.latency_p90_ms", "ms"),
    ("tail.latency_p99_ms", "ms"),
    ("tail.latency_samples", "count"),
    ("trace_overhead.setup_s", "s"),
    ("trace_overhead.peak_rss_mb", "MB"),
    ("trace_overhead.throughput_per_s", "1/s"),
    ("trace_overhead.latency_p50_ms", "ms"),
];

/// Stage-table layers and the metric carrying each one's self time.
const STAGE_LAYERS: [(&str, &str); 8] = [
    ("appmodel", "stage.appmodel_ms"),
    ("simrt", "stage.simrt_ms"),
    ("fleet", "stage.fleet_ms"),
    ("telemetry", "stage.telemetry_ms"),
    ("control", "stage.control_ms"),
    ("sast", "stage.sast_ms"),
    ("gen", "stage.gen_ms"),
    ("check", "stage.check_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => trace = Some(number(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn run_pass(
    args: &Args,
    work: &std::path::Path,
    measure: Duration,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let ctx = Ctx {
        seed: args.seed,
        measure,
        nproc: host::nproc(),
        work: work.to_path_buf(),
        tracer,
    };
    match args.workload.as_str() {
        "pipeline" => pipeline::run(&ctx),
        "ingest" => ingest::run(&ctx),
        "mixed" => mixed::run(&ctx),
        "sast" => sast::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn print_pass(label: &str, pass: &Pass) {
    println!(
        "== {label} pass: attempted {}, failed {}",
        pass.attempted, pass.failed
    );
    for ((name, unit), value) in END_TO_END.iter().zip(pass.e2e.values()) {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    let tail = &pass.e2e.latency;
    println!(
        "  latency tail: p90 {:.6} ms, p99 {:.6} ms; {} samples (every percentile from the same set)",
        tail.p90.value, tail.p99.value, tail.p99.samples
    );
    for (check, ok) in &pass.checks {
        println!("  check {}: {check}", if *ok { "ok  " } else { "FAIL" });
    }
    for note in &pass.notes {
        println!("  {note}");
    }
}

/// The per-layer metrics of a traced pass, with the stage table and the
/// tracing overhead against the untraced pass.
fn layer_metrics(traced: &Pass, untraced: &Pass) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = traced.layer.clone();
    if let Some(stage) = &traced.stage {
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push(("stage.wall_ms", ms(stage.wall_ns)));
        out.push(("stage.residual_ms", ms(stage.residual_ns)));
        out.push((
            "stage.residual_share",
            stage.residual_ns as f64 / stage.wall_ns.max(1) as f64,
        ));
        for (layer, name) in STAGE_LAYERS {
            out.push((name, ms(stage.self_ns(layer))));
        }
        let busy = stage
            .rows
            .iter()
            .find(|r| r.layer == "telemetry")
            .map_or(0, |r| r.busy_ns);
        out.push(("stage.telemetry_busy_ms", ms(busy)));
    }
    // The tail of the untraced pass: the end-to-end latency's p90 and
    // p99, too noisy here to carry a bound.
    let tail = &untraced.e2e.latency;
    out.push(("tail.latency_p90_ms", tail.p90.value));
    out.push(("tail.latency_p99_ms", tail.p99.value));
    out.push(("tail.latency_samples", tail.p99.samples as f64));
    let names = [
        "trace_overhead.setup_s",
        "trace_overhead.peak_rss_mb",
        "trace_overhead.throughput_per_s",
        "trace_overhead.latency_p50_ms",
    ];
    for ((name, t), u) in names
        .into_iter()
        .zip(traced.e2e.values())
        .zip(untraced.e2e.values())
    {
        out.push((name, t - u));
    }
    out
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(metrics.len());
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let out_dir = PathBuf::from("hdbench").join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;

    println!(
        "hdbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (key, value) in host::facts(args.seed) {
        println!("  host {key}: {value}");
    }
    println!("  held-out seed for gain claims: {HELD_OUT_SEED}");

    let total = Duration::from_secs(args.seconds);
    let result = if args.trace {
        let off = Tracer::new(false);
        let untraced = run_pass(&args, &work, total / 2, &off);
        let on = Tracer::new(true);
        untraced
            .and_then(|u| run_pass(&args, &work, total / 2, &on).map(|t| (u, Some(t), on.take())))
    } else {
        run_pass(&args, &work, total, &Tracer::new(false)).map(|p| (p, None, Vec::new()))
    };
    let cleanup =
        std::fs::remove_dir_all(&work).map_err(|e| format!("remove {}: {e}", work.display()));
    let (untraced, traced, spans) = result?;
    cleanup?;

    print_pass("untraced", &untraced);
    let (correct, attempted, failed, metrics): (bool, u64, u64, Vec<(&str, &str, f64)>) =
        match &traced {
            None => (
                untraced.correct(),
                untraced.attempted,
                untraced.failed,
                END_TO_END
                    .iter()
                    .zip(untraced.e2e.values())
                    .map(|((n, u), v)| (*n, *u, v))
                    .collect(),
            ),
            Some(traced) => {
                print_pass("traced", traced);
                let stage = traced
                    .stage
                    .as_ref()
                    .ok_or("traced pass has no stage table")?;
                println!(
                    "== stage table (traced pass; rows + residual = wall):\n{}",
                    stage.render()
                );
                let adds_up = stage.adds_up();
                println!("  stage rows + residual = wall: {adds_up}");
                let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
                std::fs::write(&path, trace::spans_json(&spans))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("  {} spans written to {}", spans.len(), path.display());
                let measured = layer_metrics(traced, &untraced);
                if let Some((name, _)) = measured
                    .iter()
                    .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
                {
                    return Err(format!("per-layer metric {name} is not in PER_LAYER"));
                }
                let metrics = PER_LAYER
                    .iter()
                    .map(|(name, unit)| {
                        let value = measured
                            .iter()
                            .find(|(n, _)| n == name)
                            .map_or(0.0, |(_, v)| *v);
                        (*name, *unit, value)
                    })
                    .collect();
                (
                    untraced.correct() && traced.correct() && adds_up,
                    untraced.attempted + traced.attempted,
                    untraced.failed + traced.failed + u64::from(!adds_up),
                    metrics,
                )
            }
        };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)?
    );
    Ok(correct)
}

/// Serializes the tests that load the CPU with the test that times the
/// open-loop generator, so on a small host they do not starve it.
#[cfg(test)]
pub fn cpu_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hdbench: a correctness check failed or an operation failed");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("hdbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arg_list(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn args_parse_and_validate() {
        let a = parse_args(arg_list("--workload sast --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sast", 3, 10, true)
        );
        assert!(parse_args(arg_list("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(arg_list("--workload sast --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(arg_list("--workload sast --seed 3 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(arg_list("--workload sast --seconds 1 --trace 0")).is_err());
    }

    /// `(name, unit)` of every entry of the list `key` in BENCHMARK.json
    /// (`unit` is empty for workloads).
    fn listed(key: &str) -> Vec<(String, String)> {
        use serde_json::Value;
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let field = |v: &Value, k: &str| -> Option<Value> {
            let Value::Object(fields) = v else {
                panic!("expected an object")
            };
            fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
        };
        let text = |v: Option<Value>| match v {
            Some(Value::Str(s)) => s,
            _ => String::new(),
        };
        let Some(Value::Array(items)) = field(&doc, key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|item| (text(field(item, "name")), text(field(item, "unit"))))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(str::to_string).to_vec());
    }

    #[test]
    fn metrics_render_as_json_and_refuse_non_finite() {
        let json = json_metrics(&[("a", "ms", 1.25), ("b", "1/s", 3.0)]).unwrap();
        assert_eq!(json, "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"1/s\"}}");
        assert!(json_metrics(&[("a", "ms", f64::NAN)]).is_err());
    }
}
