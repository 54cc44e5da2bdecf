//! `sast`: contextual-profile corpus scans of the 114-app study corpus
//! replicated to a fixed size, `nproc` workers, a fresh summary cache
//! per scan. The only workload that reaches the static analyzer, and
//! its near-total cache hit rate exercises the cross-app cache.

use std::time::Instant;

use hangdoctor::BlockingApiDb;
use hd_appmodel::corpus::full_corpus;
use hd_appmodel::App;
use hd_sast::{analyze_with_db_cached, scan_corpus, RuleProfile, SastConfig, SummaryCache};

use crate::bench::{latency, ms, repeated_setup, Ctx, EndToEnd, Pass};
use crate::stats::median;
use crate::trace::SpanId;

/// Copies of the 114-app corpus in one scan.
const REPLICAS: usize = 4;
/// Fewest scans a pass times, so the p99 has ten beyond it.
const MIN_SCANS: usize = 1_100;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 5;

const CONFIG: SastConfig = SastConfig {
    profile: RuleProfile::Contextual,
    db_year: 2017,
};

struct Setup {
    workload: Vec<App>,
    db: BlockingApiDb,
}

fn findings_bytes(reports: &[hd_sast::SastReport]) -> String {
    serde_json::to_string(reports).expect("sast reports serialize")
}

/// Per-layer numbers of a serial replay through `analyze_with_db_cached`.
struct Replay {
    analyze_us_per_app: f64,
    worker_skew: f64,
}

/// Analyzes the workload serially, one strided worker share at a time
/// (the scanner's sharding), timing each share.
fn replay(ctx: &Ctx, setup: &Setup, parent: Option<SpanId>) -> Replay {
    let cache = SummaryCache::new();
    let mut shares = Vec::with_capacity(ctx.nproc);
    for worker in 0..ctx.nproc {
        let start = Instant::now();
        for (i, app) in setup
            .workload
            .iter()
            .enumerate()
            .skip(worker)
            .step_by(ctx.nproc)
        {
            let t = Instant::now();
            std::hint::black_box(analyze_with_db_cached(
                app,
                &setup.db,
                &CONFIG,
                Some(&cache),
            ));
            ctx.tracer
                .record("sast.analyze", parent, i as u64 + 1, 0, t, Instant::now());
        }
        shares.push(ms(start.elapsed()));
    }
    let total: f64 = shares.iter().sum();
    let mean = total / shares.len() as f64;
    Replay {
        analyze_us_per_app: total * 1e3 / setup.workload.len() as f64,
        worker_skew: shares.iter().fold(0.0f64, |m, &s| m.max(s)) / mean.max(1e-9),
    }
}

/// One pass of the workload.
pub fn run(ctx: &Ctx) -> Result<Pass, String> {
    // Set-up: build the seeded corpus and the database, and warm up with
    // one scan.
    let (setup, setup_s) = repeated_setup(
        SETUPS,
        |_| {
            let apps = full_corpus(ctx.seed);
            let workload: Vec<App> = (0..REPLICAS).flat_map(|_| apps.iter().cloned()).collect();
            let db = BlockingApiDb::documented(CONFIG.db_year);
            std::hint::black_box(scan_corpus(&workload, &db, &CONFIG, ctx.nproc));
            Ok(Setup { workload, db })
        },
        |_| Ok(()),
    )?;
    let tracer = ctx.tracer;
    let apps = setup.workload.len();

    let mut scans_ms = Vec::new();
    let mut findings_mismatch = 0u64;
    let mut findings = 0;
    let mut last = None;
    let mut replayed = None;
    let root = tracer.span("run", None, 0, 0, |root| {
        // Every parallel scan must equal a serial scan byte for byte.
        let reference = tracer.span("check.serial_scan", root, 0, 0, |_| {
            let serial = scan_corpus(&setup.workload, &setup.db, &CONFIG, 1);
            findings = serial.reports.iter().map(|r| r.findings.len()).sum();
            findings_bytes(&serial.reports)
        });
        let start = Instant::now();
        while start.elapsed() < ctx.measure || scans_ms.len() < MIN_SCANS {
            let t = Instant::now();
            let scan = tracer.span("sast.scan", root, scans_ms.len() as u64 + 1, 0, |_| {
                scan_corpus(&setup.workload, &setup.db, &CONFIG, ctx.nproc)
            });
            scans_ms.push(ms(t.elapsed()));
            tracer.span("check.findings", root, scans_ms.len() as u64, 0, |_| {
                findings_mismatch += u64::from(findings_bytes(&scan.reports) != reference);
            });
            last = Some(scan);
        }
        if tracer.enabled() {
            replayed = Some(replay(ctx, &setup, root));
        }
        root
    });
    let last = last.expect("at least one scan");
    let checks = vec![(
        format!(
            "all {} scans' findings ({findings}) byte-identical to a serial scan",
            scans_ms.len()
        ),
        findings_mismatch == 0,
    )];
    let rates: Vec<f64> = scans_ms.iter().map(|&t| apps as f64 / (t / 1e3)).collect();
    let e2e = EndToEnd {
        setup_s,
        peak_rss_mb: crate::host::peak_rss_mb(),
        throughput: median(&rates),
        latency: latency("corpus scans", &scans_ms)?,
    };
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("sast.cache_hit_rate", last.cache.hit_rate()),
        ("sast.cache_entries", last.cache.entries as f64),
        ("sast.findings", findings as f64),
    ];
    if let Some(rp) = &replayed {
        layer.extend([
            ("sast.analyze_us_per_app", rp.analyze_us_per_app),
            ("sast.worker_skew", rp.worker_skew),
        ]);
    }
    let failed_checks = checks.iter().filter(|c| !c.1).count() as u64;
    let stage = root.map(|root| crate::trace::stage_table(&tracer.snapshot(), root));
    Ok(Pass {
        e2e,
        layer,
        attempted: scans_ms.len() as u64,
        failed: findings_mismatch + failed_checks,
        checks,
        stage,
        notes: vec![format!(
            "sast: {} scans of {apps} apps ({} x {REPLICAS}), {} threads; throughput is apps/s, median over scans; latency is one scan",
            scans_ms.len(),
            apps / REPLICAS,
            ctx.nproc
        )],
    })
}
