//! The `Query` fold against the full-state fold: joining only the
//! partitions' per-app reports and device pairs ([`QueryFold`]) must
//! answer byte-for-byte what absorbing the partitions into one store
//! answers — for any split of any batch set, overlapping partitions
//! included, and over the wire for a server whose devices span shards.

use std::path::PathBuf;

use proptest::prelude::*;

use hangdoctor::{HangBugReport, RootCause, RootKind};
use hd_simrt::ActionUid;
use hd_telemetry::{
    shard_for, AggregationStore, QueryFold, TelemetryItem, TelemetryServer, UploadBatch, Uploader,
};

const APPS: [&str; 3] = ["k9mail", "omni-notes", "a better camera"];
const SYMBOLS: [&str; 3] = [
    "java.io.File.read",
    "android.database.sqlite.SQLiteDatabase.query",
    "com.fsck.k9.Store.sync",
];
const ACTIONS: [&str; 3] = ["onOpen", "onScroll", "onRefresh"];

/// One report: executions per action, then hangs per `(action, symbol)`.
type ReportSpec = (Vec<(usize, u64)>, Vec<(usize, usize, u64, u64)>);

fn report(app: &str, device: u32, (executions, bugs): &ReportSpec) -> HangBugReport {
    let mut report = HangBugReport::new(app);
    for &(action, count) in executions {
        for _ in 0..count {
            report.note_execution(device, ActionUid(action as u64), ACTIONS[action]);
        }
    }
    for &(action, symbol, hangs, hang_ms) in bugs {
        let root = RootCause {
            symbol: SYMBOLS[symbol].to_string(),
            file: "App.java".to_string(),
            line: 10 + symbol as u32,
            occurrence_factor: 1.0,
            kind: RootKind::BlockingApi,
        };
        for _ in 0..hangs {
            report.record_bug(device, ActionUid(action as u64), &root, hang_ms * 1_000_000);
        }
    }
    report
}

fn arb_report() -> impl Strategy<Value = ReportSpec> {
    (
        proptest::collection::vec((0usize..3, 1u64..12), 0..3),
        proptest::collection::vec((0usize..3, 0usize..3, 1u64..4, 100u64..900), 0..3),
    )
}

/// A batch: app, device, seq and 0–2 reports (an empty batch still
/// contributes its `(app, device)` pair).
fn arb_batch() -> impl Strategy<Value = UploadBatch> {
    (
        0usize..3,
        1u32..7,
        0u64..3,
        proptest::collection::vec(arb_report(), 0..3),
    )
        .prop_map(|(app, device, seq, reports)| UploadBatch {
            app: APPS[app].to_string(),
            device,
            seq,
            items: reports
                .iter()
                .map(|spec| TelemetryItem::Report(report(APPS[app], device, spec)))
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each batch lands in partition `home % n` and, for one draw in
    /// three, also in partition `extra % n`; batches of one
    /// `(app, device)` scatter independently, so a pair can be held by
    /// several partitions.
    #[test]
    fn query_fold_equals_absorb_then_report(
        batches in proptest::collection::vec(arb_batch(), 1..20),
        n in 1usize..5,
        placement in proptest::collection::vec((0usize..4, 0usize..4, 0u8..3), 20..21),
    ) {
        let mut parts = vec![AggregationStore::new(); n];
        for (batch, &(home, extra, copy)) in batches.iter().zip(&placement) {
            parts[home % n].ingest(batch);
            if copy == 0 {
                parts[extra % n].ingest(batch);
            }
        }
        let mut absorbed = AggregationStore::new();
        for part in &parts {
            absorbed.absorb(&part.snapshot());
        }
        let mut forward = QueryFold::new();
        for part in &parts {
            forward.add(part);
        }
        let mut backward = QueryFold::new();
        for part in parts.iter().rev() {
            backward.add(part);
        }
        let groups = absorbed.report(usize::MAX).groups.len();
        for top_n in [0, 1, 25, groups + 1] {
            let want = absorbed.report(top_n).to_json();
            prop_assert_eq!(forward.report(top_n).to_json(), want.clone());
            prop_assert_eq!(backward.report(top_n).to_json(), want);
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hd-query-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(app: &str, device: u32, seq: u64) -> UploadBatch {
    let spec: ReportSpec = (
        vec![(0, 6 + seq), (1, 4)],
        vec![(0, (device % 3) as usize, 1 + seq, 200 + 10 * device as u64)],
    );
    UploadBatch {
        app: app.to_string(),
        device,
        seq,
        items: vec![TelemetryItem::Report(report(app, device, &spec))],
    }
}

/// A node restarted from 2 to 4 shards routes some devices to a new
/// shard, so their pairs are held by two partitions. `Query` over the
/// wire must still equal a single store's report, counting each device
/// once.
#[test]
fn query_counts_a_device_split_across_shards_once() {
    let dir = scratch("reshard");
    let wal_dir = dir.to_string_lossy().to_string();
    let pairs: Vec<(&str, u32)> = APPS
        .iter()
        .flat_map(|&app| (1..=6u32).map(move |device| (app, device)))
        .collect();
    assert!(
        pairs
            .iter()
            .any(|&(app, device)| shard_for(app, device, 2) != shard_for(app, device, 4)),
        "no device moves shard on the restart: the test would pass vacuously"
    );
    let mut reference = AggregationStore::new();

    let server = TelemetryServer::builder()
        .shards(2)
        .wal_dir(wal_dir.clone())
        .start()
        .unwrap();
    let mut client = Uploader::plain(server.local_addr());
    for &(app, device) in &pairs {
        let b = batch(app, device, 0);
        reference.ingest(&b);
        client.upload(&b).unwrap();
    }
    client.shutdown().unwrap();
    server.join();

    let server = TelemetryServer::builder()
        .shards(4)
        .wal_dir(wal_dir)
        .start()
        .unwrap();
    let mut client = Uploader::plain(server.local_addr());
    for &(app, device) in &pairs {
        let b = batch(app, device, 1);
        reference.ingest(&b);
        client.upload(&b).unwrap();
    }

    let top_n = 1 << 20;
    let report = client.query(top_n).unwrap();
    assert_eq!(report.to_json(), reference.report(top_n).to_json());
    assert_eq!(server.report(top_n).to_json(), report.to_json());
    assert_eq!(
        report.devices,
        pairs.len(),
        "a split device was counted twice"
    );
    client.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
