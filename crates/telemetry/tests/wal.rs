//! Durability edge cases pinned as regressions: torn tails drop
//! cleanly, CRC corruption is a typed error (never a panic), a log
//! opened as the wrong shard or a restart with fewer shards than the
//! directory holds is refused with a typed error, compaction preserves
//! replay byte-for-byte, and a killed-and-restarted server recovers
//! the identical aggregate over the real TCP path.

use std::path::PathBuf;

use hangdoctor::{HangBugReport, RootCause, RootKind};
use hd_simrt::ActionUid;
use hd_telemetry::wal::{recover_shard, snapshot_path, wal_path, write_snapshot, Wal};
use hd_telemetry::{
    batch_fingerprint, shard_for, AggregationStore, TelemetryError, TelemetryItem, TelemetryServer,
    UploadBatch, Uploader,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hd-wal-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch(app: &str, device: u32, seq: u64, hangs: u64) -> UploadBatch {
    let mut report = HangBugReport::new(app);
    let uid = ActionUid(1);
    for _ in 0..12 {
        report.note_execution(device, uid, "onOpen");
    }
    let root = RootCause {
        symbol: "java.io.File.read".to_string(),
        file: "Open.java".to_string(),
        line: 31,
        occurrence_factor: 1.0,
        kind: RootKind::BlockingApi,
    };
    for _ in 0..hangs {
        report.record_bug(device, uid, &root, 150_000_000);
    }
    UploadBatch {
        app: app.to_string(),
        device,
        seq,
        items: vec![TelemetryItem::Report(report)],
    }
}

fn corpus() -> Vec<UploadBatch> {
    vec![
        batch("k9mail", 1, 0, 2),
        batch("k9mail", 1, 1, 3),
        batch("k9mail", 2, 0, 1),
        batch("omni-notes", 3, 0, 4),
        batch("omni-notes", 4, 0, 0),
    ]
}

fn append_corpus(wal: &mut Wal, batches: &[UploadBatch]) {
    for b in batches {
        wal.append(batch_fingerprint(b), b).unwrap();
    }
}

#[test]
fn torn_tail_is_dropped_cleanly_and_the_log_stays_appendable() {
    let dir = scratch("torn");
    let batches = corpus();
    let path = wal_path(&dir, 0);
    {
        let (mut wal, _) = Wal::open(&path, 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }
    // Tear the last record mid-payload, as a crash mid-append would.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 7]).unwrap();

    let (mut wal, replay) = Wal::open(&path, 0, 0).unwrap();
    assert!(replay.torn_tail_dropped, "the torn record must be noticed");
    assert_eq!(
        replay.batches.len(),
        batches.len() - 1,
        "every complete record survives; only the torn one is dropped"
    );
    // The file was truncated back to its clean prefix, so appending
    // resumes a valid log: reopening sees all records again.
    wal.append(batch_fingerprint(&batches[4]), &batches[4])
        .unwrap();
    drop(wal);
    let (_, replay) = Wal::open(&path, 0, 0).unwrap();
    assert!(!replay.torn_tail_dropped);
    assert_eq!(replay.batches.len(), batches.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crc_corruption_is_a_typed_error_not_a_panic() {
    let dir = scratch("crc");
    let batches = corpus();
    let path = wal_path(&dir, 0);
    {
        let (mut wal, _) = Wal::open(&path, 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }
    // Flip one payload byte in the middle of the file: in-region
    // corruption, not a torn tail.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    match Wal::open(&path, 0, 0) {
        Err(TelemetryError::WalCorrupt { offset, reason }) => {
            assert!(offset < bytes.len() as u64);
            assert!(
                reason.contains("CRC") || reason.contains("JSON") || reason.contains("magic"),
                "unhelpful corruption reason: {reason}"
            );
        }
        other => panic!("expected WalCorrupt, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log whose header names another shard belongs to a different
/// partition: opening or recovering it as this shard is refused, never
/// silently replayed into the wrong store.
#[test]
fn a_log_of_another_shard_is_refused_with_a_typed_error() {
    let dir = scratch("foreign");
    let batches = corpus();
    {
        let (mut wal, _) = Wal::open(&wal_path(&dir, 0), 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }
    // Shard 0's log lands where shard 1's belongs.
    std::fs::copy(wal_path(&dir, 0), wal_path(&dir, 1)).unwrap();
    let before = std::fs::read(wal_path(&dir, 1)).unwrap();

    match Wal::open(&wal_path(&dir, 1), 0, 1) {
        Err(TelemetryError::WalShardMismatch {
            expected, found, ..
        }) => assert_eq!((expected, found), (1, 0)),
        other => panic!("expected WalShardMismatch, got {:?}", other.map(|_| ())),
    }
    assert!(matches!(
        recover_shard(&dir, 0, 1),
        Err(TelemetryError::WalShardMismatch { .. })
    ));
    let refused = TelemetryServer::builder()
        .shards(2)
        .wal_dir(dir.to_string_lossy().to_string())
        .start();
    assert!(matches!(
        refused,
        Err(TelemetryError::WalShardMismatch { .. })
    ));
    // Refusing touched nothing: the misplaced log is intact, and its
    // own shard still opens it.
    assert_eq!(std::fs::read(wal_path(&dir, 1)).unwrap(), before);
    let (_, replay) = Wal::open(&wal_path(&dir, 0), 0, 0).unwrap();
    assert_eq!(replay.batches.len(), batches.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node restarted with fewer shards than its WAL directory holds
/// would never recover the higher shards, dropping ACKed batches from
/// its aggregate: the builder refuses with a typed config error.
/// Restarting with as many or more shards recovers everything.
#[test]
fn restarting_with_fewer_shards_than_on_disk_is_refused() {
    let dir = scratch("fewer");
    let wal_dir = dir.to_string_lossy().to_string();
    let batches: Vec<UploadBatch> = (1..=8u32)
        .flat_map(|device| {
            [
                batch("k9mail", device, 0, 1),
                batch("omni-notes", device, 0, 2),
            ]
        })
        .collect();
    assert!(
        batches.iter().any(|b| shard_for(&b.app, b.device, 4) >= 2),
        "no batch lands on shard 2 or 3: the test would pass vacuously"
    );

    let server = TelemetryServer::builder()
        .shards(4)
        .wal_dir(wal_dir.clone())
        .start()
        .unwrap();
    let mut client = Uploader::plain(server.local_addr());
    for b in &batches {
        client.upload(b).unwrap();
    }
    let before = client.query(100).unwrap().to_json();
    client.shutdown().unwrap();
    server.join();

    for shards in [1, 2, 3] {
        match TelemetryServer::builder()
            .shards(shards)
            .wal_dir(wal_dir.clone())
            .start()
        {
            Err(TelemetryError::Config { field, reason }) => {
                assert_eq!(field, "shards");
                assert!(reason.contains("4 shards"), "unhelpful reason: {reason}");
            }
            Err(other) => panic!("expected a shards Config error, got {other:?}"),
            Ok(_) => panic!("{shards} shards started over a 4-shard WAL directory"),
        }
    }

    for shards in [4, 6] {
        let server = TelemetryServer::builder()
            .shards(shards)
            .wal_dir(wal_dir.clone())
            .start()
            .unwrap();
        assert_eq!(server.stats().batches_recovered, batches.len() as u64);
        let mut client = Uploader::plain(server.local_addr());
        assert_eq!(client.query(100).unwrap().to_json(), before);
        client.shutdown().unwrap();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The compaction invariant: a snapshot covering a prefix of the log
/// plus the remaining WAL records recovers the same store — including
/// ingest counters and the fingerprint set — as replaying the whole
/// log, byte-for-byte.
#[test]
fn snapshot_plus_wal_replay_equals_pure_wal_replay_byte_for_byte() {
    let batches = corpus();
    let split = 3;

    // Pure-WAL shard: every batch logged, never compacted.
    let pure_dir = scratch("pure");
    {
        let (mut wal, _) = Wal::open(&wal_path(&pure_dir, 0), 0, 0).unwrap();
        append_corpus(&mut wal, &batches);
    }

    // Compacted shard: snapshot after `split` batches, WAL holds the
    // rest — exactly what `compact_shard` leaves behind.
    let snap_dir = scratch("snap");
    {
        let mut store = AggregationStore::new();
        for b in &batches[..split] {
            store.ingest(b);
        }
        write_snapshot(&snapshot_path(&snap_dir, 0), &store.snapshot()).unwrap();
        let (mut wal, _) = Wal::open(&wal_path(&snap_dir, 0), 0, 0).unwrap();
        append_corpus(&mut wal, &batches[split..]);
    }

    let (pure, _, pure_replayed) = recover_shard(&pure_dir, 0, 0).unwrap();
    let (compacted, _, compacted_replayed) = recover_shard(&snap_dir, 0, 0).unwrap();
    assert_eq!(pure_replayed, batches.len() as u64);
    assert_eq!(compacted_replayed, (batches.len() - split) as u64);
    let pure_bytes = serde_json::to_string(&pure.snapshot()).unwrap();
    let compacted_bytes = serde_json::to_string(&compacted.snapshot()).unwrap();
    assert_eq!(
        pure_bytes, compacted_bytes,
        "compaction must be invisible to recovery"
    );

    // A record racing the truncation (still in the WAL although the
    // snapshot covers it) is absorbed by the snapshot's fingerprint
    // set: the aggregate is unchanged, the race shows up only as an
    // absorbed duplicate.
    let race_dir = scratch("race");
    {
        let mut store = AggregationStore::new();
        for b in &batches[..split] {
            store.ingest(b);
        }
        write_snapshot(&snapshot_path(&race_dir, 0), &store.snapshot()).unwrap();
        let (mut wal, _) = Wal::open(&wal_path(&race_dir, 0), 0, 0).unwrap();
        wal.append(batch_fingerprint(&batches[split - 1]), &batches[split - 1])
            .unwrap();
        append_corpus(&mut wal, &batches[split..]);
    }
    let (raced, _, _) = recover_shard(&race_dir, 0, 0).unwrap();
    assert_eq!(raced.report(10).to_json(), pure.report(10).to_json());
    assert_eq!(raced.stats().duplicates_absorbed, 1);

    for dir in [pure_dir, snap_dir, race_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill-and-restart over the real TCP path: a server killed without any
/// flush comes back from its WAL with the identical aggregate — with
/// and without a compaction in between.
#[test]
fn killed_server_replays_its_wal_to_the_identical_aggregate() {
    let dir = scratch("restart");
    let batches = corpus();
    let wal_dir = dir.to_string_lossy().to_string();

    let server = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .wal_dir(wal_dir.clone())
        .start()
        .unwrap();
    let mut client = Uploader::plain(server.local_addr());
    for b in &batches {
        client.upload(b).unwrap();
    }
    let before = client.query(10).unwrap().to_json();
    drop(client);
    server.kill(); // abrupt: no flush, no snapshot, state dropped

    let revived = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .wal_dir(wal_dir.clone())
        .start()
        .unwrap();
    assert_eq!(
        revived.stats().batches_recovered,
        batches.len() as u64,
        "every ACKed batch must replay"
    );
    let mut client = Uploader::plain(revived.local_addr());
    assert_eq!(client.query(10).unwrap().to_json(), before);

    // Compact (snapshot + truncate), kill again: recovery now folds the
    // snapshot plus an empty log, to the same bytes.
    revived.compact().unwrap();
    drop(client);
    revived.kill();

    let again = TelemetryServer::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .wal_dir(wal_dir)
        .start()
        .unwrap();
    assert_eq!(
        again.stats().batches_recovered,
        0,
        "a compacted log has nothing left to replay"
    );
    let mut client = Uploader::plain(again.local_addr());
    assert_eq!(client.query(10).unwrap().to_json(), before);
    client.shutdown().unwrap();
    again.join();
    let _ = std::fs::remove_dir_all(&dir);
}
