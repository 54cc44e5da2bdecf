//! Durable ingest: a per-shard append-only write-ahead log with
//! periodic compacted snapshots.
//!
//! Every applied batch is framed into the shard's WAL **before** it is
//! merged into the aggregation store, so a killed-and-restarted node
//! replays to the identical aggregate. Record framing reuses the wire
//! layer's canonical-JSON encoding and adds an integrity word:
//!
//! ```text
//! +------+----------------+---------------+------------------------+
//! | HDWL | u32 BE length  | u32 BE CRC32  | canonical JSON payload |
//! +------+----------------+---------------+------------------------+
//! ```
//!
//! The first record of every file is a [`WalHeader`] carrying the WAL
//! schema tag plus the owning `(node, shard)`; each subsequent record
//! is a [`WalBatch`] — the upload batch together with the content
//! fingerprint the live ingest deduplicated it under, so replay applies
//! exactly the fingerprints the original run did without
//! re-serializing a byte.
//!
//! Failure semantics (pinned by `tests/wal.rs`):
//!
//! * a **torn tail** — the process died mid-append — is dropped
//!   cleanly on replay and the file is truncated back to its last
//!   complete record;
//! * a **CRC-corrupt** record inside the valid region is data loss the
//!   log cannot self-heal, and surfaces as a typed
//!   [`TelemetryError::WalCorrupt`], never a panic;
//! * a log whose **header names another shard** is refused with a
//!   typed [`TelemetryError::WalShardMismatch`] instead of replaying
//!   into the wrong partition;
//! * **snapshot + WAL replay ≡ pure-WAL replay**, byte-for-byte:
//!   compaction snapshots the store (including its fingerprint set),
//!   truncates the log, and relies on idempotent ingest to absorb any
//!   record that races the truncation.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::TelemetryError;
use crate::store::{AggregationStore, StoreSnapshot};
use crate::wire::UploadBatch;

/// Magic prefix of every WAL and snapshot record.
pub const WAL_MAGIC: [u8; 4] = *b"HDWL";

/// Schema tag carried by every WAL file header.
pub const WAL_SCHEMA: &str = "hang-doctor/telemetry-wal/v1";

/// Upper bound on one WAL record's payload, bytes (same cap as the
/// wire layer).
pub const MAX_WAL_RECORD: usize = crate::wire::MAX_FRAME;

/// The first record of every WAL file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WalHeader {
    /// WAL format tag ([`WAL_SCHEMA`]).
    pub schema: String,
    /// Node the log belongs to.
    pub node: u64,
    /// Shard within the node.
    pub shard: usize,
}

/// One logged ingest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WalBatch {
    /// The content fingerprint the live ingest applied the batch under.
    pub fingerprint: u64,
    /// The batch itself.
    pub batch: UploadBatch,
}

/// A WAL record: header or batch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WalRecord {
    /// File header (first record).
    Header(WalHeader),
    /// One applied upload batch.
    Batch(WalBatch),
}

/// What scanning a WAL file recovered.
#[derive(Debug)]
pub struct WalReplay {
    /// The file header, if the file had one.
    pub header: Option<WalHeader>,
    /// Every complete, integrity-checked batch record, in append order.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix (everything after it is torn).
    pub clean_len: u64,
    /// Whether a torn tail record was dropped.
    pub torn_tail_dropped: bool,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, no external deps.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) over a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames one record: magic, length, CRC, canonical-JSON payload.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let json = serde_json::to_string(record).expect("WAL record serializes");
    let payload = json.as_bytes();
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Scans a WAL byte image into its records.
///
/// A truncated record at the very end of the image (torn write) is
/// dropped cleanly; corruption *inside* the valid region — bad magic,
/// an oversized length, a CRC mismatch, or undecodable JSON in a
/// complete record — is a typed [`TelemetryError::WalCorrupt`].
pub fn scan_wal(bytes: &[u8]) -> Result<WalReplay, TelemetryError> {
    let mut header = None;
    let mut batches = Vec::new();
    let mut offset = 0usize;
    let mut torn = false;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 12 {
            torn = true; // partial record header at EOF
            break;
        }
        let magic: [u8; 4] = rest[0..4].try_into().expect("4 bytes");
        if magic != WAL_MAGIC {
            return Err(TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("bad record magic {magic:?}"),
            });
        }
        let len = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_WAL_RECORD {
            return Err(TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("record length {len} exceeds the {MAX_WAL_RECORD}-byte cap"),
            });
        }
        if rest.len() < 12 + len {
            torn = true; // payload cut off at EOF
            break;
        }
        let want = u32::from_be_bytes(rest[8..12].try_into().expect("4 bytes"));
        let payload = &rest[12..12 + len];
        let got = crc32(payload);
        if got != want {
            return Err(TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("CRC mismatch: stored {want:#010x}, computed {got:#010x}"),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|e| TelemetryError::WalCorrupt {
            offset: offset as u64,
            reason: format!("record is not UTF-8: {e}"),
        })?;
        let record: WalRecord =
            serde_json::from_str(text).map_err(|e| TelemetryError::WalCorrupt {
                offset: offset as u64,
                reason: format!("record JSON undecodable: {e}"),
            })?;
        match record {
            WalRecord::Header(h) => {
                if h.schema != WAL_SCHEMA {
                    return Err(TelemetryError::SchemaDrift(h.schema));
                }
                header = Some(h);
            }
            WalRecord::Batch(b) => batches.push(b),
        }
        offset += 12 + len;
    }
    Ok(WalReplay {
        header,
        batches,
        clean_len: offset as u64,
        torn_tail_dropped: torn,
    })
}

/// An open, append-mode WAL file for one shard.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, replaying whatever it
    /// holds. A torn tail is truncated away so subsequent appends
    /// extend a clean log; in-region corruption is returned as
    /// [`TelemetryError::WalCorrupt`], and a header naming another
    /// shard as [`TelemetryError::WalShardMismatch`] (its batches belong
    /// to a different partition).
    pub fn open(path: &Path, node: u64, shard: usize) -> Result<(Wal, WalReplay), TelemetryError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replay = scan_wal(&bytes)?;
        if let Some(header) = &replay.header {
            if header.shard != shard {
                return Err(TelemetryError::WalShardMismatch {
                    path: path.display().to_string(),
                    expected: shard,
                    found: header.shard,
                });
            }
        }
        if replay.torn_tail_dropped {
            file.set_len(replay.clean_len)?;
        }
        file.seek(SeekFrom::Start(replay.clean_len))?;
        let mut wal = Wal {
            path: path.to_path_buf(),
            file,
        };
        if replay.header.is_none() {
            wal.write_record(&WalRecord::Header(WalHeader {
                schema: WAL_SCHEMA.to_string(),
                node,
                shard,
            }))?;
        }
        Ok((wal, replay))
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_record(&mut self, record: &WalRecord) -> Result<(), TelemetryError> {
        let frame = encode_record(record);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        Ok(())
    }

    /// Appends one applied batch. Called by the shard worker *before*
    /// the batch is merged into the store.
    pub fn append(&mut self, fingerprint: u64, batch: &UploadBatch) -> Result<(), TelemetryError> {
        self.write_record(&WalRecord::Batch(WalBatch {
            fingerprint,
            batch: batch.clone(),
        }))
    }

    /// Compaction: truncates the log back to a fresh header. Called
    /// only after the covering snapshot has been durably renamed into
    /// place, so a crash between the two leaves a log whose records
    /// the snapshot's fingerprint set absorbs as duplicates.
    pub fn reset(&mut self, node: u64, shard: usize) -> Result<(), TelemetryError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.write_record(&WalRecord::Header(WalHeader {
            schema: WAL_SCHEMA.to_string(),
            node,
            shard,
        }))
    }
}

/// Writes a compaction snapshot durably: frame (magic + length + CRC +
/// canonical JSON), to a temp file, then an atomic rename.
pub fn write_snapshot(path: &Path, snapshot: &StoreSnapshot) -> Result<(), TelemetryError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string(snapshot).expect("snapshot serializes");
    let payload = json.as_bytes();
    let mut framed = Vec::with_capacity(12 + payload.len());
    framed.extend_from_slice(&WAL_MAGIC);
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(&crc32(payload).to_be_bytes());
    framed.extend_from_slice(payload);
    let tmp = path.with_extension("snap.tmp");
    std::fs::write(&tmp, &framed)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a compaction snapshot if one exists. A missing file is
/// `Ok(None)`; a present-but-damaged file is [`TelemetryError::WalCorrupt`].
pub fn read_snapshot(path: &Path) -> Result<Option<StoreSnapshot>, TelemetryError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 12 || bytes[0..4] != WAL_MAGIC {
        return Err(TelemetryError::WalCorrupt {
            offset: 0,
            reason: "snapshot header missing or bad magic".to_string(),
        });
    }
    let len = u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 12 + len {
        return Err(TelemetryError::WalCorrupt {
            offset: 0,
            reason: format!(
                "snapshot truncated: declared {len} payload bytes, file has {}",
                bytes.len().saturating_sub(12)
            ),
        });
    }
    let want = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..12 + len];
    let got = crc32(payload);
    if got != want {
        return Err(TelemetryError::WalCorrupt {
            offset: 0,
            reason: format!("snapshot CRC mismatch: stored {want:#010x}, computed {got:#010x}"),
        });
    }
    let text = std::str::from_utf8(payload).map_err(|e| TelemetryError::WalCorrupt {
        offset: 0,
        reason: format!("snapshot is not UTF-8: {e}"),
    })?;
    let snap: StoreSnapshot =
        serde_json::from_str(text).map_err(|e| TelemetryError::WalCorrupt {
            offset: 0,
            reason: format!("snapshot JSON undecodable: {e}"),
        })?;
    if snap.schema != crate::store::SNAPSHOT_SCHEMA {
        return Err(TelemetryError::SchemaDrift(snap.schema));
    }
    Ok(Some(snap))
}

/// The WAL file of one shard under a node's durability directory.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// The snapshot file of one shard under a node's durability directory.
pub fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

/// How many shards a node's durability directory holds state for: one
/// more than the highest `K` among its `shard-K.wal` and `shard-K.snap`
/// files, or 0 for a missing or empty directory. A node must restart
/// with at least this many shards, or the higher shards' ACKed batches
/// would drop out of its aggregate.
pub(crate) fn shards_on_disk(dir: &Path) -> Result<usize, TelemetryError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let mut shards = 0;
    for entry in entries {
        let name = entry?.file_name();
        let shard = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|n| n.strip_suffix(".wal").or_else(|| n.strip_suffix(".snap")))
            .and_then(|k| k.parse::<usize>().ok());
        if let Some(k) = shard {
            shards = shards.max(k.saturating_add(1));
        }
    }
    Ok(shards)
}

/// Recovers one shard's store from its snapshot (if any) plus WAL
/// replay, and returns the open log ready for appends along with the
/// number of records replayed from it (snapshot-covered state is
/// restored, not replayed). The recovery invariant — snapshot + WAL ≡
/// pure WAL, byte-for-byte — holds because the snapshot carries the
/// fingerprint set, so replayed records the snapshot already covers
/// are absorbed as duplicates.
pub fn recover_shard(
    dir: &Path,
    node: u64,
    shard: usize,
) -> Result<(AggregationStore, Wal, u64), TelemetryError> {
    let snap = read_snapshot(&snapshot_path(dir, shard))?;
    let mut store = match &snap {
        Some(s) => AggregationStore::from_snapshot(s),
        None => AggregationStore::new(),
    };
    let (wal, replay) = Wal::open(&wal_path(dir, shard), node, shard)?;
    for rec in &replay.batches {
        store.ingest_prehashed(&rec.batch, rec.fingerprint);
    }
    Ok((store, wal, replay.batches.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Published IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_round_trips() {
        let rec = WalRecord::Header(WalHeader {
            schema: WAL_SCHEMA.to_string(),
            node: 3,
            shard: 1,
        });
        let framed = encode_record(&rec);
        let replay = scan_wal(&framed).unwrap();
        assert_eq!(
            replay.header,
            Some(WalHeader {
                schema: WAL_SCHEMA.to_string(),
                node: 3,
                shard: 1
            })
        );
        assert!(!replay.torn_tail_dropped);
        assert_eq!(replay.clean_len, framed.len() as u64);
    }
}
