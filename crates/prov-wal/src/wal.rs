//! The segmented append-only log.
//!
//! ## On-disk layout
//!
//! A WAL directory holds size-rotated segment files plus a cursor:
//!
//! ```text
//! wal-0000000000000000.seg
//! wal-0000000000000001.seg
//! ...
//! cursor
//! ```
//!
//! Each segment starts with an 8-byte header (`"PWAL"`, version, 3 pad
//! bytes) followed by frames:
//!
//! ```text
//! frame := len:u32le, records:u32le, crc:u32le, payload[len]
//! crc   := CRC32(records:u32le ++ payload)
//! ```
//!
//! The `cursor` file records how far replay consumed the log
//! (`"PWCU"`, segment seq, byte offset, CRC32) so a restarted process
//! resumes with the *unsent* frames only. The cursor is advisory: if it is
//! missing, stale, or does not land on a frame boundary it is ignored and
//! the affected segment replays from the start (at-least-once instead of
//! lost data).
//!
//! ## Recovery
//!
//! [`Wal::open`] scans every segment front to back, CRC-checking each
//! frame. The first incomplete or corrupt frame marks a torn tail — the
//! file is truncated there and the bytes after it are discarded, exactly
//! like a crash mid-`append` demands. Everything before the tear replays.
//!
//! ## Bounds
//!
//! Total on-disk bytes are capped by [`WalConfig::max_total_bytes`]: when
//! an append pushes past it, whole *oldest* segments are evicted (deleted)
//! and every evicted record is counted in [`Wal::dropped_records`] — the
//! same oldest-first/exact-accounting contract as the RAM part of the
//! transmitter's backlog, which this log backstops.

use crate::fault::{faulted_write, IoFault, IoOp};
use crate::{crc32_update, le_bytes};
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const SEG_MAGIC: [u8; 4] = *b"PWAL";
const SEG_VERSION: u8 = 1;
/// Segment header bytes: magic + version + 3 reserved.
const SEG_HEADER: u64 = 8;
/// Frame header bytes: len + records + crc.
const FRAME_HEADER: u64 = 12;
const CURSOR_MAGIC: [u8; 4] = *b"PWCU";
const CURSOR_FILE: &str = "cursor";

/// Sanity ceiling on a single frame payload — far above any UDP-bound
/// envelope; a length field beyond this is treated as corruption.
const MAX_FRAME_PAYLOAD: u32 = 1 << 28;

/// Write-ahead-log configuration.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotation threshold: a new segment starts once the active one would
    /// exceed this size. A single frame larger than the threshold gets a
    /// segment of its own.
    pub segment_max_bytes: u64,
    /// Total on-disk cap across all segments; exceeded ⇒ oldest-segment
    /// eviction with exact drop accounting.
    pub max_total_bytes: u64,
    /// `fsync` after every append. Off by default: the WAL's job is
    /// surviving *process* death and broker outages; full power-loss
    /// durability costs an fsync per envelope and can be opted into.
    pub sync_on_append: bool,
    /// Disk fault-injection hook ([`crate::fault::IoFault`]); `None` in
    /// production. Consulted before every segment write/fsync so chaos
    /// harnesses can script ENOSPC, short writes, and sync failures.
    pub fault: Option<std::sync::Arc<dyn IoFault>>,
}

impl WalConfig {
    /// Defaults: 1 MiB segments, 64 MiB total, no per-append fsync.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            max_total_bytes: 64 << 20,
            sync_on_append: false,
            fault: None,
        }
    }
}

#[derive(Debug)]
struct Segment {
    seq: u64,
    path: PathBuf,
    /// Valid bytes (header + intact frames); a torn tail is truncated to
    /// this during recovery.
    size: u64,
    /// Records in frames not yet consumed by [`Wal::pop_front`].
    records: u64,
    /// Offset of the next frame to pop.
    read_off: u64,
    /// New appends may extend this segment (false for recovered segments —
    /// appends after a restart always start a fresh file).
    writable: bool,
}

/// A bounded, crash-recoverable FIFO of `(payload, record-count)` frames.
#[derive(Debug)]
pub struct Wal {
    cfg: WalConfig,
    /// Oldest first; the back segment is the append target when writable.
    segments: VecDeque<Segment>,
    writer: Option<File>,
    /// Open read handle positioned at the front segment's `read_off`.
    reader: Option<(u64, File)>,
    next_seq: u64,
    total_records: u64,
    appended_records: u64,
    appended_bytes: u64,
    dropped_records: u64,
    recovered_records: u64,
    cursor_path: PathBuf,
    /// Open handle the cursor is rewritten through (fixed 24 bytes), so
    /// replay does not pay an open/close pair per popped frame.
    cursor_file: Option<File>,
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = fs::remove_file(self.cfg.dir.join(LOCK_FILE));
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016x}.seg"))
}

const LOCK_FILE: &str = "lock";

/// Takes the directory's advisory lock, guarding against two *processes*
/// spilling into the same WAL (double replay, segment-file collisions). A
/// lock left by a dead process — or by this one, after a crash-restart
/// with the same pid namespace — is detected via `/proc/<pid>` and
/// reclaimed; on platforms without `/proc` the lock degrades to
/// advisory-only rather than wedging recovery forever.
fn acquire_dir_lock(dir: &Path) -> io::Result<()> {
    let path = dir.join(LOCK_FILE);
    loop {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                let _ = file.write_all(std::process::id().to_string().as_bytes());
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let live = match holder {
                    // Our own pid: an earlier in-process instance leaked the
                    // lock (or is being replaced); intra-process sharing is
                    // the caller's responsibility.
                    Some(pid) if pid == std::process::id() => false,
                    Some(pid) => {
                        Path::new("/proc").exists() && Path::new(&format!("/proc/{pid}")).exists()
                    }
                    None => false,
                };
                if live {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "spill directory is locked by a live process",
                    ));
                }
                let _ = fs::remove_file(&path);
            }
            Err(e) => return Err(e),
        }
    }
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    u64::from_str_radix(hex, 16).ok()
}

fn frame_crc(records: u32, payload: &[u8]) -> u32 {
    let state = crc32_update(!0, &records.to_le_bytes());
    crc32_update(state, payload) ^ !0
}

/// One scanned frame: `(start offset, end offset, record count)`.
type FrameSpan = (u64, u64, u64);

/// Scans a segment file, returning the intact frame spans and truncating a
/// torn tail in place. Returns `None` when the file has no valid header
/// (leftover from a crash before the header landed) — the caller deletes it.
fn scan_segment(path: &Path) -> io::Result<Option<Vec<FrameSpan>>> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = [0u8; SEG_HEADER as usize];
    if file_len < SEG_HEADER {
        return Ok(None);
    }
    file.read_exact(&mut header)?;
    if header[..4] != SEG_MAGIC || header[4] != SEG_VERSION {
        return Ok(None);
    }
    let mut frames = Vec::new();
    let mut off = SEG_HEADER;
    let mut payload = Vec::new();
    loop {
        if off + FRAME_HEADER > file_len {
            break; // torn or clean EOF
        }
        let mut fh = [0u8; FRAME_HEADER as usize];
        file.seek(SeekFrom::Start(off))?;
        file.read_exact(&mut fh)?;
        let len = u32::from_le_bytes(le_bytes(&fh[0..4]));
        let records = u32::from_le_bytes(le_bytes(&fh[4..8]));
        let crc = u32::from_le_bytes(le_bytes(&fh[8..12]));
        if len > MAX_FRAME_PAYLOAD || off + FRAME_HEADER + len as u64 > file_len {
            break; // corrupt length or truncated payload
        }
        payload.clear();
        payload.resize(len as usize, 0);
        file.read_exact(&mut payload)?;
        if frame_crc(records, &payload) != crc {
            break; // torn mid-payload (or bit rot)
        }
        let end = off + FRAME_HEADER + len as u64;
        frames.push((off, end, records as u64));
        off = end;
    }
    if off < file_len {
        file.set_len(off)?; // truncate the torn tail
    }
    Ok(Some(frames))
}

/// An internal-invariant failure surfaced as an I/O error instead of a
/// panic: the WAL sits on the capture path, where aborting the process
/// would lose exactly the data the log exists to protect.
fn invariant(what: &str) -> io::Error {
    io::Error::other(format!("wal invariant violated: {what}"))
}

fn read_cursor(path: &Path) -> Option<(u64, u64)> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() != 24 || bytes[..4] != CURSOR_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(le_bytes(&bytes[4..12]));
    let off = u64::from_le_bytes(le_bytes(&bytes[12..20]));
    let crc = u32::from_le_bytes(le_bytes(&bytes[20..24]));
    let state = crc32_update(!0, &bytes[4..20]) ^ !0;
    (crc == state).then_some((seq, off))
}

impl Wal {
    /// Opens (or creates) the log at `cfg.dir`, running recovery: segments
    /// are scanned front to back, torn tails truncated, the consumption
    /// cursor applied, and fully consumed segments deleted. Everything that
    /// survives is reported by [`Wal::recovered_records`] and replays
    /// through [`Wal::pop_front`] in original append order.
    pub fn open(cfg: WalConfig) -> io::Result<Wal> {
        fs::create_dir_all(&cfg.dir)?;
        acquire_dir_lock(&cfg.dir)?;
        let mut seqs: Vec<u64> = fs::read_dir(&cfg.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_seq(e.file_name().to_str()?))
            .collect();
        seqs.sort_unstable();

        let cursor_path = cfg.dir.join(CURSOR_FILE);
        let cursor = read_cursor(&cursor_path);
        let mut segments = VecDeque::new();
        let mut total_records = 0u64;
        for seq in &seqs {
            let path = segment_path(&cfg.dir, *seq);
            // Consumed in full before the previous shutdown.
            if matches!(cursor, Some((cseq, _)) if *seq < cseq) {
                let _ = fs::remove_file(&path);
                continue;
            }
            let Some(frames) = scan_segment(&path)? else {
                let _ = fs::remove_file(&path); // headerless crash leftover
                continue;
            };
            let size = frames.last().map_or(SEG_HEADER, |f| f.1);
            let mut read_off = SEG_HEADER;
            let mut records: u64 = frames.iter().map(|f| f.2).sum();
            if let Some((cseq, coff)) = cursor {
                // Apply the cursor only on an exact frame boundary; a
                // mismatched offset means the cursor raced a truncation —
                // replay the whole segment rather than skip blind.
                if *seq == cseq && (coff == SEG_HEADER || frames.iter().any(|f| f.1 == coff)) {
                    read_off = coff.min(size);
                    records = frames.iter().filter(|f| f.0 >= read_off).map(|f| f.2).sum();
                }
            }
            if read_off >= size {
                let _ = fs::remove_file(&path);
                continue;
            }
            total_records += records;
            segments.push_back(Segment {
                seq: *seq,
                path,
                size,
                records,
                read_off,
                writable: false,
            });
        }
        let next_seq = seqs.last().map_or(0, |s| s + 1);
        Ok(Wal {
            cfg,
            segments,
            writer: None,
            reader: None,
            next_seq,
            total_records,
            appended_records: 0,
            appended_bytes: 0,
            dropped_records: 0,
            recovered_records: total_records,
            cursor_path,
            cursor_file: None,
        })
    }

    /// Appends one frame, evicting oldest segments to stay under
    /// [`WalConfig::max_total_bytes`]. Returns the number of records
    /// dropped by eviction (or the incoming count when the frame alone
    /// could never fit the cap).
    pub fn append(&mut self, payload: &[u8], records: usize) -> io::Result<u64> {
        let frame_bytes = FRAME_HEADER + payload.len() as u64;
        if SEG_HEADER + frame_bytes > self.cfg.max_total_bytes {
            // Mirrors the transmitter's RAM caps: an entry larger than the
            // cap is rejected up front instead of evicting residents in vain.
            self.dropped_records += records as u64;
            return Ok(records as u64);
        }
        self.ensure_writable_segment(frame_bytes)?;
        // lint: zero-alloc-begin
        let records32 = u32::try_from(records).unwrap_or(u32::MAX);
        let crc = frame_crc(records32, payload);
        let mut header = [0u8; FRAME_HEADER as usize];
        header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&records32.to_le_bytes());
        header[8..12].copy_from_slice(&crc.to_le_bytes());
        let Some(writer) = self.writer.as_mut() else {
            return Err(invariant("writer present after segment rotation"));
        };
        let sync = self.cfg.sync_on_append;
        let fault = self.cfg.fault.as_deref();
        let wrote = (|| {
            faulted_write(writer, fault, IoOp::Append, &[&header, payload])?;
            if sync {
                if let Some(f) = fault {
                    f.before_op(IoOp::Sync)?;
                }
                writer.sync_data()?;
            }
            Ok(())
        })();
        if let Err(e) = wrote {
            // A partial frame (ENOSPC mid-write) would desynchronize the
            // bookkeeping offsets from the file: roll the segment back to
            // its last intact frame, or seal it so the next append rotates
            // to a fresh file instead of writing after the garbage.
            if let Some(back) = self.segments.back_mut() {
                let rolled = writer
                    .set_len(back.size)
                    .and_then(|()| writer.seek(SeekFrom::Start(back.size)).map(|_| ()));
                if rolled.is_err() {
                    back.writable = false;
                    self.writer = None;
                }
            } else {
                self.writer = None;
            }
            return Err(e);
        }
        let Some(back) = self.segments.back_mut() else {
            return Err(invariant("segment present after successful append"));
        };
        back.size += frame_bytes;
        back.records += records as u64;
        self.total_records += records as u64;
        self.appended_records += records as u64;
        self.appended_bytes += payload.len() as u64;
        // lint: zero-alloc-end
        Ok(self.evict_over_cap())
    }

    fn ensure_writable_segment(&mut self, frame_bytes: u64) -> io::Result<()> {
        let rotate = match self.segments.back() {
            Some(back) if back.writable && self.writer.is_some() => {
                back.size > SEG_HEADER && back.size + frame_bytes > self.cfg.segment_max_bytes
            }
            _ => true,
        };
        if !rotate {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = segment_path(&self.cfg.dir, seq);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        let mut header = [0u8; SEG_HEADER as usize];
        header[..4].copy_from_slice(&SEG_MAGIC);
        header[4] = SEG_VERSION;
        if let Err(e) = faulted_write(
            &mut file,
            self.cfg.fault.as_deref(),
            IoOp::SegmentCreate,
            &[&header],
        ) {
            // A headerless (or short-headered) file is exactly what a crash
            // between create and header-write leaves; recovery deletes it.
            // Dropping the handle here means the next append rotates to a
            // fresh sequence number instead of writing after the garbage.
            drop(file);
            let _ = fs::remove_file(&path);
            return Err(e);
        }
        self.writer = Some(file);
        self.segments.push_back(Segment {
            seq,
            path,
            size: SEG_HEADER,
            records: 0,
            read_off: SEG_HEADER,
            writable: true,
        });
        Ok(())
    }

    fn evict_over_cap(&mut self) -> u64 {
        let mut dropped = 0;
        while self.disk_bytes() > self.cfg.max_total_bytes && self.segments.len() > 1 {
            let Some(seg) = self.segments.pop_front() else {
                break;
            };
            if matches!(self.reader, Some((seq, _)) if seq == seg.seq) {
                self.reader = None;
            }
            let _ = fs::remove_file(&seg.path);
            dropped += seg.records;
            self.total_records -= seg.records;
        }
        self.dropped_records += dropped;
        dropped
    }

    /// Pops the oldest frame for replay. A frame handed out is considered
    /// consumed — the cursor advances immediately, so a process that dies
    /// between pop and delivery re-sends nothing from this log (the
    /// transport's QoS owns the in-flight window).
    pub fn pop_front(&mut self) -> io::Result<Option<(Vec<u8>, usize)>> {
        loop {
            let Some(front) = self.segments.front() else {
                return Ok(None);
            };
            if front.read_off >= front.size {
                self.drop_front_segment();
                continue;
            }
            let (seq, read_off) = (front.seq, front.read_off);
            if !matches!(self.reader, Some((s, _)) if s == seq) {
                let mut file = File::open(&front.path)?;
                file.seek(SeekFrom::Start(read_off))?;
                self.reader = Some((seq, file));
            }
            let Some((_, file)) = self.reader.as_mut() else {
                return Err(invariant("segment reader open for the front segment"));
            };
            let mut fh = [0u8; FRAME_HEADER as usize];
            file.seek(SeekFrom::Start(read_off))?;
            let frame = (|| -> io::Result<Option<(Vec<u8>, u32)>> {
                file.read_exact(&mut fh)?;
                let len = u32::from_le_bytes(le_bytes(&fh[0..4]));
                let records = u32::from_le_bytes(le_bytes(&fh[4..8]));
                let crc = u32::from_le_bytes(le_bytes(&fh[8..12]));
                if len > MAX_FRAME_PAYLOAD {
                    return Ok(None);
                }
                let mut payload = vec![0u8; len as usize];
                file.read_exact(&mut payload)?;
                if frame_crc(records, &payload) != crc {
                    return Ok(None);
                }
                Ok(Some((payload, records)))
            })();
            match frame {
                Ok(Some((payload, records))) => {
                    let Some(front) = self.segments.front_mut() else {
                        return Err(invariant("front segment present after frame read"));
                    };
                    front.read_off += FRAME_HEADER + payload.len() as u64;
                    front.records = front.records.saturating_sub(records as u64);
                    self.total_records = self.total_records.saturating_sub(records as u64);
                    let (seq, off, done) =
                        (front.seq, front.read_off, front.read_off >= front.size);
                    self.write_cursor(seq, off);
                    if done {
                        self.drop_front_segment();
                    }
                    return Ok(Some((payload, records as usize)));
                }
                Ok(None) | Err(_) => {
                    // Corruption past recovery (bit rot while running):
                    // account the segment's remaining records as lost and
                    // move on rather than wedging replay forever.
                    let lost = self.segments.front().map_or(0, |s| s.records);
                    self.dropped_records += lost;
                    self.total_records = self.total_records.saturating_sub(lost);
                    self.drop_front_segment();
                }
            }
        }
    }

    fn drop_front_segment(&mut self) {
        let Some(seg) = self.segments.pop_front() else {
            return;
        };
        if matches!(self.reader, Some((seq, _)) if seq == seg.seq) {
            self.reader = None;
        }
        if seg.writable && self.segments.is_empty() {
            self.writer = None;
        }
        let _ = fs::remove_file(&seg.path);
        // A fully-consumed log needs no cursor; stale cursors older than
        // every segment are ignored at open anyway.
        if self.segments.is_empty() {
            self.cursor_file = None;
            let _ = fs::remove_file(&self.cursor_path);
        }
    }

    fn write_cursor(&mut self, seq: u64, off: u64) {
        // Best effort: a lost cursor only means a bounded replay overlap
        // after the next restart, never data loss. The record is a fixed
        // 24 bytes rewritten in place through a kept-open handle.
        let mut bytes = [0u8; 24];
        bytes[..4].copy_from_slice(&CURSOR_MAGIC);
        bytes[4..12].copy_from_slice(&seq.to_le_bytes());
        bytes[12..20].copy_from_slice(&off.to_le_bytes());
        let crc = crc32_update(!0, &bytes[4..20]) ^ !0;
        bytes[20..24].copy_from_slice(&crc.to_le_bytes());
        if self.cursor_file.is_none() {
            self.cursor_file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.cursor_path)
                .ok();
        }
        if let Some(f) = self.cursor_file.as_mut() {
            if f.seek(SeekFrom::Start(0))
                .and_then(|_| f.write_all(&bytes))
                .is_err()
            {
                self.cursor_file = None;
            }
        }
    }

    /// Flushes the active segment to disk (best effort on the cursor).
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(w) = self.writer.as_mut() {
            if let Some(f) = self.cfg.fault.as_deref() {
                f.before_op(IoOp::Sync)?;
            }
            w.sync_data()?;
        }
        Ok(())
    }

    /// Records awaiting replay.
    pub fn records(&self) -> u64 {
        self.total_records
    }

    /// Unconsumed bytes on disk (frame headers included).
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.size - s.read_off).sum()
    }

    /// Total bytes the segment files occupy on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.size).sum()
    }

    /// True when nothing awaits replay.
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Live segment-file count.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Cumulative records appended in this process (excludes recovered).
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Cumulative payload bytes appended in this process.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Cumulative records lost to cap eviction or unrecoverable corruption.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Records found durable on disk by [`Wal::open`] (a previous process's
    /// unsent spill, ready to replay).
    pub fn recovered_records(&self) -> u64 {
        self.recovered_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prov-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg(dir: &Path) -> WalConfig {
        WalConfig {
            segment_max_bytes: 128,
            max_total_bytes: 1 << 20,
            ..WalConfig::new(dir)
        }
    }

    #[test]
    fn fifo_roundtrip_and_exact_counts() {
        let dir = temp_dir("fifo");
        let mut wal = Wal::open(small_cfg(&dir)).unwrap();
        for i in 0..10u8 {
            assert_eq!(wal.append(&[i; 20], 2).unwrap(), 0);
        }
        assert_eq!(wal.records(), 20);
        assert!(wal.segment_count() > 1, "rotation never triggered");
        for i in 0..10u8 {
            let (payload, records) = wal.pop_front().unwrap().expect("frame");
            assert_eq!(payload, vec![i; 20]);
            assert_eq!(records, 2);
        }
        assert!(wal.pop_front().unwrap().is_none());
        assert!(wal.is_empty());
        assert_eq!(wal.dropped_records(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interleaved_append_and_pop_preserve_order() {
        let dir = temp_dir("interleave");
        let mut wal = Wal::open(small_cfg(&dir)).unwrap();
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u8;
        for round in 0..6 {
            for _ in 0..3 {
                wal.append(&[next; 10], 1).unwrap();
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..(if round % 2 == 0 { 2 } else { 4 }) {
                match (wal.pop_front().unwrap(), expect.pop_front()) {
                    (Some((p, _)), Some(want)) => assert_eq!(p, vec![want; 10]),
                    (None, None) => {}
                    (got, want) => panic!("mismatch: got {got:?}, want {want:?}"),
                }
            }
        }
        while let Some(want) = expect.pop_front() {
            let (p, _) = wal.pop_front().unwrap().expect("frame");
            assert_eq!(p, vec![want; 10]);
        }
        assert!(wal.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_everything_durable() {
        let dir = temp_dir("recover");
        {
            let mut wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 0..8u8 {
                wal.append(&[i; 30], 3).unwrap();
            }
        } // process "dies"
        let mut wal = Wal::open(small_cfg(&dir)).unwrap();
        assert_eq!(wal.recovered_records(), 24);
        for i in 0..8u8 {
            let (p, n) = wal.pop_front().unwrap().expect("frame");
            assert_eq!((p, n), (vec![i; 30], 3));
        }
        assert!(wal.pop_front().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_replays_exactly_once() {
        let dir = temp_dir("torn");
        {
            let mut wal = Wal::open(WalConfig::new(&dir)).unwrap();
            for i in 0..5u8 {
                wal.append(&[i; 40], 1).unwrap();
            }
        }
        // Simulate a crash mid-append: a frame header promising more
        // payload than the file holds.
        let seg = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
        let mut torn = [0u8; 12 + 7];
        torn[0..4].copy_from_slice(&100u32.to_le_bytes()); // len 100, only 7 bytes follow
        torn[4..8].copy_from_slice(&1u32.to_le_bytes());
        file.write_all(&torn).unwrap();
        drop(file);
        let len_torn = fs::metadata(&seg).unwrap().len();

        let mut wal = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.recovered_records(), 5, "durable prefix must survive");
        assert!(
            fs::metadata(&seg).unwrap().len() < len_torn,
            "torn tail was not truncated"
        );
        for i in 0..5u8 {
            let (p, _) = wal.pop_front().unwrap().expect("frame");
            assert_eq!(p, vec![i; 40]);
        }
        assert!(
            wal.pop_front().unwrap().is_none(),
            "torn frame must not replay"
        );
        // The truncated file accepts appends again via a fresh segment.
        wal.append(&[9; 10], 1).unwrap();
        assert_eq!(wal.pop_front().unwrap().unwrap().0, vec![9; 10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_marks_the_tear() {
        let dir = temp_dir("crc");
        {
            let mut wal = Wal::open(WalConfig::new(&dir)).unwrap();
            wal.append(&[1; 16], 1).unwrap();
            wal.append(&[2; 16], 1).unwrap();
        }
        // Flip a payload byte of the *second* frame.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let second_payload = 8 + (12 + 16) + 12; // header + frame1 + frame2 header
        bytes[second_payload + 3] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let mut wal = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.recovered_records(), 1);
        assert_eq!(wal.pop_front().unwrap().unwrap().0, vec![1; 16]);
        assert!(wal.pop_front().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The frames of a segment file that survive recovery: none without a
    /// valid header (its reserved bytes aside), else every frame that lies
    /// whole before the first byte where `bytes` differs from `intact`, or
    /// ends.
    fn intact_prefix(intact: &[u8], bytes: &[u8], frames: &[(u8, usize)]) -> Vec<(u8, usize)> {
        let header = SEG_HEADER as usize;
        if bytes.len() < header || bytes[..4] != SEG_MAGIC || bytes[4] != SEG_VERSION {
            return Vec::new();
        }
        let first_change = (header..bytes.len())
            .find(|&at| bytes[at] != intact[at])
            .unwrap_or(bytes.len());
        let whole = (first_change - header) / (FRAME_HEADER as usize + PAYLOAD);
        frames[..whole.min(frames.len())].to_vec()
    }

    /// Payload bytes of every frame the hostile-bytes test appends.
    const PAYLOAD: usize = 20;

    /// Hostile bytes on disk: each segment of a three-segment log, cut at
    /// every length, and with every byte set to 0x00, to 0xFF and flipped
    /// in one bit. Opening the log never fails or panics; every other
    /// segment replays whole; the damaged one replays exactly its intact
    /// prefix; pops keep append order; and `recovered_records` counts
    /// what pops.
    #[test]
    fn recovery_keeps_every_intact_prefix_under_hostile_bytes() {
        let dir = temp_dir("hostile");
        {
            let mut wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 0..9u8 {
                wal.append(&[i; PAYLOAD], usize::from(i) + 1).unwrap();
            }
            assert_eq!(wal.segment_count(), 3);
        }
        let segments: Vec<Vec<u8>> = (0..3)
            .map(|seq| fs::read(segment_path(&dir, seq)).unwrap())
            .collect();
        // Three frames to a segment, each `(payload byte, records)`.
        let frames: Vec<Vec<(u8, usize)>> = (0..3u8)
            .map(|seg| {
                (3 * seg..3 * seg + 3)
                    .map(|i| (i, usize::from(i) + 1))
                    .collect()
            })
            .collect();
        for (seg, intact) in segments.iter().enumerate() {
            let cuts = (0..=intact.len()).map(|len| intact[..len].to_vec());
            let damaged = (0..intact.len()).flat_map(|at| {
                [0x00, 0xFF, intact[at] ^ (1 << (at % 8))].map(|byte| {
                    let mut damaged = intact.clone();
                    damaged[at] = byte;
                    damaged
                })
            });
            for hostile in cuts.chain(damaged) {
                let _ = fs::remove_dir_all(&dir);
                fs::create_dir_all(&dir).unwrap();
                for (seq, bytes) in segments.iter().enumerate() {
                    let bytes = if seq == seg { &hostile } else { bytes };
                    fs::write(segment_path(&dir, seq as u64), bytes).unwrap();
                }
                let mut expected = Vec::new();
                for (seq, frames) in frames.iter().enumerate() {
                    match seq == seg {
                        true => expected.extend(intact_prefix(intact, &hostile, frames)),
                        false => expected.extend_from_slice(frames),
                    }
                }
                let mut wal = Wal::open(small_cfg(&dir)).unwrap();
                let recovered = wal.recovered_records();
                let mut popped = Vec::new();
                while let Some((payload, records)) = wal.pop_front().unwrap() {
                    assert_eq!(payload.len(), PAYLOAD);
                    popped.push((payload[0], records));
                }
                let case = format!("segment {seg}, {:02x?}", hostile);
                assert_eq!(popped, expected, "{case}");
                let records: usize = popped.iter().map(|(_, records)| records).sum();
                assert_eq!(recovered, records as u64, "{case}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_drops_oldest_segments_with_exact_accounting() {
        let dir = temp_dir("evict");
        // ~3 frames of 32-byte payload per 128-byte segment cap; total cap
        // allows ~2 segments.
        let cfg = WalConfig {
            segment_max_bytes: 128,
            max_total_bytes: 300,
            ..WalConfig::new(&dir)
        };
        let mut wal = Wal::open(cfg).unwrap();
        let mut dropped = 0;
        let mut appended = 0;
        for _ in 0..12 {
            dropped += wal.append(&[7; 32], 2).unwrap();
            appended += 2;
        }
        assert!(dropped > 0, "cap never triggered eviction");
        assert_eq!(
            wal.records() + dropped,
            appended,
            "drop accounting leaks records"
        );
        assert_eq!(wal.dropped_records(), dropped);
        assert!(wal.disk_bytes() <= 300);
        // Survivors are the newest suffix, intact and in order.
        let mut survivors = 0;
        while let Some((p, n)) = wal.pop_front().unwrap() {
            assert_eq!(p, vec![7; 32]);
            survivors += n as u64;
        }
        assert_eq!(survivors, appended - dropped);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_frame_rejected_without_evicting_residents() {
        let dir = temp_dir("oversize");
        let cfg = WalConfig {
            segment_max_bytes: 64,
            max_total_bytes: 200,
            ..WalConfig::new(&dir)
        };
        let mut wal = Wal::open(cfg).unwrap();
        assert_eq!(wal.append(&[1; 20], 1).unwrap(), 0);
        // Larger than the total cap: rejected, resident untouched.
        assert_eq!(wal.append(&[2; 400], 9).unwrap(), 9);
        assert_eq!(wal.records(), 1);
        assert_eq!(wal.dropped_records(), 9);
        assert_eq!(wal.pop_front().unwrap().unwrap().0, vec![1; 20]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_skips_consumed_frames_across_restart() {
        let dir = temp_dir("cursor");
        {
            let mut wal = Wal::open(small_cfg(&dir)).unwrap();
            for i in 0..9u8 {
                wal.append(&[i; 25], 1).unwrap();
            }
            // Consume the first four (spanning a segment boundary).
            for i in 0..4u8 {
                assert_eq!(wal.pop_front().unwrap().unwrap().0, vec![i; 25]);
            }
        }
        let mut wal = Wal::open(small_cfg(&dir)).unwrap();
        assert_eq!(wal.recovered_records(), 5, "consumed frames replayed");
        for i in 4..9u8 {
            assert_eq!(wal.pop_front().unwrap().unwrap().0, vec![i; 25]);
        }
        assert!(wal.pop_front().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_lock_blocks_live_holders_and_reclaims_stale_ones() {
        let dir = temp_dir("lock");
        fs::create_dir_all(&dir).unwrap();
        // A lock held by a live foreign process (pid 1 always exists in
        // /proc) refuses the open instead of double-replaying.
        fs::write(dir.join("lock"), b"1").unwrap();
        if Path::new("/proc/1").exists() {
            let err = Wal::open(WalConfig::new(&dir)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }
        // A lock left by a dead process is reclaimed.
        fs::write(dir.join("lock"), b"4294967294").unwrap();
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        // Dropping the Wal releases the lock for the next process.
        drop(wal);
        assert!(!dir.join("lock").exists(), "lock not released on drop");
        let _ = Wal::open(WalConfig::new(&dir)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_drained_wal_restarts_empty() {
        let dir = temp_dir("drained");
        {
            let mut wal = Wal::open(WalConfig::new(&dir)).unwrap();
            wal.append(&[1; 10], 1).unwrap();
            wal.pop_front().unwrap().unwrap();
        }
        let wal = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.recovered_records(), 0);
        assert!(wal.is_empty());
        assert_eq!(wal.segment_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
