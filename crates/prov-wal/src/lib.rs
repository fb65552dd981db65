//! # prov-wal
//!
//! Durable spill-to-flash storage for the capture pipeline: a segmented,
//! CRC32-framed append-only log plus a checksummed atomic snapshot file.
//!
//! The ProvLight transmitter's backlog holds envelopes in RAM while the
//! broker is unreachable, but an outage that outlasts the RAM caps used to
//! mean silent (if counted) loss. This crate gives the transmitter — and
//! the broker's restart persistence — a flash-backed tier:
//!
//! * [`wal::Wal`] — an append-only log of `(payload, record-count)` frames
//!   split across size-rotated segment files. Every frame is CRC32-guarded;
//!   recovery truncates a torn tail (a crash mid-write) and replays
//!   everything durable exactly once. Total disk usage is bounded: when the
//!   cap is exceeded the *oldest segment* is evicted with exact
//!   record-level drop accounting, mirroring the RAM buffer's oldest-first
//!   policy.
//! * [`snapshot`] — one-shot whole-state files (magic + version + length +
//!   CRC32) written atomically via a temp file and rename, used by
//!   `UdpBroker` to persist its session/registry state across process
//!   death.
//!
//! The crate is dependency-free (std only) so both `provlight_core` and
//! `mqtt_sn` can use it without layering cycles.

pub mod fault;
pub mod snapshot;
pub mod wal;

pub use fault::{IoFault, IoOp};
pub use wal::{Wal, WalConfig};

/// Copies up to `N` leading bytes of `b` into a zero-padded array.
///
/// The panic-free alternative to `b[..N].try_into().unwrap()` for decoding
/// fixed-width integers out of framed headers: callers have already
/// length-checked the buffer, and a short slice yields zero-padded bytes
/// that fail the frame's CRC check instead of aborting the process.
pub fn le_bytes<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(b) {
        *dst = *src;
    }
    out
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum Ethernet, gzip, and most WAL implementations use.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0, data) ^ !0
}

/// Streaming form: feed chunks into a running state seeded with `!0`, and
/// finish by XORing with `!0`.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

const CRC_TABLE: [u32; 256] = {
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
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data = b"provlight wal frame payload";
        let oneshot = crc32(data);
        let mut state = !0u32;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ !0, oneshot);
    }
}
