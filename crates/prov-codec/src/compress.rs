//! LZSS compression (in-repo, dependency-free).
//!
//! The paper compresses captured payloads on the device before transmission
//! (§IV-C, §VII-A: "compresses data (using binary format)", measured cost
//! ≈1 ms per 100-attribute task on the A8-M3). This module implements a
//! classic LZSS with:
//!
//! * 4 KiB sliding window, 3..=18 byte matches;
//! * a hash-chain match finder (3-byte hashing) so compression is O(n) in
//!   practice — cheap enough for a 600 MHz core;
//! * token format: control byte carrying 8 flags, `1` = literal byte,
//!   `0` = match encoded as `offset:12 | (len-3):4` big-endian.
//!
//! JSON-ish provenance payloads (repeated attribute names, monotone ids)
//! compress ≈2–3×. Binary batches mostly do not: their names are
//! front-coded and their shapes said once, and random `f64` payloads leave
//! nothing to match, so the envelope sends the raw form whenever the
//! tokens are not smaller. Of the benchmark's four workloads only
//! `query_mix`, whose groups carry small ints, compresses well (raw over
//! compressed ×1.68); `sparse_tasks` breaks even (×1.02), and
//! `immediate_small` (×0.90) and `grouped_wide` (×0.93) send the raw
//! batch.

use crate::CodecError;
use std::cell::RefCell;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
const HASH_SIZE: usize = 1 << 13;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(506_832_829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2_654_435_761))
        .wrapping_add(data[i + 2] as u32);
    (h as usize) & (HASH_SIZE - 1)
}

/// Reusable match-finder state for [`compress_into`].
///
/// The hash-chain tables are ~48 KiB; allocating them per call dominated the
/// old `compress` cost for small payloads. One scratch reused across calls
/// (the transmitter holds one per thread) makes compression allocation-free
/// apart from output growth.
pub struct CompressScratch {
    /// `head[h]` = most recent position with hash `h` (+1, 0 = none).
    head: Vec<u32>,
    /// `prev[i % WINDOW]` = previous position in the chain for position `i`.
    prev: Vec<u32>,
}

impl Default for CompressScratch {
    fn default() -> Self {
        CompressScratch {
            head: vec![0; HASH_SIZE],
            prev: vec![0; WINDOW],
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<CompressScratch> = RefCell::new(CompressScratch::default());
}

/// Compresses `input`, appending to `out` (not cleared), reusing a
/// thread-local [`CompressScratch`]. Output bytes are identical to
/// [`compress`].
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    SCRATCH.with(|s| compress_with(&mut s.borrow_mut(), input, out));
}

/// Compresses `input`. The output always starts with the uncompressed length
/// as a LEB128 varint, followed by the token stream.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// Compresses `input` into `out` using caller-owned scratch tables.
pub fn compress_with(scratch: &mut CompressScratch, input: &[u8], out: &mut Vec<u8>) {
    crate::varint::write_u64(out, input.len() as u64);
    if input.is_empty() {
        return;
    }

    scratch.head.fill(0);
    scratch.prev.fill(0);
    let head = &mut scratch.head;
    let prev = &mut scratch.prev;

    let mut flags_pos = out.len();
    out.push(0);
    let mut flag_count = 0u8;

    let mut i = 0usize;
    while i < input.len() {
        if flag_count == 8 {
            flags_pos = out.len();
            out.push(0);
            flag_count = 0;
        }

        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(input, i);
            let mut candidate = head[h] as usize;
            let mut chain = 0;
            let max = MAX_MATCH.min(input.len() - i);
            while candidate > 0 && chain < 32 {
                let pos = candidate - 1;
                // Strictly less than WINDOW: the token's 12-bit offset field
                // holds 1..=4095, so a distance of exactly 4096 would wrap
                // to 0 and corrupt the stream.
                if i > pos && i - pos < WINDOW {
                    // A candidate can only improve on the current best if it
                    // also matches at offset `best_len` — one comparison that
                    // rejects most of the chain without a full match scan.
                    if best_len == 0 || input.get(pos + best_len) == input.get(i + best_len) {
                        let mut l = 0;
                        while l < max && input[pos + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_off = i - pos;
                            if l == max {
                                break;
                            }
                        }
                    }
                } else {
                    // Candidate out of window (or from a stale slot): older
                    // entries are only further away, stop walking the chain.
                    break;
                }
                candidate = prev[pos % WINDOW] as usize;
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Match token (flag bit 0).
            let token = ((best_off as u16) << 4) | ((best_len - MIN_MATCH) as u16);
            out.extend_from_slice(&token.to_be_bytes());
            // Insert hash entries for positions covered by the match so
            // later matches can refer inside it. Long matches insert a
            // 2-stride subsample (zlib fast-mode style): hashing every
            // position of an 18-byte match costs more than the marginal
            // ratio it buys on provenance payloads.
            let end = i + best_len;
            let stride = if best_len > 8 { 2 } else { 1 };
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash3(input, i);
                    prev[i % WINDOW] = head[h];
                    head[h] = (i + 1) as u32;
                }
                i += stride;
            }
            i = end;
        } else {
            out[flags_pos] |= 1 << flag_count;
            out.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash3(input, i);
                prev[i % WINDOW] = head[h];
                head[h] = (i + 1) as u32;
            }
            i += 1;
        }
        flag_count += 1;
    }
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Decompresses into a caller-owned buffer (cleared first), so the decode
/// loop of a long-lived server can recycle one scratch allocation across
/// messages.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    let mut r = crate::varint::Reader::new(input);
    let expected = r.read_u64().map_err(|_| CodecError::BadCompression)? as usize;
    // A declared size is refused before anything is reserved for it. The
    // densest the format gets is a control byte and eight match tokens:
    // 17 bytes in, 8 × 18 out.
    if expected > max_decompressed_len(input.len()) {
        return Err(CodecError::BadCompression);
    }
    out.reserve(expected);
    let mut pos = r.position();

    while out.len() < expected {
        let flags = *input.get(pos).ok_or(CodecError::BadCompression)?;
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expected {
                break;
            }
            if flags & (1 << bit) != 0 {
                out.push(*input.get(pos).ok_or(CodecError::BadCompression)?);
                pos += 1;
            } else {
                let hi = *input.get(pos).ok_or(CodecError::BadCompression)? as u16;
                let lo = *input.get(pos + 1).ok_or(CodecError::BadCompression)? as u16;
                pos += 2;
                let token = (hi << 8) | lo;
                let offset = (token >> 4) as usize;
                let len = (token & 0x0f) as usize + MIN_MATCH;
                if offset == 0 || offset > out.len() {
                    return Err(CodecError::BadCompression);
                }
                let start = out.len() - offset;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
        }
    }
    if out.len() != expected {
        return Err(CodecError::BadCompression);
    }
    if pos != input.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(())
}

/// The most a compressed stream of `len` bytes can decompress to: under
/// 8 × 18 / 17 of it, rounded up to 9 with room for a short stream's
/// header.
pub const fn max_decompressed_len(len: usize) -> usize {
    len.saturating_mul(9).saturating_add(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_and_incompressible_roundtrip() {
        let data = [7u8, 1, 9];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
        let random: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decompress(&compress(&random)).unwrap(), random);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"attr_name=value;".repeat(64);
        let c = compress(&data);
        assert!(
            c.len() * 3 < data.len(),
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn json_like_payload_hits_paper_ratio() {
        // Paper Fig. 6c attributes the ~2x network saving to compression of
        // attribute-heavy payloads; verify our ratio on a realistic payload.
        let mut payload = String::from("{\"task\":{\"id\":1,\"workflow\":1},\"data\":[");
        for i in 0..100 {
            payload.push_str(&format!("{{\"attribute_{i}\":{i}}},"));
        }
        payload.push_str("]}");
        let c = compress(payload.as_bytes());
        let ratio = payload.len() as f64 / c.len() as f64;
        assert!(ratio > 2.0, "ratio {ratio:.2} too low");
        assert_eq!(decompress(&c).unwrap(), payload.as_bytes());
    }

    #[test]
    fn long_runs_use_overlapping_matches() {
        let data = vec![0xabu8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 2_000);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn match_at_exact_window_distance_roundtrips() {
        // Regression: a repeat at distance exactly WINDOW (4096) used to be
        // accepted as a match, but the 12-bit offset field wraps 4096 to 0,
        // producing an undecodable stream. Large coalesced envelopes make
        // such distances routine.
        let sentinel: Vec<u8> = (0u8..32).collect();
        let mut data = sentinel.clone();
        data.extend(std::iter::repeat_n(0xAB, WINDOW - sentinel.len()));
        data.extend_from_slice(&sentinel); // starts exactly WINDOW after the first copy
        assert_eq!(data.len(), WINDOW + 32);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_input_is_error_not_panic() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]);
        }
        // Flip each byte and make sure we never panic.
        for i in 0..c.len() {
            let mut bad = c.clone();
            bad[i] ^= 0xff;
            let _ = decompress(&bad);
        }
    }

    #[test]
    fn declared_length_is_bounded() {
        // Huge declared size with a tiny body must be rejected early.
        let mut buf = Vec::new();
        crate::varint::write_u64(&mut buf, u64::MAX / 2);
        buf.push(0x01);
        buf.push(b'x');
        assert_eq!(decompress(&buf), Err(CodecError::BadCompression));
    }

    /// The densest stream the format allows: one literal, then nothing but
    /// 18-byte matches at distance 1, eight to a control byte. Declares
    /// `declared` bytes whatever it holds.
    fn densest_stream(groups: usize, declared: usize) -> Vec<u8> {
        let longest = (1u16 << 4 | (MAX_MATCH - MIN_MATCH) as u16).to_be_bytes();
        let mut buf = Vec::new();
        crate::varint::write_u64(&mut buf, declared as u64);
        buf.extend([0x01, 0xab]);
        buf.extend(std::iter::repeat_n(longest, 7).flatten());
        for _ in 0..groups {
            buf.push(0x00);
            buf.extend(std::iter::repeat_n(longest, 8).flatten());
        }
        buf
    }

    #[test]
    fn declared_length_is_held_to_what_the_tokens_could_expand_to() {
        let holds = |groups: usize| 1 + 7 * MAX_MATCH + groups * 8 * MAX_MATCH;
        // As dense as it gets — 8.4 bytes out per byte in — still decodes.
        let stream = densest_stream(100, holds(100));
        assert!(holds(100) > stream.len() * 8);
        assert!(holds(100) <= max_decompressed_len(stream.len()));
        assert_eq!(decompress(&stream).unwrap(), vec![0xab; holds(100)]);
        // Ten times the stream is more than any stream holds: refused, and
        // nothing reserved on the way.
        let lying = densest_stream(100, stream.len() * 10);
        let mut out = Vec::new();
        assert_eq!(
            decompress_into(&lying, &mut out),
            Err(CodecError::BadCompression)
        );
        assert_eq!(out.capacity(), 0);
    }

    #[test]
    fn bytes_after_the_last_token_are_an_error() {
        let mut c = compress(b"hello world hello world hello world");
        assert!(decompress(&c).is_ok());
        c.push(0);
        assert_eq!(decompress(&c), Err(CodecError::TrailingBytes));
        assert_eq!(decompress(&[0, 0]), Err(CodecError::TrailingBytes));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..4096)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn prop_decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&data);
        }
    }
}
