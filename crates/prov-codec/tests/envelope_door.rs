//! The envelope's door: what comes through it from outside the program.
//!
//! Version 1 envelopes are input from devices not yet upgraded and from
//! spilled device logs; nothing in the tree can write one any more, so the
//! ones here were encoded from `fixtures` at the last commit that could and
//! are pinned as bytes. Both versions are then cut, damaged and over-declared
//! every way a byte allows: the decoder answers with an error or with
//! records, never with a panic.

mod fixtures;

use fixtures::{group, mixed_batch, names, task_message, Kind};
use prov_codec::compress::{compress, decompress};
use prov_codec::frame::{Envelope, ENVELOPE_VERSION};
use prov_codec::CodecError;
use prov_model::{AttrValue, DataRecord, Record};

/// `mixed_batch()` as version 1 wrote it, uncompressed. 276 bytes.
const V1_MIXED_RAW: &str = "\
    a7010004110777662d6564676505747261696e067761726d757004696e2d6104\
    6c6f73730565706f63680473697465046564676504696e2d62046e6f6e650466\
    6c616703626967046c6973740664696765737403742d38056f75742d61046261\
    72650001008094ebdc03020007010001010200ac02010280c983dd0300030103\
    010000030403000000000000e03f050206060407010801000101030304030000\
    00000000d03f05020606040700090002000509000a01010b02ffffffffffffff\
    ffff010c05030202020302060d06040001feff03010e010001010200ac020102\
    988cebdc030102010f01000201030108030403000000000000c03f0502060604\
    07011001000000010100ffffffffffffffffff01\
";

/// `group(&names(10), Kind::SmallInt, 3)` as version 1 wrote it,
/// compressed. 263 bytes.
const V1_GROUP_PACKED: &str = "\
    a70101cf02ff0612047374657003df696e30026100303102ff61320261330261\
    34ff0261350261360261ff3702613802613904ff6f7574300672657357756c74\
    02e0310101310090fd320091320200000001ff01000080f188811bfe00a00100\
    01000a0202ff0003020604020405ff0202060200070206ff0802040902020a02\
    df000b0206030334be86d789811b03200c03710101c90d018100120204400492\
    0080d783fd8205610e05630403fe004002000502060602ff0407020208020009\
    ff02060a02040b0202cd030356be98035005100f00bf0102010c010e05a6e0f3\
    3f0205c10251018095f1c58405a1100b0f0b0f0355beaa74035005a01105a10f\
    011005a603f03f\
";

/// Envelope lengths version 1 gave the two-record message of task `t`:
/// `(t, immediate_small-shaped, sparse_tasks-shaped)`.
const V1_TASK_MESSAGE_LEN: [(u64, usize, usize); 4] = [
    (0, 140, 1410),
    (1, 147, 1481),
    (37, 152, 1484),
    (5000, 161, 1494),
];

fn hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| {
            let text = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(text, 16).expect("hex digits")
        })
        .collect()
}

#[test]
fn version_1_envelopes_decode_to_the_records_they_were_made_from() {
    let raw = hex(V1_MIXED_RAW);
    assert_eq!((raw.len(), raw[1], raw[2]), (276, 1, 0));
    let decoded = Envelope::decode(&raw).expect("version 1, raw");
    assert_eq!(decoded.records, mixed_batch());
    assert!(!decoded.was_compressed);

    let packed = hex(V1_GROUP_PACKED);
    assert_eq!((packed.len(), packed[1], packed[2]), (263, 1, 1));
    let decoded = Envelope::decode(&packed).expect("version 1, compressed");
    assert_eq!(decoded.records, group(&names(10), Kind::SmallInt, 3));
    assert!(decoded.was_compressed);

    // The same records leave as version 2, smaller, and come back the same.
    assert_eq!(ENVELOPE_VERSION, 2);
    for (records, v1_len) in [
        (mixed_batch(), raw.len()),
        (group(&names(10), Kind::SmallInt, 3), packed.len()),
    ] {
        for compression in [false, true] {
            let wire = Envelope::encode(&records, compression);
            assert_eq!(wire[1], ENVELOPE_VERSION);
            assert_eq!(Envelope::decode(&wire).expect("version 2").records, records);
            assert!(wire.len() < v1_len || !compression, "{} B", wire.len());
        }
    }
    // A version byte of the future is refused, not guessed at.
    let mut next = raw.clone();
    next[1] = ENVELOPE_VERSION + 1;
    assert_eq!(Envelope::decode(&next), Err(CodecError::BadTag(3)));
    // And the versions are not each other: version 1 bytes under a version
    // 2 header do not decode to the same records.
    let mut relabelled = raw;
    relabelled[1] = ENVELOPE_VERSION;
    assert_ne!(
        Envelope::decode(&relabelled).map(|e| e.records),
        Ok(mixed_batch())
    );
}

#[test]
fn a_lone_task_message_is_no_longer_than_version_1_made_it() {
    // One task per message bypasses the mechanism: nothing to share a
    // layout with. The message still must not pay for the machinery.
    let (small, wide) = (names(10), names(100));
    for (t, v1_small, v1_wide) in V1_TASK_MESSAGE_LEN {
        let small_len = Envelope::encoded_len(&task_message(&small, Kind::SmallInt, t), true);
        let wide_len = Envelope::encoded_len(&task_message(&wide, Kind::RandomF64, t), true);
        assert!(small_len <= v1_small, "t={t}: {small_len} > {v1_small}");
        assert!(wide_len <= v1_wide, "t={t}: {wide_len} > {v1_wide}");
        // What it does save is small change: a time as a distance, two
        // workflow ids implied (147 -> 145 and 1481 -> 1477 B at t = 1).
        assert!(small_len + 8 >= v1_small && wide_len + 8 >= v1_wide);
    }
}

#[test]
fn a_group_says_its_shape_once() {
    // 25 tasks of 100 random f64: version 1 made this 25 658 bytes.
    let wide = Envelope::encoded_len(&group(&names(100), Kind::RandomF64, 25), true);
    assert!(wide <= 22_500, "{wide} B");
    // 25 tasks of 25 small ints: 1 660 bytes in version 1.
    let small = Envelope::encoded_len(&group(&names(25), Kind::SmallInt, 25), true);
    assert!(small <= 1_350, "{small} B");
}

/// The batch inside an envelope, decompressed if need be.
fn batch_of(envelope: &[u8]) -> Vec<u8> {
    match envelope[2] & 1 {
        0 => envelope[3..].to_vec(),
        _ => decompress(&envelope[3..]).expect("a valid envelope decompresses"),
    }
}

/// `batch` as a version `version` envelope, raw and compressed.
fn wrapped(version: u8, batch: &[u8]) -> [Vec<u8>; 2] {
    let mut raw = vec![0xA7, version, 0];
    raw.extend_from_slice(batch);
    let mut packed = vec![0xA7, version, 1];
    packed.extend(compress(batch));
    [raw, packed]
}

fn cells(records: &[Record]) -> usize {
    fn width(value: &AttrValue) -> usize {
        match value {
            AttrValue::List(items) => 1 + items.iter().map(width).sum::<usize>(),
            _ => 1,
        }
    }
    let of = |data: &[DataRecord]| -> usize {
        data.iter()
            .flat_map(|d| &d.attributes)
            .map(|(_, value)| width(value))
            .sum()
    };
    records
        .iter()
        .map(|record| match record {
            Record::TaskBegin { inputs, .. } => of(inputs),
            Record::TaskEnd { outputs, .. } => of(outputs),
            _ => 0,
        })
        .sum()
}

/// Valid envelopes of both versions, raw and compressed, with shapes that
/// are shared, nearly shared and not shared at all.
fn valid_envelopes() -> Vec<Vec<u8>> {
    let shapes: Vec<Record> = mixed_batch()
        .into_iter()
        .chain(group(&names(4), Kind::SmallInt, 3))
        .chain(mixed_batch())
        .collect();
    vec![
        hex(V1_MIXED_RAW),
        hex(V1_GROUP_PACKED),
        Envelope::encode(&mixed_batch(), false),
        Envelope::encode(&mixed_batch(), true),
        Envelope::encode(&group(&names(10), Kind::SmallInt, 3), true),
        Envelope::encode(&shapes, false),
        Envelope::encode(&shapes, true),
    ]
}

#[test]
fn hostile_envelopes_are_errors_or_records_never_panics() {
    // The largest varint there is, where a count, a layout number or a
    // string reference was.
    let varint_max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    for envelope in valid_envelopes() {
        let intact = Envelope::decode(&envelope).expect("valid envelope");
        // Cut at every length: every byte was needed.
        for cut in 0..envelope.len() {
            assert!(Envelope::decode(&envelope[..cut]).is_err(), "cut {cut}");
        }
        // Longer than written: refused too.
        let mut longer = envelope.clone();
        longer.push(0);
        assert!(Envelope::decode(&longer).is_err());
        // Damaged at every byte, three ways.
        for at in 0..envelope.len() {
            for damage in [0xff, 0x01, 0x80] {
                let mut bad = envelope.clone();
                bad[at] ^= damage;
                let _ = Envelope::decode(&bad);
            }
        }
        // Over-declared at every byte of the batch, re-wrapped both ways so
        // the damage survives the compressor.
        let batch = batch_of(&envelope);
        for at in 0..batch.len() {
            let mut bad = batch[..at].to_vec();
            bad.extend(varint_max);
            bad.extend(&batch[at + 1..]);
            for wire in wrapped(envelope[1], &bad) {
                if let Ok(decoded) = Envelope::decode(&wire) {
                    // Whatever it decoded to, it was paid for in bytes.
                    assert!(cells(&decoded.records) <= bad.len());
                }
            }
        }
        assert!(cells(&intact.records) <= batch.len());
    }
}
