//! The envelope's door: what comes through it from outside the program.
//!
//! Version 1, 2 and 3 envelopes are input from devices not yet upgraded
//! and from spilled device logs; nothing in the tree can write one any
//! more, so the ones here were encoded from `fixtures` at the last commit
//! that could and are pinned as bytes. All four versions are then cut,
//! damaged and over-declared every way a byte allows: the decoder answers
//! with an error or with records, never with a panic.

mod fixtures;

use fixtures::{group, mixed_batch, names, task_message, Kind};
use prov_codec::compress::{compress, decompress};
use prov_codec::frame::{Envelope, ENVELOPE_VERSION};
use prov_codec::CodecError;
use prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use std::sync::Arc;

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

/// `mixed_batch()` as version 2 wrote it, uncompressed. 251 bytes.
const V2_MIXED_RAW: &str = "\
    a7020004110777662d6564676505747261696e067761726d757004696e2d6104\
    6c6f73730565706f63680473697465046564676504696e2d62046e6f6e650466\
    6c616703626967046c6973740664696765737403742d38056f75742d61046261\
    72650001008094ebdc03020007010001010200ac02010280ea30000301030200\
    060403000000000000e03f05020606040701080201010301000000000000d03f\
    060700090002000a09000a01010b02ffffffffffffffffff010c050302020203\
    02060d06040001feff03010e010001010200ac020102cff9300102010f020201\
    03010801000000000000c03f06070110020000010100b198d6b907\
";

/// `group(&names(10), Kind::SmallInt, 3)` as version 2 wrote it,
/// compressed. 225 bytes.
const V2_GROUP_PACKED: &str = "\
    a702019202ff0612047374657003df696e30026100303102ff61320261330261\
    34ff0261350261360261ff3702613802613904ff6f7574300672657357756c74\
    02e0310101310090fd320091320200000001ff01000080f188811bfe00a00102\
    0014020200ff0302060402040502ff0206020007020608ff02040902020a0200\
    6f0b0206030324fc2a02e0cb0c0203310d014100120200790101d101f084f9e7\
    0300b01d0e012004020004e000410120fc01f403e20f0202010c019d0e03e4e0\
    3f02040101f1011203e410050103c40007a001f503e2dd1103e00f011003e4f0\
    3f\
";

/// `mixed_batch()` as version 3 wrote it, uncompressed. 251 bytes: the
/// string table and layouts of version 2, and three floats of 8 bytes.
const V3_MIXED_RAW: &str = "\
    a7030004110777662d6564676505747261696e067761726d757004696e2d6104\
    6c6f73730565706f63680473697465046564676504696e2d62046e6f6e650466\
    6c616703626967046c6973740664696765737403742d38056f75742d61046261\
    72650001008094ebdc03020007010001010200ac02010280ea30000301030200\
    06040305020604000000000000e03f060701080201010301000000000000d03f\
    060700090002000a09000a010b020c050d0601ffffffffffffffffff01030202\
    02030206040001feff03010e010001010200ac020102cff9300102010f020201\
    03010801000000000000c03f06070110020000010100b198d6b907\
";

/// `group(&names(10), Kind::SmallInt, 3)` as version 3 wrote it,
/// compressed. 185 bytes.
const V3_GROUP_PACKED: &str = "\
    a70301f701ff0612047374657003ff696e300261301131ff1132113311341135\
    ff1136113711381139ff046f757430067265af73756c74025031010131fa0090\
    3200913202000000ff0101000080f18881fd1b00a001020014024aaf00060402\
    0043030204fc2d2a01c00c0202110d01410012e702000101d101f084f9e76503\
    00b00e012003a504020120fc01f403e20f0202010c019d0e03e4e03f02040101\
    f1014203e410050107a801f503e21103e0370f011003e4f03f\
";

/// `task_message(&names(10), Kind::RandomF64, 1)` as version 3 wrote it,
/// uncompressed. 186 bytes, 88 of them the eleven floats.
const V3_F64_TASK_RAW: &str = "\
    a70300020f047374657003696e31026130113111321133113411351136113711\
    381139046f757431313006726573756c74020001000101000100008083fd821b\
    00010101020014024b6a060f5f478ce93f74df7d2c6da6da3f8090edd65ca2a1\
    3f58c29e0415e1e43f50579d770850d13ff894fe72f36eec3f467e2eaae235e0\
    3fb03cf30a8fe6bf3fe6508e18c1c3e73f6c747c9f6015d73f03000100010100\
    010000fc2a0101010c0202010d0101020e03000000000000e03f\
";

/// Envelope lengths the two-record message of task `t` had:
/// `(t, immediate_small-shaped, sparse_tasks-shaped)`, in version 1 and as
/// versions 3 and 4 measured them.
const V1_TASK_MESSAGE_LEN: [(u64, usize, usize); 4] = [
    (0, 140, 1410),
    (1, 147, 1481),
    (37, 152, 1484),
    (5000, 161, 1494),
];
const V3_TASK_MESSAGE_LEN: [(u64, usize, usize); 4] = [
    (0, 101, 955),
    (1, 110, 1079),
    (37, 115, 1085),
    (5000, 123, 1090),
];
const V4_TASK_MESSAGE_LEN: [(u64, usize, usize); 4] = [
    (0, 99, 854),
    (1, 109, 966),
    (37, 114, 971),
    (5000, 121, 978),
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

/// Pinned envelope bytes: `len` bytes of `version`, raw or compressed as
/// `compressed` says, that decode to `records`. The same records leave as
/// the version written now, in the same form and no longer, and come back
/// the same either way. Returns the pinned bytes.
fn pinned(text: &str, version: u8, compressed: bool, len: usize, records: &[Record]) -> Vec<u8> {
    let old = hex(text);
    assert_eq!(
        (old.len(), old[1], old[2]),
        (len, version, compressed as u8)
    );
    let decoded = Envelope::decode(&old).expect("pinned envelope");
    assert_eq!(decoded.records, records);
    assert_eq!(decoded.was_compressed, compressed);
    for compression in [false, true] {
        let wire = Envelope::encode(records, compression);
        assert_eq!(wire[1], ENVELOPE_VERSION);
        assert_eq!(Envelope::decode(&wire).expect("current").records, records);
        if compression == compressed {
            assert!(
                wire.len() <= old.len(),
                "{} B > {} B",
                wire.len(),
                old.len()
            );
        }
    }
    old
}

/// `envelope` under another version byte.
fn relabelled(envelope: &[u8], version: u8) -> Result<Vec<Record>, CodecError> {
    let mut wire = envelope.to_vec();
    wire[1] = version;
    Envelope::decode(&wire).map(|e| e.records)
}

#[test]
fn version_1_envelopes_decode_to_the_records_they_were_made_from() {
    let raw = pinned(V1_MIXED_RAW, 1, false, 276, &mixed_batch());
    let group_of_3 = group(&names(10), Kind::SmallInt, 3);
    pinned(V1_GROUP_PACKED, 1, true, 263, &group_of_3);
    // The versions are not each other: version 1 bytes under a later
    // header do not decode to the same records.
    for version in [2, 3, ENVELOPE_VERSION] {
        assert_ne!(relabelled(&raw, version), Ok(mixed_batch()));
    }
}

#[test]
fn version_2_envelopes_decode_to_the_records_they_were_made_from() {
    let raw = pinned(V2_MIXED_RAW, 2, false, 251, &mixed_batch());
    let group_of_3 = group(&names(10), Kind::SmallInt, 3);
    let packed = pinned(V2_GROUP_PACKED, 2, true, 225, &group_of_3);
    // Version 2 bytes under a later header are not the same records: the
    // grammars differ in the string table and the layouts.
    for version in [3, ENVELOPE_VERSION] {
        assert_ne!(relabelled(&raw, version), Ok(mixed_batch()));
        assert_ne!(relabelled(&packed, version), Ok(group_of_3.clone()));
    }
}

#[test]
fn version_3_envelopes_decode_to_the_records_they_were_made_from() {
    let raw = pinned(V3_MIXED_RAW, 3, false, 251, &mixed_batch());
    let group_of_3 = group(&names(10), Kind::SmallInt, 3);
    let packed = pinned(V3_GROUP_PACKED, 3, true, 185, &group_of_3);
    let floats = task_message(&names(10), Kind::RandomF64, 1);
    let f64_raw = pinned(V3_F64_TASK_RAW, 3, false, 186, &floats);
    // Version 4 is written; a version byte of the future is refused, not
    // guessed at.
    assert_eq!(ENVELOPE_VERSION, 4);
    assert_eq!(relabelled(&raw, 5), Err(CodecError::BadTag(5)));
    // Version 3 bytes under a version 4 header are not the same records:
    // the two grammars differ in every float.
    assert_ne!(relabelled(&raw, ENVELOPE_VERSION), Ok(mixed_batch()));
    assert_ne!(relabelled(&packed, ENVELOPE_VERSION), Ok(group_of_3));
    assert_ne!(relabelled(&f64_raw, ENVELOPE_VERSION), Ok(floats));
}

#[test]
fn a_lone_task_message_is_no_longer_than_version_1_made_it() {
    // One task per message bypasses the layouts: nothing to share one
    // with. What it saves is its shape: 100 names front-coded, 100 cells
    // in four runs (at t = 1, 1 481 B in version 1, 1 477 in version 2 and
    // 1 079 in version 3), and a byte per random float (966 in version 4).
    // The `result` of the small shape, `t / 2`, is 7 bytes while it lies
    // within 7 exponents of 1.0 and 1 to 4 outside them, never 8.
    let (small, wide) = (names(10), names(100));
    let lens = V1_TASK_MESSAGE_LEN
        .iter()
        .zip(V3_TASK_MESSAGE_LEN)
        .zip(V4_TASK_MESSAGE_LEN);
    for ((&(t, v1_small, v1_wide), (_, v3_small, v3_wide)), (_, v4_small, v4_wide)) in lens {
        let small_len = Envelope::encoded_len(&task_message(&small, Kind::SmallInt, t), true);
        let wide_len = Envelope::encoded_len(&task_message(&wide, Kind::RandomF64, t), true);
        assert!(v3_small < v1_small && v3_wide < v1_wide);
        assert!(v4_small <= v3_small && v4_wide <= v3_wide);
        assert!(small_len <= v4_small, "t={t}: {small_len} > {v4_small}");
        assert!(wide_len <= v4_wide, "t={t}: {wide_len} > {v4_wide}");
    }
}

#[test]
fn a_group_says_its_shape_once() {
    // 25 tasks of 100 random f64: version 1 made this 25 658 bytes,
    // version 2 22 208, version 3 21 836; version 4 writes each of the
    // 2 500 random floats in 7 bytes.
    let wide = Envelope::encoded_len(&group(&names(100), Kind::RandomF64, 25), true);
    assert!(wide <= 19_329, "{wide} B");
    // 25 tasks of 25 small ints: 1 660 bytes in version 1, 1 100 in
    // version 2.
    let small = Envelope::encoded_len(&group(&names(25), Kind::SmallInt, 25), true);
    assert!(small <= 1_000, "{small} B");
}

/// One task whose data records take the string-table and layout productions
/// of the written version to their edges: ids of 15 bytes and more that share 15 with the one before, a
/// run of 32 cells and one of 33, a run broken mid-layout and `Null`s.
fn front_coded_and_run_coded() -> Vec<Record> {
    let named = |prefix: &str, values: Vec<AttrValue>| -> Vec<(Arc<str>, AttrValue)> {
        let names = (0..).map(|i| Arc::from(format!("{prefix}{i:02}")));
        names.zip(values).collect()
    };
    let data = |id: &str, attributes| DataRecord {
        id: Id::from(id),
        workflow: Id::Num(1),
        derivations: Vec::new(),
        attributes,
    };
    let broken = vec![
        AttrValue::Int(1),
        AttrValue::Int(2),
        AttrValue::from("two"),
        AttrValue::Int(3),
        AttrValue::Null,
        AttrValue::Null,
        AttrValue::Int(4),
    ];
    vec![Record::TaskEnd {
        task: TaskRecord {
            id: Id::from("a-task-with-a-long-name"),
            workflow: Id::Num(1),
            transformation: Id::from("a-task-with-a-long-transformation"),
            dependencies: Vec::new(),
            time_ns: 1_700_000_000_000_000_000,
            status: TaskStatus::Finished,
        },
        outputs: vec![
            data("a-task-with-a-l", named("r", vec![true.into(); 32])),
            data("a-task-with-a-lo", named("s", vec![false.into(); 33])),
            data("a-task-with-a-long-name/2", named("t", broken)),
        ],
    }]
}

#[test]
fn front_and_run_coding_reach_their_edges() {
    let records = front_coded_and_run_coded();
    let wire = Envelope::encode(&records, false);
    assert_eq!(
        Envelope::decode(&wire).expect("written version").records,
        records
    );
    // The task's id escapes its suffix length; its transformation shares
    // the 15 bytes the cap allows and escapes too; the first output's id is
    // those 15 bytes and nothing of its own; the first name shares nothing.
    let table = [
        &b"\x0f\x08a-task-with-a-long-name"[..],
        b"\xff\x03ong-transformation",
        b"\xf0",
        b"\x03r00\x211",
    ]
    .concat();
    assert_eq!(wire[5..5 + table.len()], table, "{wire:02x?}");
}

/// The floats at the edges of what version 4 writes, in the order a batch
/// meets them: the first of a batch, 7 steps of sign and exponent either
/// way and the escape at 8, a sign flip, the whole form from 1 byte to 9,
/// NaN payloads, infinities, subnormals and the extremes.
fn float_edges() -> Vec<f64> {
    let bits = f64::from_bits;
    let mantissa = 0x000f_edcb_a987_6543;
    vec![
        bits(0x3fe << 52 | mantissa),
        bits(0x405 << 52 | mantissa),
        bits(0x3fe << 52 | mantissa),
        bits(0x406 << 52 | mantissa),
        bits(0x3fe << 52 | mantissa),
        bits(0xbfe << 52 | mantissa),
        0.0,
        -0.0,
        0.25,
        500.5,
        65_535.0,
        bits(0xbfe << 52 | mantissa),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        bits(0x7ff0_0000_0000_0001),
        bits(0xfff8_dead_beef_0001),
        bits(1),
        bits(0x000f_ffff_ffff_ffff),
        bits(0x8000_0000_0000_0001),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        bits(0x3fe1_2345_6789_0000),
    ]
}

/// [`float_edges`] as the cells of a data record, as a list, and once
/// more in a record of the same shape.
fn float_edge_records() -> Vec<Record> {
    let edges = float_edges();
    let cells = |values: &[f64]| -> Vec<(Arc<str>, AttrValue)> {
        let names = (0..).map(|i| Arc::from(format!("f{i:02}")));
        let mut cells: Vec<_> = names.zip(values.iter().map(|&f| f.into())).collect();
        let list = values.iter().rev().map(|&f| AttrValue::Float(f)).collect();
        cells.push((Arc::from("list"), AttrValue::List(list)));
        cells
    };
    let data = |id: u64, values: &[f64]| DataRecord {
        id: Id::Num(id),
        workflow: Id::Num(1),
        derivations: Vec::new(),
        attributes: cells(values),
    };
    let mut reversed = edges.clone();
    reversed.reverse();
    vec![Record::TaskEnd {
        task: TaskRecord {
            id: Id::Num(1),
            workflow: Id::Num(1),
            transformation: Id::Num(2),
            dependencies: Vec::new(),
            time_ns: 1,
            status: TaskStatus::Finished,
        },
        outputs: vec![data(1, &edges), data(2, &reversed)],
    }]
}

/// Every float of `records`, list items included, as its bits.
fn float_bits(records: &[Record]) -> Vec<u64> {
    fn of(value: &AttrValue, out: &mut Vec<u64>) {
        match value {
            AttrValue::Float(f) => out.push(f.to_bits()),
            AttrValue::List(items) => items.iter().for_each(|item| of(item, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for record in records {
        if let Record::TaskBegin { inputs: data, .. } | Record::TaskEnd { outputs: data, .. } =
            record
        {
            for (_, value) in data.iter().flat_map(|d| &d.attributes) {
                of(value, &mut out);
            }
        }
    }
    out
}

#[test]
fn every_float_at_an_edge_comes_back_bit_for_bit() {
    let records = float_edge_records();
    let sent = float_bits(&records);
    assert_eq!(sent.len(), 4 * float_edges().len());
    for compression in [false, true] {
        let wire = Envelope::encode(&records, compression);
        let back = Envelope::decode(&wire).expect("written version").records;
        assert_eq!(float_bits(&back), sent);
    }
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

/// Valid envelopes of all four versions, raw and compressed, with shapes
/// that are shared, nearly shared and not shared at all, and strings, runs
/// and floats at the edges of what version 4 writes.
fn valid_envelopes() -> Vec<Vec<u8>> {
    let shapes: Vec<Record> = mixed_batch()
        .into_iter()
        .chain(group(&names(4), Kind::SmallInt, 3))
        .chain(mixed_batch())
        .collect();
    vec![
        hex(V1_MIXED_RAW),
        hex(V1_GROUP_PACKED),
        hex(V2_MIXED_RAW),
        hex(V2_GROUP_PACKED),
        hex(V3_MIXED_RAW),
        hex(V3_GROUP_PACKED),
        hex(V3_F64_TASK_RAW),
        Envelope::encode(&mixed_batch(), false),
        Envelope::encode(&mixed_batch(), true),
        Envelope::encode(&group(&names(10), Kind::SmallInt, 3), true),
        Envelope::encode(&shapes, false),
        Envelope::encode(&shapes, true),
        Envelope::encode(&front_coded_and_run_coded(), false),
        Envelope::encode(&front_coded_and_run_coded(), true),
        Envelope::encode(&float_edge_records(), false),
        Envelope::encode(&float_edge_records(), true),
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
