//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use provlight::core::config::GroupPolicy;
use provlight::core::grouping::{Emit, Grouper};
use provlight::mqtt_sn::topic::{filter_is_valid, topic_matches};
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::store::Store;
use provlight::prov_store::AttrType;
use std::collections::HashMap;
use std::sync::Arc;

fn arb_record() -> impl Strategy<Value = Record> {
    let id = prop_oneof![
        (0u64..50).prop_map(Id::Num),
        "[a-z]{1,6}".prop_map(Id::from)
    ];
    let sources = proptest::collection::vec(id.clone(), 0..3);
    // Attribute lists of a few names and every kind of value, so that names
    // repeat within a record, change type between records, and a re-seen
    // id brings a different list than it had.
    let value = prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        any::<bool>().prop_map(AttrValue::Bool),
        (0u32..100).prop_map(|f| AttrValue::Float(f64::from(f) / 8.0)),
        "[a-z]{0,3}".prop_map(AttrValue::from),
        Just(AttrValue::Null),
        Just(AttrValue::Bytes(vec![1, 2])),
        Just(AttrValue::List(vec![AttrValue::Int(1)])),
    ];
    let attributes = proptest::collection::vec((0u8..4, value), 0..5);
    let data = (id.clone(), attributes, sources).prop_map(|(id, attributes, sources)| {
        let mut d = DataRecord::new(id, 1u64);
        for (name, value) in attributes {
            d = d.with_attr(format!("a{name}"), value);
        }
        // Ids collide often enough that a source may be stored already,
        // arrive later, never arrive, or be the row itself.
        d.derivations = sources;
        d
    });
    let task = (id.clone(), any::<u64>(), any::<bool>()).prop_map(|(id, t, fin)| TaskRecord {
        id,
        workflow: Id::Num(1),
        transformation: Id::Num(0),
        dependencies: vec![],
        time_ns: t,
        status: if fin {
            TaskStatus::Finished
        } else {
            TaskStatus::Running
        },
    });
    prop_oneof![
        any::<u64>().prop_map(|t| Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: t
        }),
        any::<u64>().prop_map(|t| Record::WorkflowEnd {
            workflow: Id::Num(1),
            time_ns: t
        }),
        (task.clone(), proptest::collection::vec(data.clone(), 0..3))
            .prop_map(|(task, inputs)| Record::TaskBegin { task, inputs }),
        (task, proptest::collection::vec(data, 0..3))
            .prop_map(|(task, outputs)| Record::TaskEnd { task, outputs }),
    ]
}

fn arb_policy() -> impl Strategy<Value = GroupPolicy> {
    prop_oneof![
        Just(GroupPolicy::Immediate),
        (1usize..8).prop_map(|size| GroupPolicy::Grouped { size }),
        (1usize..8).prop_map(|size| GroupPolicy::EndedOnly { size }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No grouping policy may lose, duplicate, or (for order-preserving
    /// policies) reorder records across push + final flush.
    #[test]
    fn grouping_is_lossless(
        records in proptest::collection::vec(arb_record(), 0..40),
        policy in arb_policy(),
    ) {
        let mut grouper = Grouper::new(policy);
        let mut out: Vec<Record> = Vec::new();
        for r in &records {
            match grouper.push(r.clone()) {
                Emit::Nothing => {}
                Emit::Passthrough(r) => out.push(r),
                Emit::Group(batch) => {
                    out.extend_from_slice(&batch);
                    grouper.recycle(batch);
                }
            }
        }
        if let Some(batch) = grouper.flush() {
            out.extend(batch);
        }
        prop_assert_eq!(out.len(), records.len());
        // Same multiset: sort debug representations.
        let mut a: Vec<String> = out.iter().map(|r| format!("{r:?}")).collect();
        let mut b: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Strictly order-preserving for non-reordering policies.
        if !matches!(policy, GroupPolicy::EndedOnly { .. }) {
            prop_assert_eq!(out, records);
        }
    }

    /// Envelope encode→decode is the identity for arbitrary record
    /// streams, with and without compression.
    #[test]
    fn envelope_roundtrip(
        records in proptest::collection::vec(arb_record(), 1..20),
        compress: bool,
    ) {
        let wire = Envelope::encode(&records, compress);
        let decoded = Envelope::decode(&wire).unwrap();
        prop_assert_eq!(decoded.records, records);
    }

    /// Store ingestion invariants hold for arbitrary (even nonsensical)
    /// record streams: row/index consistency, stats coherence, and a
    /// valid PROV export.
    #[test]
    fn store_ingestion_invariants(records in proptest::collection::vec(arb_record(), 0..60)) {
        let mut store = Store::new();
        store.ingest_batch(records.clone());
        let stats = store.stats();
        prop_assert_eq!(stats.records, records.len() as u64);
        prop_assert_eq!(stats.tasks as usize, store.tasks().len());
        prop_assert_eq!(stats.data as usize, store.data().len());
        // Every task row is reachable through its (workflow, id) index.
        for t in store.tasks() {
            let found = store.task_by_id(&t.workflow, &t.id);
            prop_assert!(found.is_some());
        }
        // Edges reference valid rows.
        for t in store.tasks() {
            for &d in t.inputs.iter().chain(&t.outputs) {
                prop_assert!(d < store.data().len());
            }
        }
        for d in store.data() {
            if let Some(g) = d.generated_by {
                prop_assert!(g < store.tasks().len());
            }
        }
        // Derivation edges run both ways, are counted once, and connect
        // exactly the listed sources the store holds a row for — under the
        // source row's id, whichever copy of it the set keeps.
        let mut edges = 0;
        for (d, row) in store.data().iter().enumerate() {
            for &s in row.derived_from_idx.iter() {
                prop_assert!(store.data()[s].derived_into.contains(&d));
                prop_assert!(row.derivations.contains(&store.data()[s].id));
            }
            for &into in row.derived_into.iter() {
                prop_assert!(store.data()[into].derived_from_idx.contains(&d));
            }
            for source in row.derivations.iter() {
                if let Some((s, _)) = store.data_by_id(&row.workflow, source) {
                    prop_assert!(row.derived_from_idx.contains(&s));
                }
            }
            edges += row.derived_from_idx.len() as u64;
        }
        prop_assert_eq!(stats.lineage_edges, edges);

        // Columns list rows, and rows hold the values. A cell is typed when
        // it is the first of its name in the row and of the kind of the
        // `(workflow, name)` column; every typed cell is listed in that
        // column exactly once, and nothing else is.
        let wf = Id::Num(1);
        let reports = |id: &Id| {
            let data = records.iter().flat_map(|r| match r {
                Record::TaskBegin { inputs: data, .. } | Record::TaskEnd { outputs: data, .. } => {
                    data.as_slice()
                }
                _ => &[],
            });
            data.filter(|d| d.id == *id).count()
        };
        let (mut cells, mut typed) = (0, 0);
        let mut listed: HashMap<Arc<str>, Vec<u32>> = HashMap::new();
        for (d, row) in store.data().iter().enumerate() {
            cells += row.attributes.len() as u64;
            let mut named: Vec<&str> = Vec::new();
            for (name, value) in row.attributes.iter() {
                let first = !named.contains(&&**name);
                named.push(name);
                let column = store.column(&wf, name);
                if first && column.is_some_and(|c| c.kind() == AttrType::of(&value)) {
                    typed += 1;
                    listed.entry(Arc::clone(name)).or_default().push(d as u32);
                }
                // A name's first value, if typed, has a column to be in.
                let untyped = AttrType::of(&value) == AttrType::Other;
                prop_assert!(!first || untyped || column.is_some());
            }
        }
        // Σ typed + untyped cells: every cell of every row was counted.
        prop_assert_eq!(stats.attr_cells, cells);
        let mut in_columns = 0;
        for (name, rows) in &listed {
            let column = store.column(&wf, name).expect("checked above");
            prop_assert!(column.kind() != AttrType::Other);
            in_columns += column.rows().len();
            // Same rows; in arrival order, which is row order except where
            // a row reported again merged the name in later.
            let mut arrived = column.rows().to_vec();
            arrived.sort_unstable();
            prop_assert_eq!(&arrived, rows);
            for pair in column.rows().windows(2) {
                let late = &store.data()[pair[1] as usize].id;
                prop_assert!(pair[0] < pair[1] || reports(late) > 1, "{name}: {pair:?}");
            }
            for &row in column.rows() {
                // What the scan reads is the row's first value of the name.
                let value = store.data()[row as usize].attributes.get(name);
                prop_assert_eq!(value.as_ref().map(AttrType::of), Some(column.kind()));
            }
        }
        prop_assert_eq!(in_columns, typed);
        // Rows of one shape share one layout, however they got it: fresh,
        // merged, from names of any allocation.
        type Shape = Vec<(String, u8)>;
        let mut layouts: HashMap<Shape, usize> = HashMap::new();
        for (d, row) in store.data().iter().enumerate() {
            let cells = row.attributes.iter();
            let shape = cells.map(|(n, v)| (n.to_string(), v.tag())).collect();
            let first = *layouts.entry(shape).or_insert(d);
            let same = Arc::ptr_eq(store.data()[first].attributes.layout(), row.attributes.layout());
            prop_assert!(same, "rows {first} and {d}");
        }
        prop_assert!(store.layout_count() >= layouts.len());
        store.to_prov_document().validate().unwrap();
    }

    /// What the decoder hands over — names shared within a message by its
    /// own layouts, strangers between messages — ends as the same rows and
    /// the same layouts as the records it was encoded from.
    #[test]
    fn decoded_rows_share_the_layouts_of_built_ones(
        records in proptest::collection::vec(arb_record(), 1..30),
        cut in 0usize..30,
    ) {
        let cut = cut.min(records.len());
        let mut built = Store::new();
        built.ingest_batch(records.clone());
        let mut decoded = Store::new();
        for message in [&records[..cut], &records[cut..]] {
            let wire = Envelope::encode(message, true);
            decoded.ingest_batch(Envelope::decode(&wire).unwrap().records);
        }
        prop_assert_eq!(decoded.stats(), built.stats());
        prop_assert_eq!(decoded.layout_count(), built.layout_count());
        for (a, b) in decoded.data().iter().zip(built.data()) {
            prop_assert_eq!(&a.attributes, &b.attributes);
        }
        // Equal layouts in one store are equal layouts in the other.
        for (i, a) in decoded.data().iter().enumerate() {
            for (j, b) in decoded.data().iter().enumerate().skip(i) {
                let same = Arc::ptr_eq(a.attributes.layout(), b.attributes.layout());
                let (a, b) = (&built.data()[i].attributes, &built.data()[j].attributes);
                prop_assert_eq!(same, Arc::ptr_eq(a.layout(), b.layout()));
            }
        }
    }

    /// `#` subsumes every concrete topic; `+`-for-level substitution never
    /// breaks a match.
    #[test]
    fn wildcard_matching_laws(levels in proptest::collection::vec("[a-z]{1,4}", 1..5)) {
        let name = levels.join("/");
        prop_assert!(topic_matches("#", &name));
        prop_assert!(topic_matches(&name, &name));
        for i in 0..levels.len() {
            let mut f = levels.clone();
            f[i] = "+".to_owned();
            let filter = f.join("/");
            prop_assert!(filter_is_valid(&filter));
            prop_assert!(topic_matches(&filter, &name), "{filter} vs {name}");
        }
        // Trailing # after any prefix matches.
        for i in 0..levels.len() {
            let filter = format!("{}/#", levels[..i + 1].join("/"));
            if i + 1 < levels.len() {
                prop_assert!(topic_matches(&filter, &name));
            }
        }
    }
}
