//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use provlight::core::config::GroupPolicy;
use provlight::core::grouping::{Emit, Grouper};
use provlight::mqtt_sn::topic::{filter_is_valid, topic_matches};
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::store::Store;

fn arb_record() -> impl Strategy<Value = Record> {
    let id = prop_oneof![
        (0u64..50).prop_map(Id::Num),
        "[a-z]{1,6}".prop_map(Id::from)
    ];
    let sources = proptest::collection::vec(id.clone(), 0..3);
    let data = (id.clone(), 0u64..4, sources).prop_map(|(id, n, sources)| {
        let mut d = DataRecord::new(id, 1u64);
        for i in 0..n {
            d = d.with_attr(format!("a{i}"), i as i64);
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
        store.to_prov_document().validate().unwrap();
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
