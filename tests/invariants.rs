//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use provlight::core::config::GroupPolicy;
use provlight::core::grouping::{Emit, Grouper};
use provlight::mqtt_sn::topic::{filter_is_valid, topic_matches};
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::store::{DataRow, Store};
use provlight::prov_store::AttrType;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Whether two ids are one: equal numbers, or one allocation of text.
fn same_allocation(a: &Id, b: &Id) -> bool {
    match (a, b) {
        (Id::Str(a), Id::Str(b)) => Arc::ptr_eq(a, b),
        _ => a == b,
    }
}

/// The workflows records name: numeric and text ids, so that tables are
/// keyed by both.
fn arb_workflow() -> impl Strategy<Value = Id> {
    prop_oneof![Just(Id::Num(1)), Just(Id::Num(2)), "w".prop_map(Id::from)]
}

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
    // `None` for the workflow of the task that reports the item, as nearly
    // always; now and then another workflow's name.
    let owner = (0u8..6, arb_workflow()).prop_map(|(pick, wf)| (pick == 0).then_some(wf));
    let data =
        (id.clone(), attributes, sources, owner).prop_map(|(id, attributes, sources, owner)| {
            let mut d = DataRecord::new(id, 1u64);
            for (name, value) in attributes {
                d = d.with_attr(format!("a{name}"), value);
            }
            // Ids collide often enough that a source may be stored already,
            // arrive later, never arrive, or be the row itself.
            d.derivations = sources;
            (d, owner)
        });
    let task = (id.clone(), arb_workflow(), any::<u64>(), any::<bool>()).prop_map(
        |(id, workflow, t, fin)| TaskRecord {
            id,
            workflow,
            transformation: Id::Num(0),
            dependencies: vec![],
            time_ns: t,
            status: if fin {
                TaskStatus::Finished
            } else {
                TaskStatus::Running
            },
        },
    );
    let reported = (task, proptest::collection::vec(data, 0..3)).prop_map(|(task, data)| {
        let owned = |(mut d, owner): (DataRecord, Option<Id>)| {
            d.workflow = owner.unwrap_or_else(|| task.workflow.clone());
            d
        };
        let data = data.into_iter().map(owned).collect();
        (task, data)
    });
    let reported = reported.boxed();
    prop_oneof![
        (arb_workflow(), any::<u64>())
            .prop_map(|(workflow, time_ns)| Record::WorkflowBegin { workflow, time_ns }),
        (arb_workflow(), any::<u64>())
            .prop_map(|(workflow, time_ns)| Record::WorkflowEnd { workflow, time_ns }),
        reported
            .clone()
            .prop_map(|(task, inputs)| Record::TaskBegin { task, inputs }),
        reported.prop_map(|(task, outputs)| Record::TaskEnd { task, outputs }),
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
    /// record streams: a workflow's table is whole and closed — every row
    /// where its index says, every edge inside the table — the tables sum
    /// to the stats, and the PROV export is valid.
    #[test]
    fn store_ingestion_invariants(records in proptest::collection::vec(arb_record(), 0..60)) {
        let mut store = Store::new();
        store.ingest_batch(records.clone());
        let stats = store.stats();
        prop_assert_eq!(stats.records, records.len() as u64);
        let named: HashSet<&Id> = records.iter().map(Record::workflow).collect();
        prop_assert_eq!(store.workflow_ids().len(), named.len());

        let (mut tasks, mut data, mut edges, mut cells) = (0, 0, 0, 0);
        let mut layouts = 0;
        let mut own_rows: HashSet<(&Id, &Id)> = HashSet::new();
        for wf in store.workflow_ids() {
            let table = store.workflow(wf).expect("listed");
            tasks += table.tasks().len() as u64;
            data += table.data().len() as u64;
            let is_own = |row: &DataRow| row.workflow == *wf;
            // Every task row is where the index says a task of its id is,
            // and its workflow is the table's key, not a copy of it.
            for (t, row) in table.tasks().iter().enumerate() {
                let found = store.task_by_id(wf, &row.id).expect("indexed");
                prop_assert!(std::ptr::eq(found, &table.tasks()[t]));
                prop_assert!(same_allocation(&row.workflow, wf));
                // Edges reference rows of this table.
                for &d in row.inputs.iter().chain(&row.outputs) {
                    prop_assert!(d < table.data().len());
                }
            }
            // Every data row likewise: the workflow's own under its id, a
            // row another workflow owns under that workflow's name and its
            // id. No row is in two tables, or twice in one.
            let mut foreign_rows: HashSet<(&Id, &Id)> = HashSet::new();
            for (d, row) in table.data().iter().enumerate() {
                if is_own(row) {
                    prop_assert_eq!(table.data_by_id(&row.id).map(|(at, _)| at), Some(d));
                    prop_assert!(store.data_by_id(wf, &row.id).is_some_and(|(at, _)| at == d));
                    prop_assert!(same_allocation(&row.workflow, wf));
                    prop_assert!(own_rows.insert((&row.workflow, &row.id)));
                } else {
                    // Found under its owner's name: the owner's own row if
                    // it has one, or else a replica, this or another.
                    let (_, found) = store.data_by_id(&row.workflow, &row.id).expect("findable");
                    prop_assert_eq!((&found.workflow, &found.id), (&row.workflow, &row.id));
                    prop_assert!(foreign_rows.insert((&row.workflow, &row.id)));
                }
                if let Some(g) = row.generated_by {
                    prop_assert!(g < table.tasks().len());
                }
                for &t in row.used_by.iter() {
                    prop_assert!(table.tasks()[t].inputs.contains(&d));
                }
            }
            // Derivation edges run both ways, are counted once, and connect
            // exactly the listed sources the table holds a row for in the
            // row's own namespace — under the source row's id, whichever
            // copy of it the set keeps.
            for (d, row) in table.data().iter().enumerate() {
                for &s in row.derived_from_idx.iter() {
                    let source = &table.data()[s];
                    prop_assert!(source.derived_into.contains(&d));
                    prop_assert!(row.derivations.contains(&source.id));
                    prop_assert_eq!(&source.workflow, &row.workflow);
                }
                for &into in row.derived_into.iter() {
                    prop_assert!(table.data()[into].derived_from_idx.contains(&d));
                }
                for source in row.derivations.iter() {
                    let held = |r: &DataRow| r.workflow == row.workflow && r.id == *source;
                    if let Some(s) = table.data().iter().position(held) {
                        prop_assert!(row.derived_from_idx.contains(&s));
                    }
                }
                edges += row.derived_from_idx.len() as u64;
            }

            // Columns list rows, and rows hold the values. A cell is typed
            // when it is the first of its name in a row of the workflow's
            // own and of the kind of the column of that name; every typed
            // cell is listed in that column exactly once, and nothing else
            // is: a row of another workflow feeds no column.
            let reports = |id: &Id| {
                let data = records.iter().flat_map(|r| match r {
                    Record::TaskBegin { task, inputs: data } | Record::TaskEnd { task, outputs: data }
                        if task.workflow == *wf =>
                    {
                        data.as_slice()
                    }
                    _ => &[],
                });
                data.filter(|d| d.id == *id && d.workflow == *wf).count()
            };
            let mut typed = 0;
            let mut listed: HashMap<Arc<str>, Vec<u32>> = HashMap::new();
            for (d, row) in table.data().iter().enumerate() {
                cells += row.attributes.len() as u64;
                let mut named: Vec<&str> = Vec::new();
                for (name, value) in row.attributes.iter() {
                    let first = !named.contains(&&**name);
                    named.push(name);
                    let column = store.column(wf, name);
                    let of_kind = column.is_some_and(|c| c.kind() == AttrType::of(&value));
                    if first && is_own(row) && of_kind {
                        typed += 1;
                        listed.entry(Arc::clone(name)).or_default().push(d as u32);
                    }
                    // A name's first value, if typed, has a column to be in.
                    let untyped = AttrType::of(&value) == AttrType::Other;
                    prop_assert!(!first || !is_own(row) || untyped || column.is_some());
                }
            }
            let mut in_columns = 0;
            for (name, rows) in &listed {
                let column = store.column(wf, name).expect("checked above");
                prop_assert!(column.kind() != AttrType::Other);
                in_columns += column.rows().len();
                // Same rows; in arrival order, which is row order except
                // where a row reported again merged the name in later.
                let mut arrived = column.rows().to_vec();
                arrived.sort_unstable();
                prop_assert_eq!(&arrived, rows);
                for pair in column.rows().windows(2) {
                    let late = &table.data()[pair[1] as usize].id;
                    prop_assert!(pair[0] < pair[1] || reports(late) > 1, "{name}: {pair:?}");
                }
                for &row in column.rows() {
                    // What the scan reads is the row's first value of the name.
                    let value = table.data()[row as usize].attributes.get(name);
                    prop_assert_eq!(value.as_ref().map(AttrType::of), Some(column.kind()));
                }
            }
            prop_assert_eq!(in_columns, typed);
            // Rows of one shape and one kind — the workflow's own, or
            // another's — share one layout, however they got it: fresh,
            // merged, from names of any allocation.
            type Shape = (bool, Vec<(String, u8)>);
            let mut shapes: HashMap<Shape, usize> = HashMap::new();
            for (d, row) in table.data().iter().enumerate() {
                let cells = row.attributes.iter();
                let shape = cells.map(|(n, v)| (n.to_string(), v.tag())).collect();
                let first = *shapes.entry((is_own(row), shape)).or_insert(d);
                let same = Arc::ptr_eq(table.data()[first].attributes.layout(), row.attributes.layout());
                prop_assert!(same, "rows {first} and {d}");
            }
            layouts += shapes.len();
        }
        // Σ over the tables is what the store counted.
        prop_assert_eq!(stats.tasks, tasks);
        prop_assert_eq!(stats.data, data);
        prop_assert_eq!(stats.lineage_edges, edges);
        prop_assert_eq!(stats.attr_cells, cells);
        prop_assert!(store.layout_count() >= layouts);
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
        prop_assert_eq!(decoded.workflow_ids(), built.workflow_ids());
        for wf in built.workflow_ids() {
            let decoded = decoded.workflow(wf).expect("listed").data();
            let built = built.workflow(wf).expect("listed").data();
            prop_assert_eq!(decoded, built);
            // Equal layouts in one table are equal layouts in the other.
            for (i, a) in decoded.iter().enumerate() {
                for (j, b) in decoded.iter().enumerate().skip(i) {
                    let same = Arc::ptr_eq(a.attributes.layout(), b.attributes.layout());
                    let (a, b) = (&built[i].attributes, &built[j].attributes);
                    prop_assert_eq!(same, Arc::ptr_eq(a.layout(), b.layout()));
                }
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
