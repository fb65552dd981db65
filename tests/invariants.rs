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
            let task_rows = table.tasks().len() as u32;
            let data_rows = table.data().len() as u32;
            // A row's workflow is the table's unless an owner is recorded
            // for it, once, in row order, and never the table's own.
            let foreign = table.foreign_owners();
            prop_assert!(foreign.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(foreign.iter().all(|(d, owner)| *d < data_rows && owner != wf));
            let owner = |d: u32| table.owner(d);
            let is_own = |d: u32| owner(d) == wf;
            // Every task row is where the index says a task of its id is.
            for row in table.tasks() {
                let found = store.task_by_id(wf, &row.id).expect("indexed");
                prop_assert!(std::ptr::eq(found, row));
                // Edges reference rows of this table.
                for &d in row.inputs.iter().chain(&row.outputs) {
                    prop_assert!(d < data_rows);
                }
            }
            // Every data row likewise: the workflow's own under its id in
            // the table, a row another workflow owns under that workflow's
            // name and its id. No row is in two tables, or twice in one.
            let mut foreign_rows: HashSet<(&Id, &Id)> = HashSet::new();
            for (d, row) in (0..).zip(table.data()) {
                let own = table.data_by_id(&row.id).is_some_and(|(at, _)| at == d);
                let recorded = foreign.iter().filter(|(at, _)| *at == d).count();
                prop_assert_eq!(recorded, usize::from(!own));
                prop_assert_eq!(is_own(d), own);
                if own {
                    prop_assert!(store.data_by_id(wf, &row.id).is_some_and(|(at, _)| at == d));
                    prop_assert!(own_rows.insert((wf, &row.id)));
                } else {
                    // Found under its owner's name: the owner's own row if
                    // it has one, or else a replica, this or another.
                    let (_, found) = store.data_by_id(owner(d), &row.id).expect("findable");
                    prop_assert_eq!(&found.id, &row.id);
                    prop_assert!(foreign_rows.insert((owner(d), &row.id)));
                }
                if let Some(g) = row.generated_by() {
                    prop_assert!(g < task_rows);
                }
                for &t in row.used_by().iter() {
                    prop_assert!(t < task_rows);
                    prop_assert!(table.tasks()[t as usize].inputs.contains(&d));
                }
            }
            // Derivation edges run both ways, are counted once, and connect
            // exactly the listed sources the table holds a row for in the
            // row's own namespace — under the source row's id, whichever
            // copy of it the set keeps.
            for (d, row) in (0..).zip(table.data()) {
                for &s in row.derived_from().iter() {
                    prop_assert!(s < data_rows);
                    let source = &table.data()[s as usize];
                    prop_assert!(source.derived_into().contains(&d));
                    prop_assert!(row.derivations.contains(&source.id));
                    prop_assert_eq!(owner(s), owner(d));
                }
                for &into in row.derived_into().iter() {
                    prop_assert!(into < data_rows);
                    prop_assert!(table.data()[into as usize].derived_from().contains(&d));
                }
                for source in row.derivations.iter() {
                    let held = |(s, r): &(u32, &DataRow)| owner(*s) == owner(d) && r.id == *source;
                    if let Some((s, _)) = (0..).zip(table.data()).find(held) {
                        prop_assert!(row.derived_from().contains(&s));
                    }
                }
                edges += row.derived_from().len() as u64;
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
            for (d, row) in (0..).zip(table.data()) {
                cells += row.attributes.len() as u64;
                let mut named: Vec<&str> = Vec::new();
                for (name, value) in row.attributes.iter() {
                    let first = !named.contains(&&**name);
                    named.push(name);
                    let column = store.column(wf, name);
                    let of_kind = column.is_some_and(|c| c.kind() == AttrType::of(&value));
                    if first && is_own(d) && of_kind {
                        typed += 1;
                        listed.entry(Arc::clone(name)).or_default().push(d);
                    }
                    // A name's first value, if typed, has a column to be in.
                    let untyped = AttrType::of(&value) == AttrType::Other;
                    prop_assert!(!first || !is_own(d) || untyped || column.is_some());
                }
            }
            let mut in_columns = 0;
            for (name, rows) in &listed {
                let column = store.column(wf, name).expect("checked above");
                prop_assert!(column.kind() != AttrType::Other);
                let scanned: Vec<u32> = table.column_rows(name).collect();
                in_columns += scanned.len();
                // Same rows, as a scan meets them: in row order, which
                // may differ from arrival order only for a row reported
                // again that merged the name in later.
                let mut arrived = scanned.clone();
                arrived.sort_unstable();
                prop_assert_eq!(&arrived, rows);
                for pair in scanned.windows(2) {
                    let late = &table.data()[pair[1] as usize].id;
                    prop_assert!(pair[0] < pair[1] || reports(late) > 1, "{name}: {pair:?}");
                }
                for &row in &scanned {
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
            let mut shapes: HashMap<Shape, u32> = HashMap::new();
            for (d, row) in (0..).zip(table.data()) {
                let cells = row.attributes.iter();
                let shape = cells.map(|(n, v)| (n.to_string(), v.tag())).collect();
                let first = *shapes.entry((is_own(d), shape)).or_insert(d);
                let layout = table.data()[first as usize].attributes.layout();
                let same = Arc::ptr_eq(layout, row.attributes.layout());
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
