//! Property tests for the composable query engine.
//!
//! The engine's closure operator walks resolved index edges with a
//! budgeted, paginated executor; these tests pin its results to a naive
//! id-level BFS oracle computed straight from the record stream, over
//! random DAGs ingested in random order (so forward derivation
//! references — edges wired only when their source row arrives — are
//! exercised throughout).

use proptest::prelude::*;
use provlight::prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::query::{CursorOpts, LineageDirection, Path, Query, SnapshotMode};
use provlight::prov_store::store::Store;
use std::collections::{BTreeSet, VecDeque};

/// A random DAG as an edge list `child -> parent` with `parent < child`
/// (indices; acyclicity by construction), plus an ingest permutation.
#[derive(Clone, Debug)]
struct Dag {
    nodes: usize,
    /// `edges[c]` = parents of `c` (each `< c`).
    edges: Vec<Vec<usize>>,
    /// The order node records are ingested (a permutation of `0..nodes`),
    /// so children routinely arrive before their parents.
    order: Vec<usize>,
}

/// Max node count; per-case `nodes` trims the raw seed material down.
const MAX_NODES: usize = 24;

fn arb_dag() -> impl Strategy<Value = Dag> {
    let parents =
        proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..4), MAX_NODES);
    let shuffle_seed = proptest::collection::vec(any::<u64>(), MAX_NODES);
    (2usize..MAX_NODES, parents, shuffle_seed).prop_map(|(nodes, parents, shuffle_seed)| {
        let edges: Vec<Vec<usize>> = parents[..nodes]
            .iter()
            .enumerate()
            .map(|(c, seeds)| {
                // `seed % c` < c guarantees parent < child: acyclic.
                let mut ps: Vec<usize> = if c == 0 {
                    Vec::new()
                } else {
                    seeds.iter().map(|&s| (s % c as u64) as usize).collect()
                };
                ps.sort_unstable();
                ps.dedup();
                ps
            })
            .collect();
        // Deterministic shuffle: sort node indices by their seed.
        let mut order: Vec<usize> = (0..nodes).collect();
        order.sort_by_key(|&i| (shuffle_seed[i], i));
        Dag {
            nodes,
            edges,
            order,
        }
    })
}

fn ingest(dag: &Dag) -> Store {
    let mut store = Store::new();
    for (t, &node) in dag.order.iter().enumerate() {
        let mut d = DataRecord::new(format!("d{node}"), 1u64);
        for &p in &dag.edges[node] {
            d = d.derived_from(format!("d{p}"));
        }
        store.ingest(Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(t as u64),
                workflow: Id::Num(1),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: t as u64,
                status: TaskStatus::Running,
            },
            inputs: vec![d],
        });
    }
    store
}

/// Naive BFS over the id-level adjacency, the oracle the engine must
/// match: nodes reachable from `start` within `max_depth` hops.
fn oracle(dag: &Dag, start: usize, upstream: bool, max_depth: usize) -> BTreeSet<usize> {
    let mut adj = vec![Vec::new(); dag.nodes];
    for (c, ps) in dag.edges.iter().enumerate() {
        for &p in ps {
            if upstream {
                adj[c].push(p);
            } else {
                adj[p].push(c);
            }
        }
    }
    let mut seen = BTreeSet::new();
    let mut frontier = VecDeque::from([(start, 0usize)]);
    let mut visited = vec![false; dag.nodes];
    visited[start] = true;
    while let Some((n, depth)) = frontier.pop_front() {
        if depth == max_depth {
            continue;
        }
        for &m in &adj[n] {
            if !visited[m] {
                visited[m] = true;
                seen.insert(m);
                frontier.push_back((m, depth + 1));
            }
        }
    }
    seen
}

fn node_of(id: &Id) -> usize {
    match id {
        Id::Str(s) => s.strip_prefix('d').unwrap().parse().unwrap(),
        Id::Num(n) => *n as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine closure == BFS oracle, both directions, several depths,
    /// regardless of ingest order (forward references included).
    #[test]
    fn closure_matches_bfs_oracle(dag in arb_dag(), start_seed: u64, depth in 0usize..6) {
        let store = ingest(&dag);
        let q = Query::new(&store);
        let start = (start_seed as usize) % dag.nodes;
        let start_id = Id::from(format!("d{start}"));
        for (dir, upstream) in [
            (LineageDirection::Upstream, true),
            (LineageDirection::Downstream, false),
        ] {
            for max_depth in [depth, usize::MAX] {
                let got = q.lineage(&Id::Num(1), &start_id, dir, max_depth).unwrap();
                // No duplicates.
                let got_set: BTreeSet<usize> = got.iter().map(node_of).collect();
                prop_assert_eq!(got.len(), got_set.len(), "duplicate hits");
                let want = oracle(&dag, start, upstream, max_depth);
                prop_assert_eq!(got_set, want, "dir {:?} depth {}", dir, max_depth);
            }
        }
    }

    /// Pagination is invisible: tiny pages and budgets produce the same
    /// result set as one big drain, and the cursor always terminates.
    #[test]
    fn pagination_is_invisible(dag in arb_dag(), start_seed: u64) {
        let store = ingest(&dag);
        let start = (start_seed as usize) % dag.nodes;
        let path = Path::from_data(format!("d{start}")).downstream(usize::MAX);
        let q = Query::new(&store);
        let all = q
            .lineage(&Id::Num(1), &Id::from(format!("d{start}")), LineageDirection::Downstream, usize::MAX)
            .unwrap();
        let opts = CursorOpts {
            page_size: 2,
            max_work: 3,
            snapshot: SnapshotMode::AtOpen,
        };
        let mut cursor = q.cursor(&Id::Num(1), &path, opts).unwrap();
        let mut paged = Vec::new();
        let mut calls = 0;
        loop {
            let page = cursor.next_page(&store);
            paged.extend(page.hits.into_iter().map(|h| h.id));
            if page.done {
                break;
            }
            calls += 1;
            prop_assert!(calls < 10_000, "paged cursor must terminate");
        }
        prop_assert_eq!(paged, all, "pagination changed the result");
        // Stats counters moved: work was metered and pages were counted.
        let stats = cursor.stats();
        prop_assert!(stats.steps_evaluated > 0);
        prop_assert_eq!(stats.pages, calls + 1, "one page per next_page call");
    }
}
