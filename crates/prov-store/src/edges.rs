//! A data row's graph edges, in one block.
//!
//! A data row has three sets of edges — the rows it derives from, the rows
//! derived from it, the tasks that used it — and at most one task that
//! generated it. Nearly every row holds at most two members in each set,
//! so [`Edges`] keeps two row numbers per relation inline, with a length
//! byte each, and the generator as a row number with
//! [`EMPTY`](crate::index::EMPTY) for none: 40 bytes, where three
//! [`SmallSet`]s and an `Option` took 56. The first relation that
//! outgrows its two slots moves all three into one `Box` of
//! [`SmallSet`]s, which keeps their order, their dedup and the hub guard
//! of a set with thousands of members.

use crate::index::EMPTY;
use crate::smallset::SmallSet;
use crate::store::TaskIdx;
use std::fmt;

/// One of a data row's edge sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Relation {
    /// Rows this row derives from (`wasDerivedFrom`, resolved).
    DerivedFrom,
    /// Rows that derive from this row.
    DerivedInto,
    /// Tasks that used this row.
    UsedBy,
}

/// The three relations, in the order `Edges` keeps them.
const RELATIONS: [Relation; 3] = [
    Relation::DerivedFrom,
    Relation::DerivedInto,
    Relation::UsedBy,
];

/// The edges of a data row; see the [module docs](self).
#[derive(Clone)]
pub(crate) struct Edges {
    /// Two slots per [`Relation`], read while `many` is none.
    inline: [[u32; 2]; 3],
    /// The generating task, or [`EMPTY`].
    generated_by: TaskIdx,
    /// How many of each relation's slots hold a member.
    lens: [u8; 3],
    /// All three relations, once one outgrew its slots.
    many: Option<Box<[SmallSet<u32>; 3]>>,
}

impl Default for Edges {
    fn default() -> Self {
        Edges {
            inline: [[0; 2]; 3],
            generated_by: EMPTY,
            lens: [0; 3],
            many: None,
        }
    }
}

impl Edges {
    /// The members of `relation`, in insertion order.
    pub(crate) fn get(&self, relation: Relation) -> &[u32] {
        let r = relation as usize;
        match &self.many {
            Some(many) => &many[r],
            None => &self.inline[r][..self.lens[r] as usize],
        }
    }

    /// Adds `member` to `relation`; returns `true` if it was new.
    pub(crate) fn insert(&mut self, relation: Relation, member: u32) -> bool {
        let r = relation as usize;
        if let Some(many) = &mut self.many {
            return many[r].insert(member);
        }
        let len = self.lens[r] as usize;
        if self.inline[r][..len].contains(&member) {
            return false;
        }
        if len < 2 {
            self.inline[r][len] = member;
            self.lens[r] += 1;
            return true;
        }
        let mut many: [SmallSet<u32>; 3] = std::array::from_fn(|r| {
            let held = &self.inline[r][..self.lens[r] as usize];
            held.iter().copied().collect()
        });
        many[r].insert(member);
        self.many = Some(Box::new(many));
        true
    }

    /// The task that generated the row, if known.
    pub(crate) fn generated_by(&self) -> Option<TaskIdx> {
        (self.generated_by != EMPTY).then_some(self.generated_by)
    }

    /// Records `task` as the generator unless one is recorded: the first
    /// end delivered wins, and an end delivered again changes nothing.
    pub(crate) fn generated(&mut self, task: TaskIdx) {
        debug_assert_ne!(task, EMPTY, "a row number of its own");
        if self.generated_by == EMPTY {
            self.generated_by = task;
        }
    }
}

/// Equal when they hold the same members in the same order.
impl PartialEq for Edges {
    fn eq(&self, other: &Self) -> bool {
        self.generated_by == other.generated_by
            && RELATIONS.iter().all(|&r| self.get(r) == other.get(r))
    }
}

impl fmt::Debug for Edges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Edges")
            .field("derived_from", &self.get(Relation::DerivedFrom))
            .field("derived_into", &self.get(Relation::DerivedInto))
            .field("used_by", &self.get(Relation::UsedBy))
            .field("generated_by", &self.generated_by())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn edges_are_forty_bytes_and_allocate_nothing_until_a_third_member() {
        assert_eq!(std::mem::size_of::<Edges>(), 40);
        let mut edges = Edges::default();
        for (r, relation) in RELATIONS.into_iter().enumerate() {
            assert!(edges.insert(relation, r as u32));
            assert!(edges.insert(relation, 7));
            assert!(!edges.insert(relation, 7));
        }
        assert!(edges.many.is_none());
        assert!(edges.insert(Relation::UsedBy, 9));
        assert!(edges.many.is_some());
        assert_eq!(edges.get(Relation::DerivedFrom), [0, 7]);
        assert_eq!(edges.get(Relation::UsedBy), [2, 7, 9]);
    }

    /// An edge operation: insert into one of the three relations, or name
    /// a generator.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32)>> {
        proptest::collection::vec((0u8..5, 0u32..12), 0..64)
    }

    proptest! {
        /// `Edges` answers as three `Vec` sets and an `Option` of the first
        /// generator do, after every step, through the spill into the box
        /// and past the sets' own spill.
        #[test]
        fn prop_edges_match_three_vec_sets_and_an_option(ops in arb_ops()) {
            let mut edges = Edges::default();
            let mut sets: [Vec<u32>; 3] = Default::default();
            let mut generator: Option<u32> = None;
            for (op, value) in ops {
                match op {
                    0..=2 => {
                        let set = &mut sets[op as usize];
                        let new = !set.contains(&value);
                        if new {
                            set.push(value);
                        }
                        prop_assert_eq!(edges.insert(RELATIONS[op as usize], value), new);
                    }
                    3 => {
                        edges.generated(value);
                        generator.get_or_insert(value);
                    }
                    _ => {
                        let copy = edges.clone();
                        prop_assert_eq!(&copy, &edges);
                        edges = copy;
                    }
                }
                for (relation, set) in RELATIONS.into_iter().zip(&sets) {
                    prop_assert_eq!(edges.get(relation), set.as_slice());
                }
                prop_assert_eq!(edges.generated_by(), generator);
                prop_assert_eq!(edges.many.is_some(), sets.iter().any(|set| set.len() > 2));
            }
        }
    }
}
