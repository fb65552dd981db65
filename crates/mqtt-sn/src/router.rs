//! Shared routing state for the sharded gateway: client→shard placement,
//! the authoritative topic registry, and the epoch-invalidated
//! topic→shard-mask cache.
//!
//! All topic-id **assignment** flows through [`SharedRouter`] (control
//! plane: a write lock per *new* topic), so two shards can never hand out
//! conflicting ids; each shard's broker keeps a lazy local mirror (see
//! [`crate::topic::TopicRegistry::mirror`]). The per-publish hot path
//! never takes a global lock: [`SharedRouter::shard_mask`] is a shared
//! read of a `Copy` bitmask, rebuilt lazily only when a subscription or
//! registration epoch bump invalidated it.
//!
//! Lock discipline: the `router` lock is ranked ahead of the per-shard
//! broker locks (`[lock_order]` in `lints.toml`, mirrored by
//! `parking_lot::rank`). Shard serve loops resolve ids and prefetch
//! masks *before* taking their broker lock, so the two are never nested
//! in the wrong order — and the debug lock-rank tracker panics if a
//! future change tries.

use crate::topic::{topic_matches, TopicRegistry};
use parking_lot::RwLock;
use std::collections::HashMap;

/// 64-bit FNV-1a, the same cheap deterministic hash the store sharding
/// uses: stable across processes (restart-safe placement) and uniform
/// enough for client-id strings.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard that owns a client id. Hashing the *client id* (not the
/// transport address) means a durable session that migrates to a new
/// address on reconnect lands on the same shard, so the broker's
/// existing session-migration machinery keeps working unchanged.
pub fn shard_for_client(client_id: &str, shards: usize) -> usize {
    (fnv1a(client_id.as_bytes()) % shards.max(1) as u64) as usize
}

/// Everything behind the router lock.
#[derive(Debug)]
struct RouterTable {
    /// Authoritative topic registry; shard registries mirror it lazily.
    registry: TopicRegistry,
    /// Per-shard union of active subscription filters.
    filters: Vec<Vec<String>>,
    /// Bumped on any filter or registry mutation; stamps `masks`.
    epoch: u64,
    /// topic id → (epoch it was computed at, bitmask of shards whose
    /// filters match the topic).
    masks: HashMap<u16, (u64, u64)>,
}

impl RouterTable {
    fn compute_mask(&self, topic_id: u16) -> u64 {
        let Some(name) = self.registry.name_of(topic_id) else {
            return 0;
        };
        let mut mask = 0u64;
        for (shard, filters) in self.filters.iter().enumerate() {
            if filters.iter().any(|f| topic_matches(f, name)) {
                mask |= 1u64 << (shard as u32 % 64);
            }
        }
        mask
    }
}

/// Shared-read routing table for an N-shard gateway (at most 64 shards —
/// the mask is a `u64`).
#[derive(Debug)]
pub struct SharedRouter {
    router: RwLock<RouterTable>,
}

impl SharedRouter {
    /// Builds the table for `shards` shards (clamped to 1..=64).
    pub fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, 64);
        SharedRouter {
            router: RwLock::with_rank(
                parking_lot::rank::ROUTER,
                RouterTable {
                    registry: TopicRegistry::new(),
                    filters: vec![Vec::new(); shards],
                    epoch: 0,
                    masks: HashMap::new(),
                },
            ),
        }
    }

    /// Resolves `name` to its shared topic id, assigning one if needed
    /// (control plane: a write lock only on first sight of a name).
    /// `None` when the name is invalid or the id space is exhausted.
    pub fn resolve(&self, name: &str) -> Option<u16> {
        {
            let table = self.router.read();
            if let Some(id) = table.registry.id_of(name) {
                return Some(id);
            }
        }
        let mut table = self.router.write();
        if let Some(id) = table.registry.id_of(name) {
            return Some(id);
        }
        let id = table.registry.register(name)?;
        table.epoch = table.epoch.wrapping_add(1);
        Some(id)
    }

    /// Seeds a predefined topic with a fixed id (mirrors
    /// [`TopicRegistry::register_predefined`]). Returns false on
    /// conflict.
    pub fn register_predefined(&self, id: u16, name: &str) -> bool {
        let mut table = self.router.write();
        let ok = table.registry.register_predefined(id, name);
        if ok {
            table.epoch = table.epoch.wrapping_add(1);
        }
        ok
    }

    /// Owned name lookup, for mirroring an id into a shard registry
    /// (control plane; allocates).
    pub fn name_of(&self, id: u16) -> Option<String> {
        self.router.read().registry.name_of(id).map(str::to_owned)
    }

    /// Replaces one shard's subscription-filter union and invalidates
    /// every cached mask (control plane, called after a shard processed
    /// a route-changing packet).
    pub fn set_filters(&self, shard: usize, filters: &[String]) {
        let mut table = self.router.write();
        if shard >= table.filters.len() {
            return;
        }
        table.filters[shard].clear();
        table.filters[shard].extend(filters.iter().cloned());
        table.epoch = table.epoch.wrapping_add(1);
    }

    /// The bitmask of shards with at least one subscription matching
    /// `topic_id`. Hot path: a shared read lock and one hash lookup when
    /// the cached entry's epoch is current; a write-locked rebuild of
    /// just this topic's entry otherwise.
    pub fn shard_mask(&self, topic_id: u16) -> u64 {
        {
            let table = self.router.read();
            if let Some(&(epoch, mask)) = table.masks.get(&topic_id) {
                if epoch == table.epoch {
                    return mask;
                }
            }
        }
        let mut table = self.router.write();
        let mask = table.compute_mask(topic_id);
        let epoch = table.epoch;
        table.masks.insert(topic_id, (epoch, mask));
        mask
    }

    /// Registry snapshot for sharded persistence: `(next_id, entries)`.
    pub fn registry_snapshot(&self) -> (u16, Vec<(u16, String)>) {
        let table = self.router.read();
        let entries = table
            .registry
            .entries()
            .into_iter()
            .map(|(id, name)| (id, name.to_owned()))
            .collect();
        (table.registry.next_id(), entries)
    }

    /// Rebuilds the shared registry from persisted
    /// [`SharedRouter::registry_snapshot`] parts (restore path).
    pub fn seed_registry<'a>(
        &self,
        next_id: u16,
        entries: impl IntoIterator<Item = (u16, &'a str)>,
    ) {
        let mut table = self.router.write();
        table.registry = TopicRegistry::from_entries(next_id, entries);
        table.epoch = table.epoch.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_client_id_keyed() {
        for n in [1usize, 2, 4, 64] {
            for id in ["dev0", "dev1", "collector", ""] {
                let s = shard_for_client(id, n);
                assert!(s < n);
                assert_eq!(s, shard_for_client(id, n), "placement must be stable");
            }
        }
        // 32 stress-test client ids spread over 4 shards: no shard is
        // empty (a regression here would quietly serialize the bench).
        let mut seen = [false; 4];
        for i in 0..32 {
            seen[shard_for_client(&format!("dev{i}"), 4)] = true;
        }
        assert_eq!(seen, [true; 4], "fnv placement degenerated");
    }

    #[test]
    fn resolve_assigns_one_id_per_name_across_shards() {
        let router = SharedRouter::new(4);
        let a = router.resolve("t/a").unwrap();
        let b = router.resolve("t/b").unwrap();
        assert_ne!(a, b);
        // Every shard resolving the same name sees the same id.
        assert_eq!(router.resolve("t/a"), Some(a));
        assert_eq!(router.name_of(a).as_deref(), Some("t/a"));
        assert_eq!(router.resolve("t/#"), None, "wildcards are not topics");
    }

    #[test]
    fn masks_follow_filters_and_invalidate_on_change() {
        let router = SharedRouter::new(4);
        let tid = router.resolve("stress/dev3").unwrap();
        assert_eq!(router.shard_mask(tid), 0, "no subscriptions yet");
        router.set_filters(1, &["stress/#".to_owned()]);
        router.set_filters(3, &["stress/dev3".to_owned(), "other/+".to_owned()]);
        assert_eq!(router.shard_mask(tid), 0b1010);
        // Cached: a second read returns the same mask.
        assert_eq!(router.shard_mask(tid), 0b1010);
        // Unsubscribe on shard 3 invalidates the cached entry.
        router.set_filters(3, &[]);
        assert_eq!(router.shard_mask(tid), 0b0010);
        // A topic registered later matches existing wildcard filters.
        let t2 = router.resolve("stress/dev9").unwrap();
        assert_eq!(router.shard_mask(t2), 0b0010);
    }

    #[test]
    fn registry_snapshot_roundtrips_through_seed() {
        let router = SharedRouter::new(2);
        let a = router.resolve("t/a").unwrap();
        assert!(router.register_predefined(500, "pre/x"));
        let (next_id, entries) = router.registry_snapshot();
        let restored = SharedRouter::new(2);
        restored.seed_registry(next_id, entries.iter().map(|(id, n)| (*id, n.as_str())));
        assert_eq!(restored.resolve("t/a"), Some(a));
        assert_eq!(restored.name_of(500).as_deref(), Some("pre/x"));
        // next_id survived: a new name gets a fresh id, not a reuse.
        let b = restored.resolve("t/b").unwrap();
        assert_ne!(b, a);
        assert_ne!(b, 500);
    }
}
