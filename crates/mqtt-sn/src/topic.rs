//! Topic names, ids, and subscription matching.

use std::collections::HashMap;

/// Returns true when `filter` (which may contain `+` / `#` wildcards)
/// matches the concrete topic `name`, using MQTT matching rules:
///
/// * levels are separated by `/`;
/// * `+` matches exactly one level;
/// * `#` matches any number of trailing levels (must be the last level).
pub fn topic_matches(filter: &str, name: &str) -> bool {
    let mut f = filter.split('/');
    let mut n = name.split('/');
    loop {
        match (f.next(), n.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => continue,
            (Some(fl), Some(nl)) if fl == nl => continue,
            (None, None) => return true,
            _ => return false,
        }
    }
}

/// Whether a filter string is syntactically valid (`#` only at the end and
/// alone in its level; `+` alone in its level).
pub fn filter_is_valid(filter: &str) -> bool {
    if filter.is_empty() {
        return false;
    }
    let levels: Vec<&str> = filter.split('/').collect();
    for (i, level) in levels.iter().enumerate() {
        if level.contains('#') && (*level != "#" || i != levels.len() - 1) {
            return false;
        }
        if level.contains('+') && *level != "+" {
            return false;
        }
    }
    true
}

/// Whether a concrete (publishable) topic name is valid: nonempty, no
/// wildcards.
pub fn name_is_valid(name: &str) -> bool {
    !name.is_empty() && !name.contains('+') && !name.contains('#')
}

/// Bidirectional topic-name ↔ topic-id registry (broker side).
///
/// Ids `0x0000` and `0xFFFF` are reserved by the spec; assignment starts at
/// 1. Predefined topics can be seeded with fixed ids.
#[derive(Clone, Debug, Default)]
pub struct TopicRegistry {
    by_name: HashMap<String, u16>,
    by_id: HashMap<u16, String>,
    next_id: u16,
}

impl TopicRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TopicRegistry {
            by_name: HashMap::new(),
            by_id: HashMap::new(),
            next_id: 1,
        }
    }

    /// Registers a name, returning its id (existing or newly assigned).
    /// Returns `None` when the name is invalid or the id space is full.
    pub fn register(&mut self, name: &str) -> Option<u16> {
        if !name_is_valid(name) {
            return None;
        }
        if let Some(&id) = self.by_name.get(name) {
            return Some(id);
        }
        // Find the next free id, skipping reserved values.
        let start = self.next_id;
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if self.next_id == 0 {
                self.next_id = 1;
            }
            if id != 0 && id != 0xFFFF && !self.by_id.contains_key(&id) {
                self.by_name.insert(name.to_owned(), id);
                self.by_id.insert(id, name.to_owned());
                return Some(id);
            }
            if self.next_id == start {
                return None; // id space exhausted
            }
        }
    }

    /// Seeds a predefined topic with a fixed id. Returns false on conflict.
    pub fn register_predefined(&mut self, id: u16, name: &str) -> bool {
        if id == 0 || id == 0xFFFF || !name_is_valid(name) {
            return false;
        }
        if self.by_id.contains_key(&id) || self.by_name.contains_key(name) {
            return false;
        }
        self.by_id.insert(id, name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        true
    }

    /// Id for a name.
    pub fn id_of(&self, name: &str) -> Option<u16> {
        self.by_name.get(name).copied()
    }

    /// Name for an id.
    pub fn name_of(&self, id: u16) -> Option<&str> {
        self.by_id.get(&id).map(String::as_str)
    }

    /// Number of registered topics.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `(id, name)` pairs in ascending id order (snapshot persistence).
    pub fn entries(&self) -> Vec<(u16, &str)> {
        let mut entries: Vec<(u16, &str)> = self
            .by_id
            .iter()
            .map(|(id, name)| (*id, name.as_str()))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }

    /// The next id the registry would hand out (snapshot persistence).
    pub fn next_id(&self) -> u16 {
        self.next_id
    }

    /// Rebuilds a registry from persisted [`TopicRegistry::entries`] and
    /// [`TopicRegistry::next_id`]. Later duplicates of an id or name win,
    /// matching `HashMap` insert semantics.
    pub fn from_entries<'a>(
        next_id: u16,
        entries: impl IntoIterator<Item = (u16, &'a str)>,
    ) -> TopicRegistry {
        let mut reg = TopicRegistry::new();
        for (id, name) in entries {
            reg.by_id.insert(id, name.to_owned());
            reg.by_name.insert(name.to_owned(), id);
        }
        reg.next_id = if next_id == 0 { 1 } else { next_id };
        reg
    }

    /// True when no topics are registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_wildcard_matching() {
        assert!(topic_matches("a/b/c", "a/b/c"));
        assert!(!topic_matches("a/b/c", "a/b"));
        assert!(!topic_matches("a/b", "a/b/c"));
        assert!(topic_matches("a/+/c", "a/b/c"));
        assert!(!topic_matches("a/+/c", "a/b/d"));
        assert!(topic_matches("a/#", "a/b/c/d"));
        assert!(topic_matches("a/#", "a"));
        assert!(topic_matches("#", "anything/at/all"));
        assert!(topic_matches("+/+", "a/b"));
        assert!(!topic_matches("+", "a/b"));
    }

    #[test]
    fn provlight_topic_scheme_matches() {
        // Fig. 5: each device publishes to its own topic; translators
        // subscribe per device or with a wildcard.
        assert!(topic_matches("provlight/wf1/+", "provlight/wf1/device42"));
        assert!(!topic_matches("provlight/wf1/+", "provlight/wf2/device42"));
        assert!(topic_matches("provlight/#", "provlight/wf2/device42"));
    }

    #[test]
    fn filter_validity() {
        assert!(filter_is_valid("a/b/c"));
        assert!(filter_is_valid("a/+/c"));
        assert!(filter_is_valid("a/#"));
        assert!(filter_is_valid("#"));
        assert!(!filter_is_valid(""));
        assert!(!filter_is_valid("a/#/c"));
        assert!(!filter_is_valid("a/b#"));
        assert!(!filter_is_valid("a/b+/c"));
    }

    #[test]
    fn name_validity() {
        assert!(name_is_valid("a/b/c"));
        assert!(!name_is_valid(""));
        assert!(!name_is_valid("a/+"));
        assert!(!name_is_valid("a/#"));
    }

    #[test]
    fn registry_assigns_stable_ids() {
        let mut reg = TopicRegistry::new();
        let a = reg.register("t/a").unwrap();
        let b = reg.register("t/b").unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.register("t/a"), Some(a));
        assert_eq!(reg.name_of(a), Some("t/a"));
        assert_eq!(reg.id_of("t/b"), Some(b));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_rejects_wildcards_and_reserved_predefined() {
        let mut reg = TopicRegistry::new();
        assert_eq!(reg.register("t/#"), None);
        assert!(!reg.register_predefined(0, "x"));
        assert!(!reg.register_predefined(0xFFFF, "x"));
        assert!(reg.register_predefined(500, "x"));
        assert!(!reg.register_predefined(500, "y"));
        assert_eq!(reg.name_of(500), Some("x"));
    }

    #[test]
    fn registry_skips_taken_predefined_ids() {
        let mut reg = TopicRegistry::new();
        assert!(reg.register_predefined(1, "pre"));
        let id = reg.register("dyn").unwrap();
        assert_ne!(id, 1);
    }
}
