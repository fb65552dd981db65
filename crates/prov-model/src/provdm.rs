//! Core of the W3C PROV data model (PROV-DM).
//!
//! Implements the three core element types and the core relations shown in
//! the paper's Fig. 1, a validated document graph, and a PROV-N text
//! serializer. Downstream provenance systems in this workspace (the
//! `prov-store` crate's DfAnalyzer-style store) export into this
//! representation for interoperability, mirroring the paper's §IV-A claim.

use crate::ids::Id;
use crate::value::AttrValue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The three core PROV-DM element kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementKind {
    /// Data objects (files, parameters, model weights...).
    Entity,
    /// Tasks / processing steps.
    Activity,
    /// Tools or software acting on behalf of users.
    Agent,
}

impl fmt::Display for ElementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementKind::Entity => f.write_str("entity"),
            ElementKind::Activity => f.write_str("activity"),
            ElementKind::Agent => f.write_str("agent"),
        }
    }
}

/// The seven core PROV-DM relations (paper Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelationKind {
    /// Activity used Entity.
    Used,
    /// Entity wasGeneratedBy Activity.
    WasGeneratedBy,
    /// Activity wasAssociatedWith Agent.
    WasAssociatedWith,
    /// Entity wasAttributedTo Agent.
    WasAttributedTo,
    /// Activity wasInformedBy Activity.
    WasInformedBy,
    /// Entity wasDerivedFrom Entity.
    WasDerivedFrom,
    /// Agent actedOnBehalfOf Agent.
    ActedOnBehalfOf,
}

impl RelationKind {
    /// `(subject kind, object kind)` this relation requires.
    pub fn signature(self) -> (ElementKind, ElementKind) {
        use ElementKind::*;
        match self {
            RelationKind::Used => (Activity, Entity),
            RelationKind::WasGeneratedBy => (Entity, Activity),
            RelationKind::WasAssociatedWith => (Activity, Agent),
            RelationKind::WasAttributedTo => (Entity, Agent),
            RelationKind::WasInformedBy => (Activity, Activity),
            RelationKind::WasDerivedFrom => (Entity, Entity),
            RelationKind::ActedOnBehalfOf => (Agent, Agent),
        }
    }

    /// PROV-N keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            RelationKind::Used => "used",
            RelationKind::WasGeneratedBy => "wasGeneratedBy",
            RelationKind::WasAssociatedWith => "wasAssociatedWith",
            RelationKind::WasAttributedTo => "wasAttributedTo",
            RelationKind::WasInformedBy => "wasInformedBy",
            RelationKind::WasDerivedFrom => "wasDerivedFrom",
            RelationKind::ActedOnBehalfOf => "actedOnBehalfOf",
        }
    }
}

/// A PROV-DM element (node in the provenance graph).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Element {
    /// Element identifier (unique within a document).
    pub id: Id,
    /// Element kind.
    pub kind: ElementKind,
    /// Optional attributes (`prov:label` etc. plus domain attributes).
    pub attributes: Vec<(String, AttrValue)>,
}

/// A PROV-DM relation (edge in the provenance graph).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Relation {
    /// Relation kind.
    pub kind: RelationKind,
    /// Subject element id.
    pub subject: Id,
    /// Object element id.
    pub object: Id,
}

/// Errors from document validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvError {
    /// An element id was declared twice with different kinds.
    DuplicateElement(Id),
    /// A relation references an undeclared element.
    UnknownElement(Id),
    /// A relation's endpoints have the wrong kinds.
    BadSignature {
        /// Offending relation kind.
        kind: RelationKind,
        /// Kind found at the subject position.
        subject: ElementKind,
        /// Kind found at the object position.
        object: ElementKind,
    },
}

impl fmt::Display for ProvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvError::DuplicateElement(id) => {
                write!(f, "element {id} declared twice with different kinds")
            }
            ProvError::UnknownElement(id) => write!(f, "relation references unknown element {id}"),
            ProvError::BadSignature {
                kind,
                subject,
                object,
            } => write!(
                f,
                "relation {} requires {:?} -> {:?}, found {subject:?} -> {object:?}",
                kind.keyword(),
                kind.signature().0,
                kind.signature().1
            ),
        }
    }
}

impl std::error::Error for ProvError {}

/// A PROV document: a set of elements plus relations between them.
///
/// Elements are kept in a `BTreeMap` so serialization order (and therefore
/// PROV-N output) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProvDocument {
    elements: BTreeMap<Id, Element>,
    relations: Vec<Relation>,
}

impl ProvDocument {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an element. Re-declaring an id with the *same* kind merges
    /// attributes; with a different kind it returns an error.
    pub fn declare(
        &mut self,
        id: impl Into<Id>,
        kind: ElementKind,
        attributes: Vec<(String, AttrValue)>,
    ) -> Result<(), ProvError> {
        let id = id.into();
        if let Some(existing) = self.elements.get_mut(&id) {
            if existing.kind != kind {
                return Err(ProvError::DuplicateElement(id));
            }
            existing.attributes.extend(attributes);
            return Ok(());
        }
        self.elements.insert(
            id.clone(),
            Element {
                id,
                kind,
                attributes,
            },
        );
        Ok(())
    }

    /// Adds a relation after validating endpoint kinds.
    pub fn relate(
        &mut self,
        kind: RelationKind,
        subject: impl Into<Id>,
        object: impl Into<Id>,
    ) -> Result<(), ProvError> {
        let subject = subject.into();
        let object = object.into();
        let (want_s, want_o) = kind.signature();
        let ks = self
            .elements
            .get(&subject)
            .ok_or_else(|| ProvError::UnknownElement(subject.clone()))?
            .kind;
        let ko = self
            .elements
            .get(&object)
            .ok_or_else(|| ProvError::UnknownElement(object.clone()))?
            .kind;
        if ks != want_s || ko != want_o {
            return Err(ProvError::BadSignature {
                kind,
                subject: ks,
                object: ko,
            });
        }
        self.relations.push(Relation {
            kind,
            subject,
            object,
        });
        Ok(())
    }

    /// Looks up an element.
    pub fn element(&self, id: &Id) -> Option<&Element> {
        self.elements.get(id)
    }

    /// Iterates all elements (deterministic order).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.elements.values()
    }

    /// Iterates all relations in insertion order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Full validation pass (useful after deserializing).
    pub fn validate(&self) -> Result<(), ProvError> {
        for r in &self.relations {
            let (want_s, want_o) = r.kind.signature();
            let ks = self
                .elements
                .get(&r.subject)
                .ok_or_else(|| ProvError::UnknownElement(r.subject.clone()))?
                .kind;
            let ko = self
                .elements
                .get(&r.object)
                .ok_or_else(|| ProvError::UnknownElement(r.object.clone()))?
                .kind;
            if ks != want_s || ko != want_o {
                return Err(ProvError::BadSignature {
                    kind: r.kind,
                    subject: ks,
                    object: ko,
                });
            }
        }
        Ok(())
    }

    /// Serializes the document as PROV-N text.
    pub fn to_prov_n(&self) -> String {
        let mut out = String::with_capacity(64 * (self.elements.len() + self.relations.len()));
        out.push_str("document\n");
        for el in self.elements.values() {
            out.push_str("  ");
            out.push_str(match el.kind {
                ElementKind::Entity => "entity",
                ElementKind::Activity => "activity",
                ElementKind::Agent => "agent",
            });
            out.push('(');
            prov_n_id(&mut out, &el.id);
            if !el.attributes.is_empty() {
                out.push_str(", [");
                for (i, (k, v)) in el.attributes.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(k);
                    out.push('=');
                    out.push_str(&format!("{v}"));
                }
                out.push(']');
            }
            out.push_str(")\n");
        }
        for r in &self.relations {
            out.push_str("  ");
            out.push_str(r.kind.keyword());
            out.push('(');
            prov_n_id(&mut out, &r.subject);
            out.push_str(", ");
            prov_n_id(&mut out, &r.object);
            out.push_str(")\n");
        }
        out.push_str("endDocument\n");
        out
    }
}

fn prov_n_id(out: &mut String, id: &Id) {
    match id {
        Id::Num(n) => {
            out.push_str("ex:n");
            out.push_str(&n.to_string());
        }
        Id::Str(s) => {
            out.push_str("ex:");
            out.push_str(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> ProvDocument {
        let mut d = ProvDocument::new();
        d.declare("wf", ElementKind::Agent, vec![]).unwrap();
        d.declare("t1", ElementKind::Activity, vec![]).unwrap();
        d.declare("d1", ElementKind::Entity, vec![]).unwrap();
        d
    }

    #[test]
    fn valid_relations_accepted() {
        let mut d = doc();
        d.relate(RelationKind::Used, "t1", "d1").unwrap();
        d.relate(RelationKind::WasGeneratedBy, "d1", "t1").unwrap();
        d.relate(RelationKind::WasAssociatedWith, "t1", "wf")
            .unwrap();
        d.relate(RelationKind::WasAttributedTo, "d1", "wf").unwrap();
        assert_eq!(d.relations().len(), 4);
        d.validate().unwrap();
    }

    #[test]
    fn bad_signature_rejected() {
        let mut d = doc();
        let err = d.relate(RelationKind::Used, "d1", "t1").unwrap_err();
        assert!(matches!(err, ProvError::BadSignature { .. }));
    }

    #[test]
    fn unknown_element_rejected() {
        let mut d = doc();
        let err = d.relate(RelationKind::Used, "t1", "nope").unwrap_err();
        assert_eq!(err, ProvError::UnknownElement(Id::from("nope")));
    }

    #[test]
    fn redeclare_same_kind_merges_attributes() {
        let mut d = doc();
        d.declare(
            "d1",
            ElementKind::Entity,
            vec![("a".into(), AttrValue::Int(1))],
        )
        .unwrap();
        assert_eq!(d.element(&Id::from("d1")).unwrap().attributes.len(), 1);
    }

    #[test]
    fn redeclare_different_kind_fails() {
        let mut d = doc();
        let err = d.declare("d1", ElementKind::Agent, vec![]).unwrap_err();
        assert_eq!(err, ProvError::DuplicateElement(Id::from("d1")));
    }

    #[test]
    fn all_signatures_cover_each_kind_pair_once() {
        use RelationKind::*;
        // Sanity: every relation kind has a well-defined signature and a
        // distinct keyword.
        let kinds = [
            Used,
            WasGeneratedBy,
            WasAssociatedWith,
            WasAttributedTo,
            WasInformedBy,
            WasDerivedFrom,
            ActedOnBehalfOf,
        ];
        let mut keywords: Vec<&str> = kinds.iter().map(|k| k.keyword()).collect();
        keywords.sort_unstable();
        keywords.dedup();
        assert_eq!(keywords.len(), kinds.len());
    }

    #[test]
    fn prov_n_output_is_deterministic_and_complete() {
        let mut d = doc();
        d.relate(RelationKind::Used, "t1", "d1").unwrap();
        let text = d.to_prov_n();
        assert!(text.starts_with("document\n"));
        assert!(text.ends_with("endDocument\n"));
        assert!(text.contains("agent(ex:wf)"));
        assert!(text.contains("activity(ex:t1)"));
        assert!(text.contains("entity(ex:d1)"));
        assert!(text.contains("used(ex:t1, ex:d1)"));
        assert_eq!(text, d.to_prov_n());
    }
}
