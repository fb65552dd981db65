//! The provenance data translator (paper Fig. 3, server side).
//!
//! The translator subscribes to the broker and converts decoded ProvLight
//! records into the data model of a downstream provenance system. "The
//! provenance data translator may be extended, by users, to translate to a
//! particular data model" — that extension point is the [`Translator`]
//! trait; this module ships the translators the paper discusses:
//!
//! * [`DfAnalyzerTranslator`] — feeds the DfAnalyzer-style store
//!   (`prov-store`), as in the paper's E2Clab integration (§V). An
//!   envelope's records are ingested under one write-lock acquisition, so
//!   a reader sees the envelope whole or not at all;
//! * [`ProvDocumentTranslator`] — accumulates a W3C PROV document (the
//!   PROV-DM interop path).

use prov_model::{mapping, ProvDocument, Record};
use prov_store::sharded::SharedShardedStore;

/// Converts decoded records into a downstream representation.
pub trait Translator {
    /// Handles one decoded message batch.
    ///
    /// The batch is passed by mutable reference and **must be left empty**
    /// on return (capacity preserved): the server's decode loop recycles
    /// one record buffer across every message — the decode-side mirror of
    /// the capture path's encode-into discipline.
    fn on_records(&mut self, records: &mut Vec<Record>);
}

/// Translates into the DfAnalyzer-style provenance store.
pub struct DfAnalyzerTranslator {
    store: SharedShardedStore,
}

impl DfAnalyzerTranslator {
    /// Creates a translator feeding `store`.
    pub fn new(store: SharedShardedStore) -> Self {
        DfAnalyzerTranslator { store }
    }
}

impl Translator for DfAnalyzerTranslator {
    fn on_records(&mut self, records: &mut Vec<Record>) {
        self.store.ingest_batch(records.drain(..));
    }
}

/// Accumulates a W3C PROV-DM document.
#[derive(Default)]
pub struct ProvDocumentTranslator {
    doc: ProvDocument,
}

impl ProvDocumentTranslator {
    /// Empty translator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated document.
    pub fn document(&self) -> &ProvDocument {
        &self.doc
    }
}

impl Translator for ProvDocumentTranslator {
    fn on_records(&mut self, records: &mut Vec<Record>) {
        for r in records.drain(..) {
            // Records from a well-formed client always map; ignore
            // inconsistent ones rather than poisoning the stream.
            let _ = mapping::apply_record(&mut self.doc, &r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::Id;

    fn records() -> Vec<Record> {
        vec![
            Record::WorkflowBegin {
                workflow: Id::Num(1),
                time_ns: 0,
            },
            Record::WorkflowEnd {
                workflow: Id::Num(1),
                time_ns: 9,
            },
        ]
    }

    #[test]
    fn dfanalyzer_translator_ingests() {
        let store = prov_store::shared_sharded();
        let mut t = DfAnalyzerTranslator::new(store.clone());
        let mut batch = records();
        t.on_records(&mut batch);
        assert!(batch.is_empty(), "translator must drain the batch");
        assert_eq!(store.stats().records, 2);
        let guard = store.read(&Id::Num(1));
        let wf = guard.workflow(&Id::Num(1)).unwrap();
        assert_eq!(wf.begin_ns, Some(0));
        assert_eq!(wf.end_ns, Some(9));
    }

    #[test]
    fn prov_translator_builds_document() {
        let mut t = ProvDocumentTranslator::new();
        t.on_records(&mut records());
        assert_eq!(t.document().element_count(), 1);
        t.document().validate().unwrap();
    }
}
