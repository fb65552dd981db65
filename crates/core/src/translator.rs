//! The provenance data translator (paper Fig. 3, server side).
//!
//! The translator subscribes to the broker and converts decoded ProvLight
//! records into the data model of a downstream provenance system. "The
//! provenance data translator may be extended, by users, to translate to a
//! particular data model" — that extension point is the [`Translator`]
//! trait; this module ships the translators the paper discusses:
//!
//! * [`DfAnalyzerTranslator`] — feeds the sharded DfAnalyzer-style store
//!   (`prov-store`), as in the paper's E2Clab integration (§V). Each
//!   translator owns a [`ShardRouter`], so an envelope's records are
//!   grouped by shard and ingested under one lock acquisition per touched
//!   shard — parallel translators on different workflows never contend;
//! * [`ProvDocumentTranslator`] — accumulates a W3C PROV document;
//! * [`JsonForwardTranslator`] — renders records as JSON lines for
//!   forwarding to any HTTP-ingesting system (the ProvLake-style path).

use prov_codec::json::{record_to_json, JsonStyle};
use prov_model::{mapping, ProvDocument, Record};
use prov_store::sharded::{ShardRouter, SharedShardedStore};

/// Converts decoded records into a downstream representation.
pub trait Translator: Send {
    /// Translator name for logs/reports.
    fn name(&self) -> &'static str;
    /// Handles one decoded message batch.
    ///
    /// The batch is passed by mutable reference and **must be left empty**
    /// on return (capacity preserved): the server's decode loop recycles
    /// one record buffer across every message — the decode-side mirror of
    /// the capture path's encode-into discipline.
    fn on_records(&mut self, records: &mut Vec<Record>);
    /// Messages handled so far.
    fn messages(&self) -> u64;
}

/// Translates into the sharded DfAnalyzer-style provenance store.
pub struct DfAnalyzerTranslator {
    store: SharedShardedStore,
    router: ShardRouter,
    messages: u64,
}

impl DfAnalyzerTranslator {
    /// Creates a translator feeding `store`.
    pub fn new(store: SharedShardedStore) -> Self {
        DfAnalyzerTranslator {
            store,
            router: ShardRouter::new(),
            messages: 0,
        }
    }
}

impl Translator for DfAnalyzerTranslator {
    fn name(&self) -> &'static str {
        "dfanalyzer"
    }

    fn on_records(&mut self, records: &mut Vec<Record>) {
        self.messages += 1;
        self.router.route(&self.store, records);
    }

    fn messages(&self) -> u64 {
        self.messages
    }
}

/// Accumulates a W3C PROV-DM document.
#[derive(Default)]
pub struct ProvDocumentTranslator {
    doc: ProvDocument,
    messages: u64,
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
    fn name(&self) -> &'static str {
        "prov-dm"
    }

    fn on_records(&mut self, records: &mut Vec<Record>) {
        self.messages += 1;
        for r in records.drain(..) {
            // Records from a well-formed client always map; ignore
            // inconsistent ones rather than poisoning the stream.
            let _ = mapping::apply_record(&mut self.doc, &r);
        }
    }

    fn messages(&self) -> u64 {
        self.messages
    }
}

/// Renders records as JSON lines (one per record) for forwarding.
pub struct JsonForwardTranslator {
    style: JsonStyle,
    lines: Vec<String>,
    messages: u64,
}

impl JsonForwardTranslator {
    /// Creates a JSON translator with the given style.
    pub fn new(style: JsonStyle) -> Self {
        JsonForwardTranslator {
            style,
            lines: Vec::new(),
            messages: 0,
        }
    }

    /// The rendered lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

impl Translator for JsonForwardTranslator {
    fn name(&self) -> &'static str {
        "json-forward"
    }

    fn on_records(&mut self, records: &mut Vec<Record>) {
        self.messages += 1;
        for r in records.drain(..) {
            self.lines
                .push(record_to_json(&r, self.style).to_string_compact());
        }
    }

    fn messages(&self) -> u64 {
        self.messages
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
        assert_eq!(t.messages(), 1);
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

    #[test]
    fn json_translator_renders_lines() {
        let mut t = JsonForwardTranslator::new(JsonStyle::Compact);
        t.on_records(&mut records());
        assert_eq!(t.lines().len(), 2);
        assert!(t.lines()[0].contains("workflow_begin"));
    }
}
