//! DfAnalyzer-style capture client (real HTTP mode).
//!
//! Compact JSON rows POSTed over a persistent (keep-alive) connection —
//! one request per capture call, no grouping, matching the behaviour the
//! paper measured in Table II.

use http_lite::client::HttpClient;
use http_lite::HttpError;
use prov_codec::json::{record_to_json, JsonStyle};
use prov_model::Record;
use std::net::SocketAddr;

/// A DfAnalyzer-style capture client.
pub struct DfAnalyzerClient {
    http: HttpClient,
    path: String,
    /// Requests performed.
    pub requests: u64,
}

impl DfAnalyzerClient {
    /// Creates a client for an ingestion endpoint.
    pub fn new(server: SocketAddr) -> Self {
        DfAnalyzerClient {
            http: HttpClient::new(server, true),
            path: "/dfanalyzer/pde/task".into(),
            requests: 0,
        }
    }

    /// Captures one record (synchronous request/response).
    pub fn capture(&mut self, record: &Record) -> Result<(), HttpError> {
        let body = record_to_json(record, JsonStyle::Compact).to_string_compact();
        self.requests += 1;
        let resp = self
            .http
            .post(&self.path, "application/json", body.into_bytes())?;
        if resp.status >= 300 {
            return Err(HttpError::Malformed("ingestion rejected"));
        }
        Ok(())
    }

    /// TCP connections opened (1 with keep-alive).
    pub fn connections_opened(&self) -> u64 {
        self.http.connections_opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::IngestionServer;
    use prov_model::{DataRecord, Id, TaskRecord, TaskStatus};

    #[test]
    fn capture_reuses_one_connection() {
        let server = IngestionServer::start("127.0.0.1:0").unwrap();
        let mut client = DfAnalyzerClient::new(server.addr());
        for i in 0..5u64 {
            let rec = Record::TaskBegin {
                task: TaskRecord {
                    id: Id::Num(i),
                    workflow: Id::Num(1),
                    transformation: Id::Num(0),
                    dependencies: vec![],
                    time_ns: i,
                    status: TaskStatus::Running,
                },
                inputs: vec![DataRecord::new(format!("in{i}"), 1u64).with_attr("x", i as i64)],
            };
            client.capture(&rec).unwrap();
        }
        assert_eq!(client.requests, 5);
        assert_eq!(client.connections_opened(), 1);
        assert_eq!(server.store().stats().records, 5);
        assert_eq!(server.store().stats().tasks, 5);
        server.shutdown();
    }
}
