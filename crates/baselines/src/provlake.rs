//! ProvLake-style capture client (real HTTP mode).
//!
//! Mirrors the open-source ProvLake client the paper measured: verbose
//! PROV-JSON payloads POSTed over a **fresh TCP connection per request**,
//! with optional grouping of N captured messages into one request (the
//! Table III feature).

use http_lite::client::HttpClient;
use http_lite::HttpError;
use prov_codec::json::{records_to_json, JsonStyle};
use prov_model::Record;
use std::net::SocketAddr;

/// A ProvLake-style capture client.
pub struct ProvLakeClient {
    http: HttpClient,
    path: String,
    /// Messages per request; 0 sends each record immediately.
    group: usize,
    buffer: Vec<Record>,
    /// Requests performed.
    pub requests: u64,
}

impl ProvLakeClient {
    /// Creates a client for an ingestion endpoint.
    pub fn new(server: SocketAddr, group: usize) -> Self {
        ProvLakeClient {
            // The open-source client reconnects per request.
            http: HttpClient::new(server, false),
            path: "/provlake/ingest".into(),
            group,
            buffer: Vec::new(),
            requests: 0,
        }
    }

    /// Captures one record, transmitting according to the grouping policy.
    pub fn capture(&mut self, record: Record) -> Result<(), HttpError> {
        self.buffer.push(record);
        if self.buffer.len() > self.group.max(1) - 1 || self.group == 0 {
            self.transmit()?;
        }
        Ok(())
    }

    /// Flushes any buffered records.
    pub fn flush(&mut self) -> Result<(), HttpError> {
        if !self.buffer.is_empty() {
            self.transmit()?;
        }
        Ok(())
    }

    fn transmit(&mut self) -> Result<(), HttpError> {
        let batch = std::mem::take(&mut self.buffer);
        // ProvLake sends the verbose PROV-JSON form; the ingestion server
        // also receives a compact sidecar so it can reconstruct records
        // without a full JSON-LD interpreter (documented substitution).
        let body = records_to_json(&batch, JsonStyle::Verbose);
        let compact = records_to_json(&batch, JsonStyle::Compact);
        let payload = format!("{{\"prov\":{body},\"compact\":{compact}}}");
        self.requests += 1;
        let resp = self
            .http
            .post(&self.path, "application/ld+json", payload.into_bytes())?;
        if resp.status >= 300 {
            return Err(HttpError::Malformed("ingestion rejected"));
        }
        Ok(())
    }

    /// TCP connections opened so far (per-request without keep-alive).
    pub fn connections_opened(&self) -> u64 {
        self.http.connections_opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::IngestionServer;
    use prov_model::Id;

    fn record(i: u64) -> Record {
        Record::WorkflowBegin {
            workflow: Id::Num(i),
            time_ns: i,
        }
    }

    #[test]
    fn ungrouped_posts_per_record() {
        let server = IngestionServer::start("127.0.0.1:0").unwrap();
        let mut client = ProvLakeClient::new(server.addr(), 0);
        for i in 0..3 {
            client.capture(record(i)).unwrap();
        }
        client.flush().unwrap();
        assert_eq!(client.requests, 3);
        assert_eq!(client.connections_opened(), 3);
        assert_eq!(server.store().stats().records, 3);
        server.shutdown();
    }

    #[test]
    fn grouping_amortizes_requests() {
        let server = IngestionServer::start("127.0.0.1:0").unwrap();
        let mut client = ProvLakeClient::new(server.addr(), 4);
        for i in 0..10 {
            client.capture(record(i)).unwrap();
        }
        client.flush().unwrap();
        // 10 records in groups of 4 -> 2 full + 1 partial = 3 requests.
        assert_eq!(client.requests, 3);
        assert_eq!(server.store().stats().records, 10);
        server.shutdown();
    }
}
