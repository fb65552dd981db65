//! HTTP ingestion server for the baseline clients (the uWSGI + provenance
//! system role of Fig. 5).
//!
//! Accepts both client formats:
//!
//! * `/dfanalyzer/...` — compact JSON, one record or an array;
//! * `/provlake/...` — the verbose envelope with a compact sidecar.
//!
//! Everything lands in a [`SharedShardedStore`], so the same query layer serves
//! both baselines and ProvLight-captured provenance.

use http_lite::message::{Request, Response};
use http_lite::server::HttpServer;
use prov_codec::json::{parse, records_from_json, JsonValue};
use prov_store::sharded::{shared_sharded, SharedShardedStore};
use std::net::SocketAddr;
use std::sync::Arc;

/// A running ingestion server.
pub struct IngestionServer {
    http: HttpServer,
    store: SharedShardedStore,
}

impl IngestionServer {
    /// Binds and starts serving.
    pub fn start(bind: &str) -> std::io::Result<IngestionServer> {
        let store = shared_sharded();
        let handler_store = store.clone();
        let http = HttpServer::spawn(
            bind,
            Arc::new(move |req: Request| handle(&handler_store, req)),
        )?;
        Ok(IngestionServer { http, store })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The backing store.
    pub fn store(&self) -> &SharedShardedStore {
        &self.store
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.http.requests_served()
    }

    /// Stops the server.
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

fn handle(store: &SharedShardedStore, req: Request) -> Response {
    if req.method != "POST" {
        return Response::new(404, Vec::new());
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::new(400, b"non-utf8 body".to_vec());
    };

    let records = if req.path.starts_with("/provlake") {
        // Extract the compact sidecar from the envelope.
        match parse(body) {
            Ok(v) => match v.get("compact") {
                Some(compact @ JsonValue::Array(_)) => {
                    records_from_json(&compact.to_string_compact())
                }
                _ => return Response::new(400, b"missing compact payload".to_vec()),
            },
            Err(_) => return Response::new(400, b"bad json".to_vec()),
        }
    } else {
        records_from_json(body)
    };

    match records {
        Ok(records) => {
            store.ingest_batch(records);
            Response::new(204, Vec::new())
        }
        Err(e) => Response::new(400, e.to_string().into_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use http_lite::client::HttpClient;

    #[test]
    fn rejects_bad_payloads() {
        let server = IngestionServer::start("127.0.0.1:0").unwrap();
        let mut c = HttpClient::new(server.addr(), true);
        let resp = c
            .post(
                "/dfanalyzer/pde/task",
                "application/json",
                b"not json".to_vec(),
            )
            .unwrap();
        assert_eq!(resp.status, 400);
        let resp = c
            .post("/provlake/ingest", "application/json", b"{}".to_vec())
            .unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(server.store().stats().records, 0);
        server.shutdown();
    }

    #[test]
    fn accepts_record_arrays() {
        let server = IngestionServer::start("127.0.0.1:0").unwrap();
        let mut c = HttpClient::new(server.addr(), true);
        let body = r#"[{"kind":"workflow_begin","workflow":"1","time":0},
                       {"kind":"workflow_end","workflow":"1","time":5}]"#;
        let resp = c
            .post(
                "/dfanalyzer/batch",
                "application/json",
                body.as_bytes().to_vec(),
            )
            .unwrap();
        assert_eq!(resp.status, 204);
        assert_eq!(server.store().stats().records, 2);
        server.shutdown();
    }
}
