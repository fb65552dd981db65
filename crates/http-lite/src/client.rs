//! Blocking HTTP/1.1 client over real TCP.

use crate::message::{parse_response, Request, Response};
use crate::HttpError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client for one server endpoint.
///
/// With `keep_alive` the TCP connection persists across requests
/// (DfAnalyzer's behaviour in our baseline model); without it every request
/// opens a fresh connection (ProvLake's open-source client behaviour) —
/// the difference the paper's Table II/III overhead gap partly comes from.
pub struct HttpClient {
    addr: SocketAddr,
    host: String,
    keep_alive: bool,
    timeout: Duration,
    conn: Option<TcpStream>,
    /// Connections opened (observable cost of the no-keep-alive mode).
    pub connections_opened: u64,
}

impl HttpClient {
    /// Creates a client.
    pub fn new(addr: SocketAddr, keep_alive: bool) -> HttpClient {
        HttpClient {
            addr,
            host: addr.to_string(),
            keep_alive,
            timeout: Duration::from_secs(10),
            conn: None,
            connections_opened: 0,
        }
    }

    fn stream(&mut self) -> Result<&mut TcpStream, HttpError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.connections_opened += 1;
            self.conn = Some(stream);
        }
        Ok(self.conn.as_mut().expect("just set"))
    }

    /// Sends a POST and reads the response.
    pub fn post(
        &mut self,
        path: &str,
        content_type: &str,
        body: Vec<u8>,
    ) -> Result<Response, HttpError> {
        let mut req = Request::post(path, &self.host, content_type, body);
        if !self.keep_alive {
            req.headers.push(("Connection".into(), "close".into()));
        }
        let wire = req.encode();

        // One retry on a stale keep-alive connection.
        for attempt in 0..2 {
            let result = self.try_exchange(&wire);
            match result {
                Ok(resp) => {
                    if !self.keep_alive {
                        self.conn = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.conn = None;
                    if attempt == 1 || !self.keep_alive {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("loop returns");
    }

    fn try_exchange(&mut self, wire: &[u8]) -> Result<Response, HttpError> {
        let stream = self.stream()?;
        stream.write_all(wire)?;
        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((resp, _)) = parse_response(&buf)? {
                return Ok(resp);
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(HttpError::ConnectionClosed);
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HttpServer;
    use std::sync::Arc;

    #[test]
    fn post_roundtrip_and_keepalive_reuse() {
        let server = HttpServer::spawn(
            "127.0.0.1:0",
            Arc::new(|req: Request| {
                assert_eq!(req.method, "POST");
                Response::new(200, req.body)
            }),
        )
        .unwrap();
        let mut client = HttpClient::new(server.local_addr(), true);
        for i in 0..3 {
            let resp = client
                .post("/echo", "text/plain", format!("ping{i}").into_bytes())
                .unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("ping{i}").into_bytes());
        }
        assert_eq!(client.connections_opened, 1, "keep-alive should reuse");
        server.shutdown();
    }

    #[test]
    fn connection_per_request_reconnects() {
        let server = HttpServer::spawn(
            "127.0.0.1:0",
            Arc::new(|_req: Request| Response::new(204, Vec::new())),
        )
        .unwrap();
        let mut client = HttpClient::new(server.local_addr(), false);
        for _ in 0..3 {
            let resp = client
                .post("/ingest", "application/json", b"{}".to_vec())
                .unwrap();
            assert_eq!(resp.status, 204);
        }
        assert_eq!(client.connections_opened, 3);
        server.shutdown();
    }
}
