//! A small blocking HTTP client.
//!
//! Used by the experiment harnesses (driving the platform the way a
//! browser would) and by federation (provider-to-provider sync). Supports
//! one-shot requests and persistent keep-alive connections.

use crate::http::{buf_reader, HttpError, Limits, Method, Request, Response};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client configuration + convenience methods.
#[derive(Clone, Debug)]
pub struct HttpClient {
    limits: Limits,
    timeout: Duration,
    /// Extra attempts after a transient failure (0 = fail fast).
    retries: u32,
    /// Base backoff between attempts; doubles per attempt, capped at 256×.
    backoff: Duration,
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient::new()
    }
}

impl HttpClient {
    /// A client with default limits, a 10-second timeout and no retries.
    pub fn new() -> HttpClient {
        HttpClient {
            limits: Limits::default(),
            timeout: Duration::from_secs(10),
            retries: 0,
            backoff: Duration::from_millis(5),
        }
    }

    /// Override the IO timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> HttpClient {
        self.timeout = timeout;
        self
    }

    /// Retry transient failures (connection drops, truncated responses) up
    /// to `retries` extra times, sleeping `backoff × 2^attempt` between
    /// attempts. Only [`HttpError::is_transient`] failures are retried —
    /// and only for requests safe to replay (the one-shot helpers build
    /// the request fresh each attempt).
    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> HttpClient {
        self.retries = retries;
        self.backoff = backoff;
        self
    }

    /// Open a persistent connection.
    pub fn connect(&self, addr: SocketAddr) -> Result<Connection, HttpError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true).ok();
        let write_half = stream.try_clone()?;
        Ok(Connection {
            reader: buf_reader(stream),
            writer: write_half,
            limits: self.limits,
        })
    }

    /// One-shot GET.
    pub fn get(&self, addr: SocketAddr, path: &str) -> Result<Response, HttpError> {
        self.request(addr, &build(Method::Get, path, None, Bytes::new(), &[]))
    }

    /// One-shot GET with extra headers (e.g. a session cookie).
    pub fn get_with_headers(
        &self,
        addr: SocketAddr,
        path: &str,
        headers: &[(&str, &str)],
    ) -> Result<Response, HttpError> {
        self.request(addr, &build(Method::Get, path, None, Bytes::new(), headers))
    }

    /// One-shot POST.
    pub fn post(
        &self,
        addr: SocketAddr,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<Response, HttpError> {
        self.request(
            addr,
            &build(
                Method::Post,
                path,
                Some(content_type),
                Bytes::copy_from_slice(body),
                &[],
            ),
        )
    }

    /// One-shot POST with extra headers.
    pub fn post_with_headers(
        &self,
        addr: SocketAddr,
        path: &str,
        content_type: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> Result<Response, HttpError> {
        self.request(
            addr,
            &build(
                Method::Post,
                path,
                Some(content_type),
                Bytes::copy_from_slice(body),
                headers,
            ),
        )
    }

    /// Send an arbitrary request on a fresh connection, retrying transient
    /// failures per [`HttpClient::with_retries`].
    pub fn request(&self, addr: SocketAddr, request: &Request) -> Result<Response, HttpError> {
        let mut attempt: u32 = 0;
        loop {
            match self.try_request(addr, request) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_transient() && attempt < self.retries => {
                    let delay = self.backoff.saturating_mul(1u32 << attempt.min(8));
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt: connect, send, read. Chaos sites model a connection
    /// dropped before the request leaves and a response body truncated by
    /// a mid-read drop.
    fn try_request(&self, addr: SocketAddr, request: &Request) -> Result<Response, HttpError> {
        if w5_chaos::inject(w5_chaos::Site::NetConnect).is_some() {
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected connection drop",
            )));
        }
        let mut conn = self.connect(addr)?;
        let resp = conn.request(request)?;
        if w5_chaos::inject(w5_chaos::Site::NetBody).is_some() {
            return Err(HttpError::UnexpectedEof);
        }
        Ok(resp)
    }
}

fn build(
    method: Method,
    path_and_query: &str,
    content_type: Option<&str>,
    body: Bytes,
    headers: &[(&str, &str)],
) -> Request {
    let (path, query_raw) = match path_and_query.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (path_and_query.to_string(), String::new()),
    };
    let mut hs = BTreeMap::new();
    if let Some(ct) = content_type {
        hs.insert("content-type".to_string(), ct.to_string());
    }
    for (k, v) in headers {
        hs.insert(k.to_ascii_lowercase(), v.to_string());
    }
    Request { method, path, query_raw, headers: hs, body }
}

/// A persistent keep-alive connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    limits: Limits,
}

impl Connection {
    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, HttpError> {
        request.write_to(&mut self.writer)?;
        Response::read_from(&mut self.reader, &self.limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_splits_query() {
        let r = build(Method::Get, "/a/b?x=1&y=2", None, Bytes::new(), &[]);
        assert_eq!(r.path, "/a/b");
        assert_eq!(r.query_raw, "x=1&y=2");
    }

    #[test]
    fn build_sets_headers() {
        let r = build(
            Method::Post,
            "/p",
            Some("application/json"),
            Bytes::from_static(b"{}"),
            &[("Cookie", "sid=1")],
        );
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert_eq!(r.header("cookie"), Some("sid=1"));
    }

    #[test]
    fn connect_refused_is_io_error() {
        // Port 1 on localhost is essentially never listening.
        let c = HttpClient::new().with_timeout(Duration::from_millis(200));
        let err = c.get("127.0.0.1:1".parse().unwrap(), "/").unwrap_err();
        assert!(matches!(err, HttpError::Io(_)));
    }

    #[test]
    fn injected_drop_is_retried_to_success() {
        use crate::server::{Server, ServerConfig};
        use crate::http::Response;
        use std::sync::Arc;

        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|_req: crate::http::Request, _| Response::text("pong".to_string())),
        )
        .unwrap();

        // Find a seed whose first connect-roll fires and second does not:
        // attempt 1 drops, the retry succeeds.
        let seed = (0..1000)
            .find(|&s| {
                let inj = w5_chaos::Injector::new(
                    w5_chaos::FaultPlan::new(s).with(w5_chaos::Site::NetConnect, 0.5),
                );
                inj.roll(w5_chaos::Site::NetConnect).is_some()
                    && inj.roll(w5_chaos::Site::NetConnect).is_none()
            })
            .expect("some seed fails then succeeds");
        let inj = w5_chaos::Injector::new(
            w5_chaos::FaultPlan::new(seed).with(w5_chaos::Site::NetConnect, 0.5),
        );
        let _guard = w5_chaos::with_injector(Arc::clone(&inj));
        let c = HttpClient::new().with_retries(2, Duration::from_millis(0));
        let resp = c.get(h.addr(), "/ping").unwrap();
        assert_eq!(resp.body_string(), "pong");
        let report = inj.report();
        assert_eq!(report.injected[&w5_chaos::Site::NetConnect], 1, "one drop, one retry");
        drop(_guard);
        h.shutdown();
    }

    #[test]
    fn request_on_a_connection_the_server_closed_is_transient() {
        // A peer that reads one request and hangs up without replying, as
        // a server does when it retires a keep-alive connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            Request::read_from(&mut BufReader::new(stream), &Limits::default()).unwrap();
        });
        let mut conn = HttpClient::new().connect(addr).unwrap();
        let err = conn.request(&Request::get("/a")).unwrap_err();
        peer.join().unwrap();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err:?}");
        assert!(err.is_transient());
    }

    #[test]
    fn truncated_body_without_retries_fails_fast() {
        use crate::server::{Server, ServerConfig};
        use crate::http::Response;
        use std::sync::Arc;

        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|_req: crate::http::Request, _| Response::text("pong".to_string())),
        )
        .unwrap();
        let inj = w5_chaos::Injector::new(
            w5_chaos::FaultPlan::new(1).with(w5_chaos::Site::NetBody, 1.0),
        );
        let _guard = w5_chaos::with_injector(Arc::clone(&inj));
        let c = HttpClient::new();
        let err = c.get(h.addr(), "/ping").unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err:?}");
        assert!(err.is_transient());
        drop(_guard);
        h.shutdown();
    }
}
