//! HTTP/1.1 message types and wire parsing.
//!
//! The parser enforces hard limits on everything the peer controls:
//! request-line length, header count and size, and body size. Exceeding a
//! limit is an error, never an unbounded allocation.

use crate::encoding::{parse_query, percent_decode};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Parse / IO errors for HTTP messages.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header or chunk framing.
    Malformed(&'static str),
    /// A configured limit was exceeded.
    TooLarge(&'static str),
    /// The method is not one we implement.
    UnsupportedMethod(String),
    /// Underlying IO failed.
    Io(std::io::Error),
    /// Peer closed before a full message arrived.
    UnexpectedEof,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(w) => write!(f, "malformed HTTP message: {w}"),
            HttpError::TooLarge(w) => write!(f, "message exceeds limit: {w}"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method: {m}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
        }
    }
}

impl HttpError {
    /// Failures worth retrying: the connection dropped, timed out, or the
    /// peer vanished mid-message — the request may simply be re-sent.
    /// Protocol violations (malformed framing, oversized messages) are
    /// permanent and must not be retried.
    pub fn is_transient(&self) -> bool {
        matches!(self, HttpError::Io(_) | HttpError::UnexpectedEof)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Request methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
    Head,
    Options,
}

impl Method {
    /// Parse from the request line token.
    pub fn parse(s: &str) -> Result<Method, HttpError> {
        Ok(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            "OPTIONS" => Method::Options,
            other => return Err(HttpError::UnsupportedMethod(other.to_string())),
        })
    }

    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Response status codes used by the platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    pub const OK: Status = Status(200);
    pub const CREATED: Status = Status(201);
    pub const NO_CONTENT: Status = Status(204);
    pub const SEE_OTHER: Status = Status(303);
    pub const BAD_REQUEST: Status = Status(400);
    pub const UNAUTHORIZED: Status = Status(401);
    pub const FORBIDDEN: Status = Status(403);
    pub const NOT_FOUND: Status = Status(404);
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    pub const INTERNAL_ERROR: Status = Status(500);
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            303 => "See Other",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// 2xx?
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// Parser limits. The defaults are generous for the platform's workloads
/// and small enough to shrug off hostile input.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum request-line / header-line bytes.
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum body bytes (fixed or chunked).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_line: 8 * 1024, max_headers: 100, max_body: 8 << 20 }
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Decoded path, e.g. `/app/photo/view`.
    pub path: String,
    /// Raw query string (undecoded), without the `?`.
    pub query_raw: String,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// The body.
    pub body: Bytes,
}

impl Request {
    /// A GET request skeleton (tests / client).
    pub fn get(path: &str) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            query_raw: String::new(),
            headers: BTreeMap::new(),
            body: Bytes::new(),
        }
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Decoded query parameters.
    pub fn query(&self) -> Vec<(String, String)> {
        parse_query(&self.query_raw)
    }

    /// First query parameter with the given key.
    pub fn query_param(&self, key: &str) -> Option<String> {
        self.query().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parse the body as a `application/x-www-form-urlencoded` form.
    pub fn form(&self) -> Vec<(String, String)> {
        parse_query(&String::from_utf8_lossy(&self.body))
    }

    /// First form field with the given key.
    pub fn form_param(&self, key: &str) -> Option<String> {
        self.form().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Cookie value by name.
    pub fn cookie(&self, name: &str) -> Option<String> {
        let raw = self.header("cookie")?;
        crate::cookie::parse_cookie_header(raw)
            .into_iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Does the client ask to keep the connection alive?
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            _ => true, // HTTP/1.1 default
        }
    }

    /// Read and parse one request from a buffered stream.
    pub fn read_from<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Request, HttpError> {
        let line = read_line(r, limits.max_line)?;
        if line.is_empty() {
            return Err(HttpError::UnexpectedEof);
        }
        let mut parts = line.split(' ');
        let method = Method::parse(parts.next().unwrap_or(""))?;
        let target = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
        let version = parts.next().ok_or(HttpError::Malformed("missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(HttpError::Malformed("extra tokens in request line"));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        let (path_raw, query_raw) = match target.split_once('?') {
            Some((p, q)) => (p, q.to_string()),
            None => (target, String::new()),
        };
        if !path_raw.starts_with('/') {
            return Err(HttpError::Malformed("request target must be absolute path"));
        }
        let path = percent_decode(path_raw);

        let headers = read_headers(r, limits)?;
        let body = read_body(r, &headers, limits)?;
        Ok(Request { method, path, query_raw, headers, body })
    }

    /// Serialize onto a stream (client side).
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), HttpError> {
        let target = if self.query_raw.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query_raw)
        };
        write!(w, "{} {} HTTP/1.1\r\n", self.method, target)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        if !self.body.is_empty() || self.method == Method::Post || self.method == Method::Put {
            write!(w, "content-length: {}\r\n", self.body.len())?;
        }
        write!(w, "\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }
}

/// A response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// An empty response with a status.
    pub fn new(status: Status) -> Response {
        Response { status, headers: BTreeMap::new(), body: Bytes::new() }
    }

    /// 200 with a `text/html` body.
    pub fn html(body: impl Into<String>) -> Response {
        Response::new(Status::OK)
            .with_header("content-type", "text/html; charset=utf-8")
            .with_body(Bytes::from(body.into()))
    }

    /// 200 with a `text/plain` body.
    pub fn text(body: impl Into<String>) -> Response {
        Response::new(Status::OK)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(Bytes::from(body.into()))
    }

    /// 200 with an `application/json` body.
    pub fn json(body: impl Into<String>) -> Response {
        Response::new(Status::OK)
            .with_header("content-type", "application/json")
            .with_body(Bytes::from(body.into()))
    }

    /// An error response with a plain-text body.
    pub fn error(status: Status, msg: &str) -> Response {
        Response::new(status)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(Bytes::from(format!("{} {}\n{msg}\n", status.0, status.reason())))
    }

    /// 303 redirect.
    pub fn redirect(location: &str) -> Response {
        Response::new(Status::SEE_OTHER).with_header("location", location)
    }

    /// Builder: set a header (lowercased key).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.insert(name.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Builder: set the body.
    pub fn with_body(mut self, body: Bytes) -> Response {
        self.body = body;
        self
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Append a `Set-Cookie` header (multiple allowed; stored with an index
    /// suffix internally and expanded on write).
    pub fn add_set_cookie(&mut self, sc: &crate::cookie::SetCookie) {
        let n = self
            .headers
            .keys()
            .filter(|k| k.starts_with("set-cookie"))
            .count();
        let key = if n == 0 { "set-cookie".to_string() } else { format!("set-cookie#{n}") };
        self.headers.insert(key, sc.to_header_value());
    }

    /// Serialize onto a stream.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> Result<(), HttpError> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status.0, self.status.reason())?;
        for (k, v) in &self.headers {
            let name = k.split('#').next().unwrap_or(k);
            write!(w, "{name}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n", self.body.len())?;
        write!(w, "connection: {}\r\n", if keep_alive { "keep-alive" } else { "close" })?;
        write!(w, "\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }

    /// Read and parse one response (client side).
    pub fn read_from<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Response, HttpError> {
        let line = read_line(r, limits.max_line)?;
        if line.is_empty() {
            // The peer closed before sending a byte (e.g. a server that
            // just retired this keep-alive connection): transient.
            return Err(HttpError::UnexpectedEof);
        }
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("bad status line"));
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))?;
        let headers = read_headers(r, limits)?;
        let body = read_body(r, &headers, limits)?;
        Ok(Response { status: Status(code), headers, body })
    }

    /// Body as UTF-8 (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read one CRLF- (or LF-) terminated line, without the terminator.
fn read_line<R: BufRead>(r: &mut R, max: usize) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                if buf.is_empty() {
                    return Ok(String::new());
                }
                return Err(HttpError::UnexpectedEof);
            }
            _ => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map_err(|_| HttpError::Malformed("non-UTF8 header line"));
                }
                buf.push(byte[0]);
                if buf.len() > max {
                    return Err(HttpError::TooLarge("line"));
                }
            }
        }
    }
}

fn read_headers<R: BufRead>(
    r: &mut R,
    limits: &Limits,
) -> Result<BTreeMap<String, String>, HttpError> {
    let mut headers = BTreeMap::new();
    loop {
        let line = read_line(r, limits.max_line)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge("headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("bad header name"));
        }
        let key = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        // Repeated headers: cookie-style concatenation with `, `.
        headers
            .entry(key)
            .and_modify(|v: &mut String| {
                v.push_str(", ");
                v.push_str(&value);
            })
            .or_insert(value);
    }
}

fn read_body<R: BufRead>(
    r: &mut R,
    headers: &BTreeMap<String, String>,
    limits: &Limits,
) -> Result<Bytes, HttpError> {
    if let Some(te) = headers.get("transfer-encoding") {
        if te.eq_ignore_ascii_case("chunked") {
            return read_chunked(r, limits);
        }
        return Err(HttpError::Malformed("unsupported transfer-encoding"));
    }
    let len: usize = match headers.get("content-length") {
        None => return Ok(Bytes::new()),
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
    };
    if len > limits.max_body {
        return Err(HttpError::TooLarge("body"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::UnexpectedEof
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(Bytes::from(buf))
}

fn read_chunked<R: BufRead>(r: &mut R, limits: &Limits) -> Result<Bytes, HttpError> {
    let mut out = Vec::new();
    loop {
        let line = read_line(r, limits.max_line)?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| HttpError::Malformed("bad chunk size"))?;
        if out.len().saturating_add(size) > limits.max_body {
            return Err(HttpError::TooLarge("chunked body"));
        }
        if size == 0 {
            // Trailers until blank line.
            loop {
                if read_line(r, limits.max_line)?.is_empty() {
                    return Ok(Bytes::from(out));
                }
            }
        }
        let start = out.len();
        out.resize(start + size, 0);
        r.read_exact(&mut out[start..]).map_err(|_| HttpError::UnexpectedEof)?;
        let crlf = read_line(r, limits.max_line)?;
        if !crlf.is_empty() {
            return Err(HttpError::Malformed("chunk not CRLF-terminated"));
        }
    }
}

/// Wrap a stream in a sized buffered reader.
pub fn buf_reader<R: Read>(r: R) -> BufReader<R> {
    BufReader::with_capacity(16 * 1024, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_req(raw: &str) -> Result<Request, HttpError> {
        let mut r = Cursor::new(raw.as_bytes().to_vec());
        Request::read_from(&mut r, &Limits::default())
    }

    #[test]
    fn simple_get() {
        let req = parse_req("GET /app/photo?user=bob&n=3 HTTP/1.1\r\nhost: w5.org\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/app/photo");
        assert_eq!(req.query_param("user").as_deref(), Some("bob"));
        assert_eq!(req.query_param("n").as_deref(), Some("3"));
        assert_eq!(req.header("host"), Some("w5.org"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn post_with_body_and_form() {
        let req = parse_req(
            "POST /login HTTP/1.1\r\ncontent-length: 24\r\nconnection: close\r\n\r\nuser=bob&password=s3cret",
        )
        .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.form_param("user").as_deref(), Some("bob"));
        assert_eq!(req.form_param("password").as_deref(), Some("s3cret"));
        assert!(!req.keep_alive());
    }

    #[test]
    fn percent_decoded_path() {
        let req = parse_req("GET /files/my%20photo.jpg HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/files/my photo.jpg");
    }

    #[test]
    fn chunked_body() {
        let raw = "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let req = parse_req(raw).unwrap();
        assert_eq!(&req.body[..], b"hello world");
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(matches!(parse_req("BANANA / HTTP/1.1\r\n\r\n"), Err(HttpError::UnsupportedMethod(_))));
        assert!(parse_req("GET /\r\n\r\n").is_err());
        assert!(parse_req("GET noslash HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_req("GET / HTTP/2.0\r\n\r\n").is_err());
        assert!(parse_req("GET / HTTP/1.1\r\nbad header\r\n\r\n").is_err());
        assert!(parse_req("GET / HTTP/1.1 EXTRA\r\n\r\n").is_err());
    }

    #[test]
    fn limits_enforced() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(parse_req(&long_line), Err(HttpError::TooLarge(_))));

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..200 {
            many_headers.push_str(&format!("x-h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(parse_req(&many_headers), Err(HttpError::TooLarge(_))));

        let big_body = "POST / HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n";
        assert!(matches!(parse_req(big_body), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_eof() {
        assert!(matches!(
            parse_req("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(HttpError::UnexpectedEof)
        ));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::html("<h1>hi</h1>").with_header("x-w5-app", "photo");
        let mut buf = Vec::new();
        resp.write_to(&mut buf, true).unwrap();
        let mut r = Cursor::new(buf);
        let parsed = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(parsed.status, Status::OK);
        assert_eq!(parsed.header("x-w5-app"), Some("photo"));
        assert_eq!(parsed.body_string(), "<h1>hi</h1>");
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn response_closed_before_any_byte_is_transient_eof() {
        let err = Response::read_from(&mut Cursor::new(Vec::new()), &Limits::default()).unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof), "{err:?}");
        assert!(err.is_transient());
    }

    #[test]
    fn request_roundtrip() {
        let mut req = Request::get("/a/b");
        req.query_raw = "x=1".into();
        req.headers.insert("host".into(), "w5.org".into());
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let mut r = Cursor::new(buf);
        let parsed = Request::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(parsed.path, "/a/b");
        assert_eq!(parsed.query_raw, "x=1");
        assert_eq!(parsed.header("host"), Some("w5.org"));
    }

    #[test]
    fn multiple_set_cookies_written() {
        use crate::cookie::SetCookie;
        let mut resp = Response::new(Status::OK);
        resp.add_set_cookie(&SetCookie::session("sid", "abc"));
        resp.add_set_cookie(&SetCookie::session("theme", "dark"));
        let mut buf = Vec::new();
        resp.write_to(&mut buf, false).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.matches("set-cookie:").count(), 2, "{s}");
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert_eq!(Status::NOT_FOUND.reason(), "Not Found");
        assert_eq!(Status(599).reason(), "Unknown");
        assert!(Status::OK.is_success());
        assert!(!Status::FORBIDDEN.is_success());
    }
}
