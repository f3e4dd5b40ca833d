//! Threaded HTTP front end with keep-alive and graceful shutdown.
//!
//! One OS thread per connection parses and writes; the request itself is
//! executed by a pluggable [`Serve`] engine. [`Server`] runs the staged
//! [`Pipeline`](crate::pipeline::Pipeline) (bounded worker pools, per-class
//! queues); [`ReferenceServer`] keeps the seed's semantics — the handler
//! runs directly on the connection thread — as the baseline arm of
//! `w5_sim::netdiff`'s differential oracle. Shutdown flips an atomic flag
//! and unblocks the accept loop by connecting to itself — no busy-wait, no
//! platform-specific listener tricks.

use crate::http::{buf_reader, HttpError, Limits, Request, Response, Status};
use crate::pipeline::{fault_line, InlineServe, OpenAdmission, Pipeline, PipelineConfig, Serve};
use w5_sync::{lockdep, Mutex};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A request handler. Receives the parsed request and the peer address;
/// returns the response to send.
pub trait Handler: Send + Sync + 'static {
    /// Handle one request.
    fn handle(&self, request: Request, peer: SocketAddr) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request, SocketAddr) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: Request, peer: SocketAddr) -> Response {
        self(request, peer)
    }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Parser limits per request.
    pub limits: Limits,
    /// Maximum concurrent connections; excess connections receive 503.
    pub max_connections: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Maximum requests served on one keep-alive connection.
    pub max_requests_per_connection: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: Limits::default(),
            max_connections: 256,
            read_timeout: Duration::from_secs(10),
            max_requests_per_connection: 1000,
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    active: Arc<AtomicUsize>,
    served: Arc<AtomicUsize>,
    engine: Arc<dyn Serve>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests served so far.
    pub fn requests_served(&self) -> usize {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections currently being handled.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Stop accepting, wait for the accept loop to exit, then stop the
    /// engine (pipeline workers drain their queues first). In-flight
    /// connections finish their current request and close.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Unblock accept() with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.lock().take() {
            let _ = h.join();
        }
        self.engine.stop();
    }

    /// The engine serving requests (shared with the accept loop).
    pub fn engine(&self) -> Arc<dyn Serve> {
        Arc::clone(&self.engine)
    }
}

/// The server factory. [`Server::start`] serves through the staged
/// pipeline; use [`ReferenceServer::start`] for the seed's
/// handler-on-the-connection-thread semantics, or
/// [`Server::start_engine`] to supply a custom engine (e.g. a pipeline
/// with kernel-backed admission).
pub struct Server;

impl Server {
    /// Bind and serve on a background thread through a
    /// [`Pipeline`](crate::pipeline::Pipeline) configured from the
    /// environment (`W5_NET_WORKERS` etc.). `addr` may use port 0 to let
    /// the OS pick; read the effective address from the returned handle.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
    ) -> std::io::Result<ServerHandle> {
        let engine = Pipeline::start(PipelineConfig::from_env(), handler, Arc::new(OpenAdmission));
        Server::start_engine(addr, config, engine)
    }

    /// Bind and serve through an explicit engine.
    pub fn start_engine(
        addr: &str,
        config: ServerConfig,
        engine: Arc<dyn Serve>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));

        let accept_stop = Arc::clone(&stop);
        let accept_active = Arc::clone(&active);
        let accept_served = Arc::clone(&served);
        let accept_engine = Arc::clone(&engine);
        let accept_thread = std::thread::Builder::new()
            .name("w5-http-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if accept_active.load(Ordering::Relaxed) >= config.max_connections {
                        let _ = overloaded(stream);
                        continue;
                    }
                    let guard = ConnGuard::new(&accept_active);
                    let engine = Arc::clone(&accept_engine);
                    let config = config.clone();
                    let served = Arc::clone(&accept_served);
                    let stop = Arc::clone(&accept_stop);
                    // If the spawn fails the closure is dropped unrun, the
                    // guard releases the slot, and the counter stays
                    // balanced — an early leak here turned every later
                    // connection into a permanent 503.
                    let _ = std::thread::Builder::new()
                        .name("w5-http-conn".into())
                        .spawn(move || {
                            let _guard = guard;
                            let _ = serve_connection(stream, &config, &*engine, &served, &stop);
                        });
                }
            })?;

        Ok(ServerHandle {
            addr: local,
            stop,
            accept_thread: Mutex::new("net.accept", Some(accept_thread)),
            active,
            served,
            engine,
        })
    }
}

/// The seed server, preserved verbatim behind the [`Serve`] trait: the
/// handler runs directly on the connection thread, unbounded by any
/// worker pool. Baseline arm of the netdiff oracle and of the fairness
/// benchmark (`bench_net_json`).
pub struct ReferenceServer;

impl ReferenceServer {
    /// Bind and serve with thread-per-connection handler execution.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
    ) -> std::io::Result<ServerHandle> {
        Server::start_engine(addr, config, Arc::new(InlineServe::new(handler)))
    }
}

/// An occupied connection slot. Incremented on accept; the `Drop` impl
/// releases it, so the count balances whether the connection thread runs
/// to completion or the spawn fails and the closure is dropped unrun.
struct ConnGuard(Arc<AtomicUsize>);

impl ConnGuard {
    fn new(active: &Arc<AtomicUsize>) -> ConnGuard {
        active.fetch_add(1, Ordering::Relaxed);
        ConnGuard(Arc::clone(active))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn overloaded(mut stream: TcpStream) -> std::io::Result<()> {
    // Same shed contract as the pipeline's admission stage: a Retry-After
    // hint plus a fault-report body in the faultreport.rs log-line format.
    // The connection carries no labels yet, so the detail is never
    // redacted.
    let resp = Response::error(
        Status::SERVICE_UNAVAILABLE,
        &fault_line("net/server", "infrastructure", Some("server overloaded: connection limit reached")),
    )
    .with_header("retry-after", "1");
    let mut out = Vec::new();
    let _ = resp.write_to(&mut out, false);
    lockdep::blocking("net.socket.write");
    stream.write_all(&out)?;
    // Half of the rejected clients have already sent (part of) a request;
    // without an explicit shutdown they sit in their own read until their
    // timeout. Close both directions so they see EOF right after the 503.
    stream.shutdown(std::net::Shutdown::Both)
}

fn serve_connection(
    stream: TcpStream,
    config: &ServerConfig,
    engine: &dyn Serve,
    served: &AtomicUsize,
    stop: &AtomicBool,
) -> Result<(), HttpError> {
    let peer = stream.peer_addr().map_err(HttpError::Io)?;
    stream
        .set_read_timeout(Some(config.read_timeout))
        .map_err(HttpError::Io)?;
    stream.set_nodelay(true).ok();
    let mut write_half = stream.try_clone().map_err(HttpError::Io)?;
    let mut reader = buf_reader(stream);

    for served_here in 1..=config.max_requests_per_connection {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let request = match Request::read_from(&mut reader, &config.limits) {
            Ok(r) => r,
            Err(HttpError::UnexpectedEof) => break, // clean close
            Err(HttpError::Io(ref e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                break;
            }
            Err(e) => {
                // Tell the peer what category of mistake it made and close.
                let status = match e {
                    HttpError::TooLarge(_) => Status::PAYLOAD_TOO_LARGE,
                    HttpError::UnsupportedMethod(_) => Status::METHOD_NOT_ALLOWED,
                    _ => Status::BAD_REQUEST,
                };
                let _ = Response::error(status, &e.to_string()).write_to(&mut write_half, false);
                break;
            }
        };
        // The reply that uses up the connection's request budget must say
        // `close`: the socket shuts right after it.
        let keep = request.keep_alive()
            && served_here < config.max_requests_per_connection
            && !stop.load(Ordering::SeqCst);
        let (method, path) = (request.method, request.path.clone());
        // Root span per request; a wire-propagated trace context (e.g. a
        // federation peer's `x-w5-trace`) stitches this server's tree under
        // the caller's, including the caller's sampling decision.
        let remote = request
            .header(w5_obs::TRACE_HEADER)
            .and_then(w5_obs::TraceContext::parse);
        let started = std::time::Instant::now();
        let response = {
            let _span = w5_obs::span_with_remote(
                &format!("net.http {method} {path}"),
                w5_obs::Layer::Net,
                &w5_obs::ObsLabel::empty(),
                remote.as_ref(),
            );
            engine.serve(request, peer)
        };
        let elapsed = started.elapsed();
        // The HTTP front end sees only the wire: request spans are public
        // (any label-bearing data is the platform's concern downstream).
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::HttpRequest {
                method: format!("{method}"),
                path,
                status: response.status.0,
                micros: elapsed.as_micros() as u64,
            },
        );
        w5_obs::time("net.http", &w5_obs::ObsLabel::empty(), elapsed);
        served.fetch_add(1, Ordering::Relaxed);
        lockdep::blocking("net.socket.write");
        response.write_to(&mut write_half, keep)?;
        if !keep {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::http::Method;

    fn echo_server() -> ServerHandle {
        Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _peer: SocketAddr| {
                Response::text(format!("{} {}", req.method, req.path))
            }),
        )
        .unwrap()
    }

    #[test]
    fn serves_and_shuts_down() {
        let h = echo_server();
        let client = HttpClient::new();
        let resp = client.get(h.addr(), "/hello").unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body_string(), "GET /hello");
        assert_eq!(h.requests_served(), 1);
        h.shutdown();
        // Idempotent.
        h.shutdown();
        assert!(HttpClient::new().get(h.addr(), "/x").is_err());
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let h = echo_server();
        let mut conn = HttpClient::new().connect(h.addr()).unwrap();
        for i in 0..5 {
            let resp = conn.request(&Request::get(&format!("/r{i}"))).unwrap();
            assert_eq!(resp.body_string(), format!("GET /r{i}"));
        }
        assert_eq!(h.requests_served(), 5);
        h.shutdown();
    }

    #[test]
    fn reply_that_exhausts_the_request_budget_says_close() {
        let config = ServerConfig { max_requests_per_connection: 2, ..ServerConfig::default() };
        let h = Server::start(
            "127.0.0.1:0",
            config,
            Arc::new(|req: Request, _peer: SocketAddr| Response::text(req.path)),
        )
        .unwrap();
        let mut conn = HttpClient::new().connect(h.addr()).unwrap();
        let first = conn.request(&Request::get("/a")).unwrap();
        assert_eq!(first.header("connection"), Some("keep-alive"));
        let second = conn.request(&Request::get("/b")).unwrap();
        assert_eq!(second.header("connection"), Some("close"));
        h.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let h = echo_server();
        let addr = h.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let c = HttpClient::new();
                    for j in 0..10 {
                        let resp = c.get(addr, &format!("/t{i}/{j}")).unwrap();
                        assert!(resp.status.is_success());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.requests_served(), 80);
        h.shutdown();
    }

    #[test]
    fn bad_request_gets_400() {
        let h = echo_server();
        // Unknown method → 405.
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"BANANA / HTTP/1.1\r\n\r\n").unwrap();
        let mut r = buf_reader(s);
        let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(resp.status, Status::METHOD_NOT_ALLOWED);
        // Malformed target → 400.
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET noslash HTTP/1.1\r\n\r\n").unwrap();
        let mut r = buf_reader(s);
        let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        h.shutdown();
    }

    #[test]
    fn post_roundtrip() {
        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _| Response::text(String::from_utf8_lossy(&req.body).into_owned())),
        )
        .unwrap();
        let c = HttpClient::new();
        let resp = c
            .post(h.addr(), "/submit", "application/x-www-form-urlencoded", b"a=1&b=2")
            .unwrap();
        assert_eq!(resp.body_string(), "a=1&b=2");
        h.shutdown();
    }

    #[test]
    fn conn_guard_releases_slot_even_if_the_thread_never_runs() {
        // The failed-spawn path: the guard is moved into a closure that is
        // dropped without ever executing (exactly what `Builder::spawn`
        // does with it on error). The slot must come back.
        let active = Arc::new(AtomicUsize::new(0));
        let guard = ConnGuard::new(&active);
        assert_eq!(active.load(Ordering::Relaxed), 1);
        let never_run = move || {
            let _guard = guard;
        };
        drop(never_run);
        assert_eq!(
            active.load(Ordering::Relaxed),
            0,
            "a dropped connection closure must release its slot"
        );
    }

    #[test]
    fn overloaded_clients_get_503_then_eof_and_server_recovers() {
        use std::io::Read;
        use std::sync::mpsc;

        // A handler that parks until released, so one connection can pin
        // the single slot for as long as the test needs.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig { max_connections: 1, ..ServerConfig::default() },
            Arc::new(move |_req: Request, _peer: SocketAddr| {
                let _ = rx.lock().recv();
                Response::text("released")
            }),
        )
        .unwrap();

        // Occupy the only slot with an in-flight request.
        let mut busy = TcpStream::connect(h.addr()).unwrap();
        busy.write_all(b"GET /hold HTTP/1.1\r\n\r\n").unwrap();
        for _ in 0..2000 {
            if h.active_connections() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 1, "busy connection never registered");

        // The next client has already sent a request; it must receive the
        // 503 followed promptly by EOF — not hang until its read timeout.
        let mut rejected = TcpStream::connect(h.addr()).unwrap();
        rejected.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        rejected.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        rejected.read_to_end(&mut buf).expect("socket must reach EOF after the 503");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
        // The shed carries a retry hint and a fault-report body, same
        // contract as the pipeline's admission stage.
        assert!(text.to_ascii_lowercase().contains("retry-after: 1"), "got: {text}");
        assert!(text.contains("fault app=net/server kind=infrastructure"), "got: {text}");

        // Release the parked handler; the slot drains and new clients are
        // served again — the counter balanced.
        tx.send(()).unwrap();
        let mut r = buf_reader(busy);
        let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(resp.status, Status::OK);
        drop(r);
        for _ in 0..2000 {
            if h.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 0, "slot leaked after connection closed");
        // Disconnect the channel so later handler invocations return at
        // once instead of parking.
        drop(tx);
        let resp = HttpClient::new().get(h.addr(), "/again").unwrap();
        assert_eq!(resp.status, Status::OK);
        h.shutdown();
    }

    fn panicky_handler() -> Arc<dyn Handler> {
        Arc::new(|req: Request, _peer: SocketAddr| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::text("fine")
        })
    }

    #[test]
    fn pipelined_server_turns_handler_panic_into_500_and_recovers() {
        let h = Server::start("127.0.0.1:0", ServerConfig::default(), panicky_handler()).unwrap();
        let c = HttpClient::new();
        // The worker catches the panic and the connection gets a real 500.
        let resp = c.get(h.addr(), "/boom").unwrap();
        assert_eq!(resp.status, Status::INTERNAL_ERROR);
        // The connection slot drains (the conn thread never panicked).
        for _ in 0..2000 {
            if h.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 0, "slot leaked across a handler panic");
        // The worker pool is intact: the next request is admitted and served.
        let resp = c.get(h.addr(), "/ok").unwrap();
        assert_eq!(resp.status, Status::OK);
        h.shutdown();
    }

    #[test]
    fn reference_server_releases_slot_when_handler_panics() {
        use std::io::Read;
        let h =
            ReferenceServer::start("127.0.0.1:0", ServerConfig::default(), panicky_handler())
                .unwrap();
        // Seed semantics: the panic unwinds the connection thread, so the
        // client sees EOF with no response…
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        assert!(buf.is_empty(), "reference engine should not answer a panicked request");
        // …but the ConnGuard still releases the slot, so the active count
        // returns to zero and the next request is admitted.
        for _ in 0..2000 {
            if h.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 0, "panicked connection leaked its slot");
        let resp = HttpClient::new().get(h.addr(), "/ok").unwrap();
        assert_eq!(resp.status, Status::OK);
        h.shutdown();
    }

    #[test]
    fn reference_server_matches_seed_semantics_for_normal_traffic() {
        let h = ReferenceServer::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _peer: SocketAddr| {
                Response::text(format!("{} {}", req.method, req.path))
            }),
        )
        .unwrap();
        let mut conn = HttpClient::new().connect(h.addr()).unwrap();
        for i in 0..3 {
            let resp = conn.request(&Request::get(&format!("/r{i}"))).unwrap();
            assert_eq!(resp.body_string(), format!("GET /r{i}"));
        }
        assert_eq!(h.requests_served(), 3);
        h.shutdown();
    }

    #[test]
    fn method_routing_in_handler() {
        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _| {
                if req.method == Method::Post {
                    Response::new(Status::CREATED)
                } else {
                    Response::new(Status::OK)
                }
            }),
        )
        .unwrap();
        let c = HttpClient::new();
        assert_eq!(c.get(h.addr(), "/").unwrap().status, Status::OK);
        assert_eq!(
            c.post(h.addr(), "/", "text/plain", b"x").unwrap().status,
            Status::CREATED
        );
        h.shutdown();
    }
}
