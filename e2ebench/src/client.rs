//! Closed-loop load over loopback sockets from one client: it sends its
//! next request only after the previous reply has arrived.

use crate::world::ConnMode;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};
use w5_net::http::{buf_reader, Limits};
use w5_net::{HttpClient, HttpError, Request, Response};

/// The socket timeouts `HttpClient` uses.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What one request got back.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// `None` when the transport failed (no response was read).
    pub status: Option<u16>,
    pub ns: u64,
}

/// One timed round: consecutive stream positions sent back to back.
pub struct Round {
    pub range: Range<usize>,
    pub wall_s: f64,
    /// CPU time, over all CPUs, that the hypervisor gave to other guests
    /// during the round (`steal` in `/proc/stat`), in clock ticks.
    pub steal_ticks: u64,
    /// All CPU time of the machine during the round, in clock ticks.
    pub cpu_ticks: u64,
}

impl Round {
    /// The share of the machine's CPU time stolen during the round.
    pub fn steal_share(&self) -> f64 {
        self.steal_ticks as f64 / self.cpu_ticks.max(1) as f64
    }
}

/// The result of driving a request stream.
pub struct Drive {
    /// Per stream position.
    pub outcomes: Vec<Outcome>,
    pub rounds: Vec<Round>,
    /// Connections the server closed under a keep-alive client.
    pub reconnects: u64,
}

/// A keep-alive client that survives the server closing its connection.
///
/// It sends and reads exactly as `w5_net::client::Connection::request`
/// does (`Request::write_to` onto the socket, `Response::read_from` a
/// 16 KiB buffered reader), but first waits for the reply's first byte, so
/// that it can tell a connection the server closed before answering from
/// a malformed reply: `Response::read_from` reports both as a bad status
/// line.
struct KeepAlive {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    reconnects: u64,
}

/// What one attempt on the current connection got.
enum Reply {
    Response(Response),
    /// The server closed the connection without answering.
    Closed,
}

impl KeepAlive {
    fn send(&mut self, req: &Request) -> Result<Response, HttpError> {
        let reused = self.conn.is_some();
        let reply = match self.attempt(req) {
            Err(e) if reused && e.is_transient() => Reply::Closed,
            other => other?,
        };
        let resp = match reply {
            Reply::Response(r) => r,
            // The server caps requests per connection and closes a
            // keep-alive connection after its last reply. A request it
            // closed on was never read, so it is resent once on a fresh
            // connection, as HTTP/1.1 lets a client do (a duplicated write
            // would show in the store row check).
            Reply::Closed if reused => {
                self.reconnects += 1;
                match self.attempt(req)? {
                    Reply::Response(r) => r,
                    Reply::Closed => return Err(HttpError::UnexpectedEof),
                }
            }
            Reply::Closed => return Err(HttpError::UnexpectedEof),
        };
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.reconnects += 1;
            self.conn = None;
        }
        Ok(resp)
    }

    /// One request on the current connection, opened if there is none.
    /// The connection is dropped on any outcome but a response.
    fn attempt(&mut self, req: &Request) -> Result<Reply, HttpError> {
        let (reader, writer) = match self.conn.as_mut() {
            Some(c) => c,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                stream.set_nodelay(true)?;
                let writer = stream.try_clone()?;
                self.conn.insert((buf_reader(stream), writer))
            }
        };
        let reply = req.write_to(writer).and_then(|()| {
            if reader.fill_buf()?.is_empty() {
                Ok(Reply::Closed)
            } else {
                Response::read_from(reader, &Limits::default()).map(Reply::Response)
            }
        });
        if !matches!(reply, Ok(Reply::Response(_))) {
            self.conn = None;
        }
        reply
    }
}

/// Send `requests` in order from one client. Positions `0..warm` are a
/// warm-up; the rest is cut into `rounds` consecutive timed rounds.
pub fn drive(
    addr: SocketAddr,
    requests: &[Request],
    conn: ConnMode,
    warm: usize,
    rounds: usize,
) -> Drive {
    assert!(
        warm < requests.len() && rounds >= 1,
        "a drive needs timed requests"
    );
    let http = HttpClient::new();
    let mut ka = KeepAlive {
        addr,
        conn: None,
        reconnects: 0,
    };
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut send = |i: usize| {
        let t = Instant::now();
        let resp = match conn {
            ConnMode::KeepAlive => ka.send(&requests[i]),
            ConnMode::PerRequest => http.request(addr, &requests[i]),
        };
        let ns = t.elapsed().as_nanos() as u64;
        let status = match resp {
            Ok(r) => Some(r.status.0),
            Err(e) => {
                eprintln!("e2ebench: request {i}: transport error: {e}");
                None
            }
        };
        outcomes.push(Outcome { status, ns });
    };
    (0..warm).for_each(&mut send);
    let timed: Vec<Round> = (0..rounds)
        .map(|k| {
            let range = round_range(requests.len(), warm, rounds, k);
            let (steal0, cpu0) = cpu_ticks();
            let start = Instant::now();
            range.clone().for_each(&mut send);
            let wall_s = start.elapsed().as_secs_f64();
            let (steal1, cpu1) = cpu_ticks();
            Round {
                range,
                wall_s,
                steal_ticks: steal1.saturating_sub(steal0),
                cpu_ticks: cpu1.saturating_sub(cpu0),
            }
        })
        .collect();
    Drive {
        outcomes,
        rounds: timed,
        reconnects: ka.reconnects,
    }
}

/// Stream positions of timed round `k`.
pub fn round_range(len: usize, warm: usize, rounds: usize, k: usize) -> Range<usize> {
    let timed = len - warm;
    warm + k * timed / rounds..warm + (k + 1) * timed / rounds
}

/// `(steal, total)` clock ticks of all CPUs from `/proc/stat`; zeros
/// where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::round_range;

    #[test]
    fn rounds_cover_the_timed_positions_once() {
        for (len, warm, rounds) in [(1500, 500, 10), (503, 500, 2), (10_000, 0, 7)] {
            let mut next = warm;
            for k in 0..rounds {
                let r = round_range(len, warm, rounds, k);
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }
}
