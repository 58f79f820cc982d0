//! The load generator's side of the wire: one request per connection, the
//! response body checksummed as it streams in so no client buffer grows
//! with the publication.
//!
//! [`call`] is the blocking client of the closed loops; [`open_loop`] sends
//! a fixed schedule from one thread, polling every in-flight connection
//! without blocking, so a slow read never delays the next send.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Length and checksum of a byte stream (non-cryptographic; it compares a
/// response against a reference rendered in process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Bytes seen.
    pub len: u64,
    /// 64-bit checksum of those bytes.
    pub hash: u64,
}

/// Computes a [`Digest`] over a stream; also a [`Write`] sink.
#[derive(Debug, Clone, Default)]
pub struct Hasher {
    hash: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

const MIX: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher {
    fn word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(MIX);
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of everything fed so far.
    pub fn digest(&self) -> Digest {
        let mut h = self.clone();
        let mut last = [0u8; 8];
        last[..h.tail_len].copy_from_slice(&h.tail[..h.tail_len]);
        h.word(u64::from_le_bytes(last) ^ ((h.tail_len as u64) << 56));
        h.word(h.len);
        Digest {
            len: self.len,
            hash: h.hash,
        }
    }
}

impl Write for Hasher {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Digest of an in-memory byte string.
pub fn digest(bytes: &[u8]) -> Digest {
    let mut h = Hasher::default();
    h.update(bytes);
    h.digest()
}

/// Response bodies up to this size are also kept verbatim (the JSON
/// replies of ingest, anonymize and append).
const KEEP_BODY: usize = 64 << 10;

/// A received response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status, 0 when the response could not be read.
    pub status: u16,
    /// Digest of the body.
    pub body: Digest,
    /// The body itself when it is at most 64 KiB.
    pub small_body: Vec<u8>,
}

impl Reply {
    /// A numeric field of the kept JSON body.
    pub fn number(&self, field: &str) -> Option<f64> {
        let value: serde_json::Value = serde_json::from_slice(&self.small_body).ok()?;
        match value.get(field)? {
            serde_json::Value::Float(f) => Some(*f),
            serde_json::Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
}

/// Incremental response parser: head until the blank line, then body.
#[derive(Default)]
struct Parser {
    head: Vec<u8>,
    in_body: bool,
    body: Hasher,
    kept: Vec<u8>,
}

impl Parser {
    fn feed(&mut self, mut bytes: &[u8]) {
        if !self.in_body {
            let from = self.head.len().saturating_sub(3);
            self.head.extend_from_slice(bytes);
            let Some(end) = self.head[from..].windows(4).position(|w| w == b"\r\n\r\n") else {
                return;
            };
            let split = from + end + 4;
            let rest = self.head.split_off(split);
            self.in_body = true;
            self.absorb(&rest);
            bytes = &[];
        }
        self.absorb(bytes);
    }

    fn absorb(&mut self, bytes: &[u8]) {
        self.body.update(bytes);
        if self.kept.len() < KEEP_BODY {
            let take = (KEEP_BODY - self.kept.len()).min(bytes.len());
            self.kept.extend_from_slice(&bytes[..take]);
        }
    }

    fn finish(self) -> Reply {
        let status = std::str::from_utf8(&self.head)
            .ok()
            .and_then(|h| h.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .filter(|_| self.in_body)
            .unwrap_or(0);
        let body = self.body.digest();
        let small_body = if body.len as usize <= KEEP_BODY {
            self.kept
        } else {
            Vec::new()
        };
        Reply {
            status,
            body,
            small_body,
        }
    }
}

fn send(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    Ok(stream)
}

/// Sends one request and reads the whole response (blocking).
pub fn call(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = send(addr, method, target, body)?;
    stream.set_read_timeout(Some(Duration::from_secs(170)))?;
    let mut parser = Parser::default();
    let mut buf = vec![0u8; 256 << 10];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(parser.finish()),
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, from the start of the loop.
    pub due: Duration,
    /// HTTP method.
    pub method: &'static str,
    /// Path and query.
    pub target: String,
    /// Request body.
    pub body: Vec<u8>,
}

/// The outcome of one scheduled request.
#[derive(Debug, Clone)]
pub struct Sent {
    /// How far behind its due time the generator sent it.
    pub late: Duration,
    /// From the due time to the last response byte.
    pub latency: Duration,
    /// The response (status 0 if the connection failed).
    pub reply: Reply,
}

const READS_PER_PASS: usize = 4;

struct InFlight {
    index: usize,
    stream: TcpStream,
    parser: Parser,
}

/// Sends `plan` on schedule from one thread and collects every response.
/// A request still unanswered `grace` after the last due time fails with
/// status 0.
pub fn open_loop(addr: SocketAddr, plan: &[Planned], grace: Duration) -> Vec<Sent> {
    let start = Instant::now();
    let failed = Reply {
        status: 0,
        body: Digest::default(),
        small_body: Vec::new(),
    };
    let mut results: Vec<Option<Sent>> = vec![None; plan.len()];
    let mut late = vec![Duration::ZERO; plan.len()];
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut next = 0;
    let mut buf = vec![0u8; 256 << 10];
    let give_up = plan.last().map_or(Duration::ZERO, |p| p.due) + grace;
    while next < plan.len() || !in_flight.is_empty() {
        let mut progressed = false;
        while next < plan.len() && plan[next].due <= start.elapsed() {
            let p = &plan[next];
            late[next] = start.elapsed() - p.due;
            let sent = send(addr, p.method, &p.target, &p.body)
                .and_then(|s| s.set_nonblocking(true).map(|()| s));
            match sent {
                Ok(stream) => in_flight.push(InFlight {
                    index: next,
                    stream,
                    parser: Parser::default(),
                }),
                Err(_) => {
                    results[next] = Some(Sent {
                        late: late[next],
                        latency: start.elapsed() - p.due,
                        reply: failed.clone(),
                    })
                }
            }
            next += 1;
            progressed = true;
        }
        let mut i = 0;
        while i < in_flight.len() {
            // A bounded number of reads per connection and pass, so a large
            // body streaming in never holds up the next due send.
            let mut reads = 0;
            let done = loop {
                if reads == READS_PER_PASS {
                    break false;
                }
                reads += 1;
                match in_flight[i].stream.read(&mut buf) {
                    Ok(0) => break true,
                    Ok(n) => {
                        in_flight[i].parser.feed(&buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            };
            if done {
                let f = in_flight.swap_remove(i);
                let due = plan[f.index].due;
                results[f.index] = Some(Sent {
                    late: late[f.index],
                    latency: start.elapsed() - due,
                    reply: f.parser.finish(),
                });
                progressed = true;
            } else {
                i += 1;
            }
        }
        if start.elapsed() > give_up {
            for f in in_flight.drain(..) {
                results[f.index] = Some(Sent {
                    late: late[f.index],
                    latency: start.elapsed() - plan[f.index].due,
                    reply: failed.clone(),
                });
            }
        }
        if !progressed {
            let until_due = plan
                .get(next)
                .map_or(Duration::MAX, |p| p.due.saturating_sub(start.elapsed()));
            std::thread::sleep(until_due.min(Duration::from_micros(100)));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every planned request finished"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_does_not_depend_on_how_the_stream_is_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = digest(&data);
        for split in [1, 3, 8, 13, 999] {
            let mut h = Hasher::default();
            for part in data.chunks(split) {
                h.update(part);
            }
            assert_eq!(h.digest(), whole, "split {split}");
        }
        assert_ne!(digest(&data[..999]), whole);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }

    #[test]
    fn parser_splits_head_and_body_across_reads() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        for split in 1..raw.len() {
            let mut p = Parser::default();
            p.feed(&raw[..split]);
            p.feed(&raw[split..]);
            let reply = p.finish();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.small_body, b"hello");
            assert_eq!(reply.body, digest(b"hello"));
        }
    }
}
