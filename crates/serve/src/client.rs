//! Clients for the line-delimited JSON protocol.
//!
//! [`Client`] is the minimal blocking connection: one request at a time,
//! in lockstep, with socket timeouts so a stalled server surfaces as a
//! timeout error instead of hanging the caller forever.
//!
//! [`RetryingClient`] wraps it with the resilience contract the chaos
//! suite pins: bounded attempts, exponential backoff with deterministic
//! jitter, per-attempt and overall deadlines, typed error
//! classification, and an idempotency key per *logical* call so a retry
//! after a torn response is deduplicated server-side and returns the
//! same bytes the fault-free path would have.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use monityre_obs::{names, splitmix64, Counter, Histogram, Registry, SpanGuard, TraceContext};

use crate::protocol::{
    decode_response_line, ErrorCode, ProtocolError, Request, Response, WireError, MAX_LINE_BYTES,
};

/// Default socket read/write timeout. A server that accepts the
/// connection and then goes silent used to hang [`Client::request`]
/// forever; now the read fails with a timeout the retry layer can act
/// on. Override with [`Client::set_timeout`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking connection to a `monityre-serve` instance, issuing one
/// request at a time in lockstep.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wraps an already-connected stream, installing the
    /// [`DEFAULT_IO_TIMEOUT`] on reads and writes.
    ///
    /// # Errors
    ///
    /// Propagates stream-clone failures.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Caps how long [`Self::request`] may wait for a response line
    /// (`None` waits forever — the pre-timeout behaviour).
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request and parses the response.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a response that does not parse is
    /// [`io::ErrorKind::InvalidData`].
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let raw = self.request_raw(request)?;
        serde_json::from_str(&raw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one request and returns the *raw* response line (without the
    /// trailing newline) — the byte-identity tests compare these.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn request_raw(&mut self, request: &Request) -> io::Result<String> {
        let line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.send_line(&line)
    }

    /// Sends one raw line verbatim (plus a newline) and reads one raw
    /// response line — lets tests exercise malformed requests.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an oversized or closed response is
    /// [`io::ErrorKind::UnexpectedEof`] / [`io::ErrorKind::InvalidData`].
    pub fn send_line(&mut self, line: &str) -> io::Result<String> {
        let raw = self.send_line_bytes(line)?;
        String::from_utf8(raw)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))
    }

    /// Sends one raw line and returns the raw response *bytes* (trailing
    /// newline stripped) — the retrying client decodes these itself so
    /// damaged frames classify as typed [`ProtocolError`]s.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn send_line_bytes(&mut self, line: &str) -> io::Result<Vec<u8>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_line_bytes()
    }

    /// Reads one raw response line without sending anything — for
    /// collecting the answer to a previously fired request.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn recv_raw(&mut self) -> io::Result<String> {
        let raw = self.read_line_bytes()?;
        String::from_utf8(raw)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))
    }

    fn read_line_bytes(&mut self) -> io::Result<Vec<u8>> {
        let mut raw = Vec::new();
        loop {
            let before = raw.len();
            match self.reader.read_until(b'\n', &mut raw) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) if raw.last() == Some(&b'\n') => break,
                Ok(_) => {} // EOF mid-line is caught by the next Ok(0)
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) && raw.len() > before => {}
                Err(e) => return Err(e),
            }
            if raw.len() > MAX_LINE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response line exceeds the protocol maximum",
                ));
            }
        }
        while matches!(raw.last(), Some(b'\n' | b'\r')) {
            raw.pop();
        }
        Ok(raw)
    }
}

/// Retry tuning for [`RetryingClient`]; every field has a sensible
/// default. Backoff for retry *n* (0-based) is
/// `min(base_backoff << n, max_backoff)` scaled by a deterministic
/// jitter in `[0.5, 1.0)` drawn from `jitter_seed`.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per logical call (clamped to ≥ 1).
    pub attempts: u32,
    /// First-retry backoff, doubled each further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Per-attempt budget: connect + write + read of one attempt.
    pub attempt_timeout: Duration,
    /// Overall budget for the logical call, backoffs included.
    pub overall_deadline: Duration,
    /// Seed of the jitter stream and the idempotency-key mixer — fix it
    /// to make a client's retry timing and keys reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            attempt_timeout: Duration::from_secs(10),
            overall_deadline: Duration::from_secs(60),
            jitter_seed: 0x6d6f_6e69, // "moni"
        }
    }
}

/// How a [`RetryingClient`] call ultimately failed. Every variant is
/// terminal by construction: retryable failures (transport errors,
/// damaged frames, `queue_full`/`internal` responses) are consumed by
/// the retry loop and only surface inside [`ClientError::Exhausted`] /
/// [`ClientError::DeadlineElapsed`] once the budget runs out.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with a terminal error code (`bad_request`,
    /// `eval_failed`, `deadline_exceeded`, `shutting_down`). Retrying
    /// would deterministically fail again.
    Server(WireError),
    /// Every attempt failed retryably and the attempt budget ran out;
    /// `last` describes the final failure.
    Exhausted {
        /// Attempts performed.
        attempts: u32,
        /// The last attempt's failure, rendered.
        last: String,
    },
    /// The overall deadline elapsed before an attempt succeeded.
    DeadlineElapsed {
        /// Attempts performed before the deadline fired.
        attempts: u32,
        /// The last attempt's failure, rendered (empty when the deadline
        /// fired before any attempt finished).
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(e) => write!(f, "server error `{}`: {}", e.code.name(), e.message),
            ClientError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempts; last: {last}"
                )
            }
            ClientError::DeadlineElapsed { attempts, last } => {
                write!(
                    f,
                    "overall deadline elapsed after {attempts} attempts; last: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// One attempt's retryable failure (internal to the retry loop).
#[derive(Debug)]
enum AttemptError {
    /// Connect/read/write failure or unexpected EOF.
    Transport(io::Error),
    /// The response frame was damaged (truncated, corrupted, not a
    /// response).
    Protocol(ProtocolError),
    /// The server answered with a retryable error code.
    Retryable(WireError),
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::Transport(e) => write!(f, "transport: {e}"),
            AttemptError::Protocol(e) => write!(f, "protocol: {e}"),
            AttemptError::Retryable(e) => write!(f, "server `{}`: {}", e.code.name(), e.message),
        }
    }
}

/// FNV-1a over the serialized request — the content half of an
/// idempotency key, so equal keys imply equal requests.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A resilient client: reconnects, retries with backoff, classifies
/// errors, and stamps idempotency keys so retries are exact.
///
/// One logical call ([`Self::call`] / [`Self::call_raw`]) may perform up
/// to [`RetryPolicy::attempts`] wire attempts. Each attempt gets
/// `min(attempt_timeout, remaining overall budget)` of socket time;
/// between attempts the client sleeps the jittered exponential backoff.
/// Failures split three ways:
///
/// * **retryable** — transport errors (refused/reset/EOF/timeout),
///   damaged frames ([`ProtocolError`]), and server codes where
///   [`ErrorCode::is_retryable`] holds — consumed by the loop;
/// * **terminal** — any other server error, returned as
///   [`ClientError::Server`] immediately;
/// * **budget** — [`ClientError::Exhausted`] /
///   [`ClientError::DeadlineElapsed`] when the loop gives up.
///
/// Unless the request already carries one, every logical call is stamped
/// with a fresh `idem` key (content hash ⊕ seeded counter), so a retry
/// of an already-executed request replays the remembered response
/// byte-identically instead of re-executing.
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
    jitter_state: u64,
    idem_counter: u64,
    retries_performed: u64,
    retries: Arc<Counter>,
    attempts: Arc<Counter>,
    backoff_ms: Arc<Histogram>,
    errors_transport: Arc<Counter>,
    errors_protocol: Arc<Counter>,
    errors_server: Arc<Counter>,
}

impl RetryingClient {
    /// A client for `addr`; connects lazily on the first call.
    #[must_use]
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        let registry = Registry::global();
        let error_class =
            |class: &str| registry.counter(&format!("{}.{class}", names::CLIENT_ERRORS_PREFIX));
        Self {
            addr,
            jitter_state: splitmix64(policy.jitter_seed),
            policy,
            conn: None,
            idem_counter: 0,
            retries_performed: 0,
            retries: registry.counter(names::CLIENT_RETRIES),
            attempts: registry.counter(names::CLIENT_ATTEMPTS),
            backoff_ms: registry.histogram(names::CLIENT_BACKOFF_MS),
            errors_transport: error_class("transport"),
            errors_protocol: error_class("protocol"),
            errors_server: error_class("server"),
        }
    }

    /// Resolves `addr` (first match) and builds a client for it.
    ///
    /// # Errors
    ///
    /// Propagates resolution failures.
    pub fn resolve<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolves to nothing",
            )
        })?;
        Ok(Self::new(addr, policy))
    }

    /// The target address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many *retry* attempts (beyond each call's first) this client
    /// has performed over its lifetime.
    #[must_use]
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// One resilient logical call, returning the parsed response (always
    /// a success response — terminal server errors surface as
    /// [`ClientError::Server`]).
    ///
    /// # Errors
    ///
    /// The classified [`ClientError`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.call_inner(request).map(|(_, response)| response)
    }

    /// One resilient logical call, returning the *raw* successful
    /// response line (no trailing newline) — what the byte-identity
    /// tests compare against a fault-free evaluation.
    ///
    /// # Errors
    ///
    /// The classified [`ClientError`].
    pub fn call_raw(&mut self, request: &Request) -> Result<String, ClientError> {
        self.call_inner(request).map(|(raw, _)| raw)
    }

    fn call_inner(&mut self, request: &Request) -> Result<(String, Response), ClientError> {
        let started = Instant::now();
        let stamped = self.stamped_request(request)?;
        // The logical-call root context: the caller's, or a fresh root
        // derived from the idem key — which is itself deterministic under
        // a pinned `jitter_seed`, so a seeded chaos run replays the same
        // trace ids every time.
        let root = stamped
            .trace
            .unwrap_or_else(|| TraceContext::root(stamped.idem.unwrap_or(self.policy.jitter_seed)));
        let _root_guard = monityre_obs::install_context(root);
        // One root span per logical call; each attempt below is a child,
        // so retries show up as siblings in the trace tree.
        let _call_span = monityre_obs::span(names::CLIENT_CALL);
        let attempts = self.policy.attempts.max(1);
        let mut last: Option<AttemptError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries.inc();
                self.retries_performed += 1;
                let backoff = self.next_backoff(attempt - 1);
                let remaining = self.remaining(started);
                if remaining.is_zero() {
                    return Err(Self::deadline_error(attempt, last));
                }
                let slept = backoff.min(remaining);
                self.backoff_ms
                    .record_us(u64::try_from(slept.as_millis()).unwrap_or(u64::MAX));
                std::thread::sleep(slept);
            }
            let remaining = self.remaining(started);
            if remaining.is_zero() {
                return Err(Self::deadline_error(attempt, last));
            }
            self.attempts.inc();
            let attempt_span = monityre_obs::span(names::CLIENT_ATTEMPT);
            let line = Self::attempt_line(&stamped, &attempt_span)?;
            match self.attempt(&line, remaining) {
                Ok((raw, response)) => {
                    if let Some(error) = response.error.clone() {
                        self.errors_server.inc();
                        if error.code.is_retryable() {
                            last = Some(AttemptError::Retryable(error));
                            continue;
                        }
                        return Err(ClientError::Server(error));
                    }
                    return Ok((raw, response));
                }
                Err(e) => {
                    match &e {
                        AttemptError::Transport(_) => self.errors_transport.inc(),
                        AttemptError::Protocol(_) => self.errors_protocol.inc(),
                        AttemptError::Retryable(_) => self.errors_server.inc(),
                    }
                    // The frame boundary (or the whole connection) is no
                    // longer trustworthy; reconnect on the next attempt.
                    self.conn = None;
                    last = Some(e);
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts,
            last: last.map(|e| e.to_string()).unwrap_or_default(),
        })
    }

    /// Serializes `request` (no trace stamp — see [`Self::attempt_line`]
    /// for the per-attempt serialization).
    fn to_line(request: &Request) -> Result<String, ClientError> {
        serde_json::to_string(request).map_err(|e| {
            ClientError::Server(WireError {
                code: ErrorCode::BadRequest,
                message: format!("request does not serialize: {e}"),
            })
        })
    }

    /// Stamps a fresh idempotency key unless the caller chose one. The
    /// key hashes the *trace-free* serialization, so the same request
    /// retried under different attempt contexts keeps one key.
    fn stamped_request(&mut self, request: &Request) -> Result<Request, ClientError> {
        if request.idem.is_some() {
            return Ok(request.clone());
        }
        let line = Self::to_line(request)?;
        self.idem_counter = self.idem_counter.wrapping_add(1);
        let key = splitmix64(
            self.policy.jitter_seed ^ fnv1a(line.as_bytes()) ^ splitmix64(self.idem_counter),
        );
        Ok(request.clone().with_idem(key))
    }

    /// The wire line for one attempt: the stamped request carrying the
    /// attempt span's context, so server-side spans parent under exactly
    /// the attempt that caused them. With spans disabled the guard has no
    /// ids and the line carries whatever the stamped request already had
    /// (usually nothing — byte-identical to the pre-tracing wire).
    fn attempt_line(stamped: &Request, attempt_span: &SpanGuard) -> Result<String, ClientError> {
        match attempt_span.ids() {
            Some(ids) => Self::to_line(&stamped.clone().with_trace(TraceContext {
                trace_id: ids.trace_id,
                span_id: ids.span_id,
            })),
            None => Self::to_line(stamped),
        }
    }

    fn remaining(&self, started: Instant) -> Duration {
        self.policy
            .overall_deadline
            .saturating_sub(started.elapsed())
    }

    fn deadline_error(attempts: u32, last: Option<AttemptError>) -> ClientError {
        ClientError::DeadlineElapsed {
            attempts,
            last: last.map(|e| e.to_string()).unwrap_or_default(),
        }
    }

    /// Backoff before retry `retry_index` (0-based): capped exponential,
    /// scaled by a deterministic jitter in `[0.5, 1.0)`.
    fn next_backoff(&mut self, retry_index: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << retry_index.min(20));
        let capped = exp.min(self.policy.max_backoff);
        self.jitter_state = splitmix64(self.jitter_state);
        let fraction = 0.5 + (self.jitter_state >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        capped.mul_f64(fraction)
    }

    fn attempt(
        &mut self,
        line: &str,
        remaining: Duration,
    ) -> Result<(String, Response), AttemptError> {
        let timeout = self
            .policy
            .attempt_timeout
            .min(remaining)
            .max(Duration::from_millis(1));
        if self.conn.is_none() {
            let stream =
                TcpStream::connect_timeout(&self.addr, timeout).map_err(AttemptError::Transport)?;
            self.conn = Some(Client::from_stream(stream).map_err(AttemptError::Transport)?);
        }
        let client = self.conn.as_mut().expect("connection ensured above");
        client
            .set_timeout(Some(timeout))
            .map_err(AttemptError::Transport)?;
        let raw = client
            .send_line_bytes(line)
            .map_err(AttemptError::Transport)?;
        let response = decode_response_line(&raw).map_err(AttemptError::Protocol)?;
        let text =
            String::from_utf8(raw).map_err(|_| AttemptError::Protocol(ProtocolError::NotUtf8))?;
        Ok((text, response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            attempt_timeout: Duration::from_millis(200),
            overall_deadline: Duration::from_secs(2),
            jitter_seed: 11,
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_capped() {
        let mut a = RetryingClient::new(local(9), fast_policy());
        let mut b = RetryingClient::new(local(9), fast_policy());
        let seq_a: Vec<Duration> = (0..6).map(|i| a.next_backoff(i)).collect();
        let seq_b: Vec<Duration> = (0..6).map(|i| b.next_backoff(i)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same jitter");
        for (i, backoff) in seq_a.iter().enumerate() {
            assert!(
                *backoff <= Duration::from_millis(4),
                "retry {i}: {backoff:?}"
            );
            let exp = Duration::from_millis(1 << i.min(2));
            assert!(
                *backoff >= exp / 2,
                "retry {i}: {backoff:?} under half of {exp:?}"
            );
        }
        let mut c = RetryingClient::new(
            local(9),
            RetryPolicy {
                jitter_seed: 12,
                ..fast_policy()
            },
        );
        let seq_c: Vec<Duration> = (0..6).map(|i| c.next_backoff(i)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different jitter");
    }

    #[test]
    fn idem_keys_are_distinct_per_call_and_respect_caller_keys() {
        use crate::protocol::{Op, Request};
        let mut client = RetryingClient::new(local(9), fast_policy());
        let request = Request::new(Op::Breakeven);
        let a = client.stamped_request(&request).unwrap();
        let b = client.stamped_request(&request).unwrap();
        assert!(a.idem.is_some() && b.idem.is_some());
        assert_ne!(a.idem, b.idem, "each logical call gets a fresh key");
        let pinned = client.stamped_request(&request.with_idem(77)).unwrap();
        assert_eq!(pinned.idem, Some(77), "a caller-chosen key is kept");
    }

    #[test]
    fn attempt_lines_share_the_trace_and_key_but_not_the_span() {
        use crate::protocol::{Op, Request};
        let mut client = RetryingClient::new(local(9), fast_policy());
        let stamped = client
            .stamped_request(&Request::new(Op::Breakeven))
            .unwrap();
        let root = TraceContext::root(stamped.idem.unwrap());
        let _g = monityre_obs::install_context(root);
        let _call = monityre_obs::span(names::CLIENT_CALL);
        let first = {
            let span = monityre_obs::span(names::CLIENT_ATTEMPT);
            RetryingClient::attempt_line(&stamped, &span).unwrap()
        };
        let second = {
            let span = monityre_obs::span(names::CLIENT_ATTEMPT);
            RetryingClient::attempt_line(&stamped, &span).unwrap()
        };
        let a: Request = serde_json::from_str(&first).unwrap();
        let b: Request = serde_json::from_str(&second).unwrap();
        let (ta, tb) = (a.trace.expect("stamped"), b.trace.expect("stamped"));
        assert_eq!(ta.trace_id, root.trace_id, "one trace per logical call");
        assert_eq!(tb.trace_id, root.trace_id);
        assert_ne!(ta.span_id, tb.span_id, "retries are sibling spans");
        assert_eq!(a.idem, b.idem, "retries keep one idempotency key");
    }

    #[test]
    fn refused_connection_exhausts_retries_with_classification() {
        use crate::protocol::{Op, Request};
        // Bind-then-drop guarantees a port nothing is listening on.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let mut client = RetryingClient::new(local(port), fast_policy());
        let before = client.retries_performed();
        let attempts_before = client.attempts.get();
        let transport_before = client.errors_transport.get();
        let backoff_before = client.backoff_ms.count();
        match client.call(&Request::new(Op::Ping)) {
            Err(ClientError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(last.contains("transport"), "{last}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(
            client.retries_performed() - before,
            2,
            "attempts - 1 retries"
        );
        // The client metrics observed the whole failed call: one
        // attempt counter tick per wire attempt, one transport error
        // each, and one backoff sample per retry.
        assert_eq!(client.attempts.get() - attempts_before, 3);
        assert_eq!(client.errors_transport.get() - transport_before, 3);
        assert_eq!(client.backoff_ms.count() - backoff_before, 2);
    }
}
