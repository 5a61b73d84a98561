//! Load generators over loopback TCP: closed loops (one outstanding request
//! per connection) and an open loop (a writer sending on a schedule, a
//! reader collecting answers).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace::Tracer;
use crate::workload::{Query, Send};

/// Whether a response line is a success: `{"id":…,"ok":{…},"error":null}`.
pub fn is_ok_line(line: &[u8]) -> bool {
    line.starts_with(b"{\"id\":")
        && line.ends_with(b"\"error\":null}")
        && line.windows(6).any(|w| w == b"\"ok\":{")
}

/// A 64-bit FNV-1a digest of a response line, so every answer can be
/// compared with its expected bytes without keeping them all in memory.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One answer as the load loop records it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Answer {
    /// Latency, nanoseconds (saturating at ~4.3 s).
    pub lat_ns: u32,
    /// When the answer was read, microseconds after the phase started.
    pub done_us: u32,
    /// How late the request was written after it was due, nanoseconds.
    pub lag_ns: u32,
    /// Response line length, newline stripped.
    pub len: u32,
    /// [`digest`] of the response line.
    pub digest: u64,
    /// Whether the request fell in a traced slice (traced runs only).
    pub traced: bool,
}

fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn micros(d: Duration) -> u32 {
    u32::try_from(d.as_micros()).unwrap_or(u32::MAX)
}

/// What one connection saw during the timed phase, in send order.
#[derive(Default)]
pub struct ConnOut {
    /// Every answer, in send order.
    pub answers: Vec<Answer>,
    /// Full response bytes of requests the plan marks `keep` (at most
    /// [`MAX_KEPT`] per connection).
    pub kept: Vec<(usize, Vec<u8>)>,
    /// Indices of error responses, with the first few lines verbatim.
    pub failed: Vec<(usize, String)>,
    /// Spans recorded around each call (traced runs only).
    pub tracer: Option<Tracer>,
}

/// Answers per second a closed-loop connection reserves room for.
const RESERVE_PER_SECOND: usize = 15_000;
/// Responses kept whole per connection.
pub const MAX_KEPT: usize = 2_000;

impl ConnOut {
    /// Reserves — and touches — room for `n` answers up front, so the
    /// run's peak memory does not grow with the number of answers and
    /// `rss_peak_mb` tracks the server rather than the throughput.
    fn with_capacity(n: usize) -> Self {
        let mut answers = Vec::with_capacity(n);
        answers.resize(
            n,
            Answer {
                lat_ns: 1,
                ..Answer::default()
            },
        );
        answers.clear();
        Self {
            answers,
            ..Self::default()
        }
    }

    fn answer(&mut self, index: usize, line: &[u8], keep: bool, mut answer: Answer) {
        answer.len = u32::try_from(line.len()).unwrap_or(u32::MAX);
        answer.digest = digest(line);
        self.answers.push(answer);
        if keep && self.kept.len() < MAX_KEPT {
            self.kept.push((index, line.to_vec()));
        }
        if !is_ok_line(line) {
            let text = if self.failed.len() < 4 {
                String::from_utf8_lossy(&line[..line.len().min(300)]).into_owned()
            } else {
                String::new()
            };
            self.failed.push((index, text));
        }
    }
}

/// Traced runs alternate one-second slices with tracing off and on, so
/// the traced run also measures what tracing costs.
fn traced_slice(phase_start: Instant, at: Instant) -> bool {
    at.duration_since(phase_start).as_secs() % 2 == 1
}

/// Opens a client connection with generous timeouts.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

fn read_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    reader.read_until(b'\n', buf)?;
    if buf.last() != Some(&b'\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-run",
        ));
    }
    buf.pop();
    Ok(())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One closed-loop connection: from `phase_start` for `run_for`, sends
/// `queries` in order (wrapping), one outstanding request at a time. The
/// next request is due the moment the previous answer is read.
pub fn closed_loop(
    stream: TcpStream,
    queries: &[Query],
    phase_start: Instant,
    run_for: Duration,
    mut tracer: Option<Tracer>,
) -> std::io::Result<ConnOut> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut out = ConnOut::with_capacity(RESERVE_PER_SECOND * run_for.as_secs().max(1) as usize);
    let mut buf = Vec::with_capacity(1 << 16);
    sleep_until(phase_start);
    let end = phase_start + run_for;
    let mut due = phase_start;
    let mut index = 0usize;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let query = &queries[index % queries.len()];
        writer.write_all(&query.line)?;
        let t1 = Instant::now();
        read_line(&mut reader, &mut buf)?;
        let t2 = Instant::now();
        let traced = tracer.is_some() && traced_slice(phase_start, t0);
        let answer = Answer {
            lat_ns: ns32(t2 - t0),
            done_us: micros(t2 - phase_start),
            lag_ns: ns32(t0 - due),
            traced,
            ..Answer::default()
        };
        due = t2;
        if traced {
            let tracer = tracer.as_mut().expect("traced slices need a tracer");
            let (n0, n1, n2) = (tracer.at_ns(t0), tracer.at_ns(t1), tracer.at_ns(t2));
            let root = tracer.reserve();
            let write = tracer.reserve();
            tracer.record(write, root, "client.write", n0, n1);
            let read = tracer.reserve();
            tracer.record(read, root, "client.wait_read", n1, n2);
            tracer.record(root, 0, "client.request", n0, n2);
        }
        out.answer(index, &buf, query.keep, answer);
        index += 1;
    }
    out.tracer = tracer.take();
    Ok(out)
}

/// The open loop: a writer thread sends each line when it is due (never
/// waiting for answers); this thread reads the answers in order. Latency
/// runs from the due time to the answer, so a stall is also charged to
/// every request queued behind it.
pub fn open_loop(
    stream: TcpStream,
    sends: &[Send],
    phase_start: Instant,
    trace: bool,
    origin: Instant,
) -> std::io::Result<ConnOut> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let (lag_ns, mut out) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<u32>> {
            let mut lag = Vec::with_capacity(sends.len());
            for send in sends {
                let due = phase_start + Duration::from_nanos(send.due_ns);
                sleep_until(due);
                lag.push(ns32(due.elapsed()));
                writer.write_all(&send.line)?;
            }
            Ok(lag)
        });
        let mut out = ConnOut::with_capacity(sends.len());
        let mut tracer = trace.then(|| Tracer::new(origin, 9));
        let mut buf = Vec::with_capacity(1 << 16);
        let mut result = Ok(());
        for (index, send) in sends.iter().enumerate() {
            if let Err(e) = read_line(&mut reader, &mut buf) {
                result = Err(e);
                break;
            }
            let done = Instant::now();
            let due = phase_start + Duration::from_nanos(send.due_ns);
            let traced = trace && traced_slice(phase_start, due);
            let answer = Answer {
                lat_ns: ns32(done.saturating_duration_since(due)),
                done_us: micros(done - phase_start),
                traced,
                ..Answer::default()
            };
            if let (true, Some(tracer)) = (traced, tracer.as_mut()) {
                let (n0, n1) = (tracer.at_ns(due), tracer.at_ns(done));
                let id = tracer.reserve();
                tracer.record(id, 0, "client.request", n0, n1);
            }
            out.answer(index, &buf, false, answer);
        }
        out.tracer = tracer;
        // A failed read leaves the writer blocked on a full socket at
        // worst; closing our side unblocks it before the join.
        if result.is_err() {
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let lag = sender.join().expect("open-loop writer does not panic");
        result.and(lag.map(|lag| (lag, out)))
    })?;
    for (answer, lag) in out.answers.iter_mut().zip(lag_ns) {
        answer.lag_ns = lag;
    }
    Ok(out)
}

/// Sends `requests` one at a time on a fresh connection and returns the
/// response lines (used for warm-up, read-backs and the coverage tail).
pub fn roundtrips(addr: SocketAddr, lines: &[Vec<u8>]) -> std::io::Result<Vec<Vec<u8>>> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(lines.len());
    let mut buf = Vec::new();
    for line in lines {
        writer.write_all(line)?;
        read_line(&mut reader, &mut buf)?;
        out.push(buf.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_lines_are_recognised() {
        assert!(is_ok_line(
            br#"{"id":1,"ok":{"Breakeven":{"break_even_kmh":3.0}},"error":null}"#
        ));
        assert!(!is_ok_line(
            br#"{"id":1,"ok":null,"error":{"code":"queue_full","message":"x"}}"#
        ));
    }
}
