//! The telemetry point and its on-disk record codec.
//!
//! One point is one wheel round observed by a tyre node: who (vehicle,
//! wheel), when (round counter, timestamp) and the energy ledger of that
//! round (harvested vs consumed). Energies travel as **integer
//! nanojoules** on purpose: integer sums are exactly associative, so the
//! sliding-window engine's add-on-insert / subtract-on-evict bookkeeping
//! is bit-identical whether the points arrive live or are replayed from
//! the segment store — the crash-recovery invariant the whole subsystem
//! is built around. (An `f64` running sum would drift by an ulp the
//! moment eviction history differed.)
//!
//! The disk record is `[len: u32 LE][crc32: u32 LE][payload]` with a
//! fixed 44-byte little-endian payload. The decoder never panics: every
//! way the bytes can be damaged — truncated mid-record, length field
//! garbage, payload bit-flips — maps to a typed [`DecodeError`], and the
//! fuzzing suite in `tests/properties.rs` pins that down.

use serde::{Deserialize, Serialize};

/// One wheel round's telemetry sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryPoint {
    /// Vehicle identifier.
    pub vehicle: u64,
    /// Wheel position on the vehicle (0–3 on a car; the wire accepts any
    /// small index so trailers and test rigs fit).
    pub wheel: u32,
    /// Monotonic wheel-round counter of the reporting node.
    pub round: u64,
    /// Sample timestamp in microseconds (node clock).
    pub ts_us: u64,
    /// Energy harvested during this round, nanojoules.
    pub harvested_nj: u64,
    /// Energy consumed during this round, nanojoules.
    pub consumed_nj: u64,
}

/// Fixed encoded payload size of one point (all fields little-endian).
pub const RECORD_PAYLOAD_BYTES: usize = 44;

/// Full framed record size: length prefix + checksum + payload.
pub const RECORD_BYTES: usize = 8 + RECORD_PAYLOAD_BYTES;

/// Why a framed record failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remain than a complete record needs — at a file tail
    /// this is a torn write, the normal crash artifact.
    Truncated,
    /// The length prefix is not the one payload size this version writes
    /// — the frame boundary is lost, the bytes are garbage.
    BadLength {
        /// The length the damaged prefix claimed.
        claimed: u32,
    },
    /// The payload does not match its CRC32 — bit rot or a partially
    /// overwritten record.
    BadChecksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("record is truncated"),
            DecodeError::BadLength { claimed } => {
                write!(f, "record claims length {claimed}, expected 44")
            }
            DecodeError::BadChecksum => f.write_str("record fails its checksum"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// CRC32 (IEEE, reflected — the zlib polynomial) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

impl TelemetryPoint {
    /// Appends this point's framed record to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut payload = [0u8; RECORD_PAYLOAD_BYTES];
        payload[0..8].copy_from_slice(&self.vehicle.to_le_bytes());
        payload[8..12].copy_from_slice(&self.wheel.to_le_bytes());
        payload[12..20].copy_from_slice(&self.round.to_le_bytes());
        payload[20..28].copy_from_slice(&self.ts_us.to_le_bytes());
        payload[28..36].copy_from_slice(&self.harvested_nj.to_le_bytes());
        payload[36..44].copy_from_slice(&self.consumed_nj.to_le_bytes());
        out.extend_from_slice(&(RECORD_PAYLOAD_BYTES as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }

    /// Decodes one framed record from the front of `buf`, returning the
    /// point and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns the typed [`DecodeError`]; never panics, whatever the
    /// bytes. Replay treats any error as "the valid prefix ends here".
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        if buf.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let claimed = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if claimed as usize != RECORD_PAYLOAD_BYTES {
            return Err(DecodeError::BadLength { claimed });
        }
        if buf.len() < RECORD_BYTES {
            return Err(DecodeError::Truncated);
        }
        let want = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let payload = &buf[8..RECORD_BYTES];
        if crc32(payload) != want {
            return Err(DecodeError::BadChecksum);
        }
        let u64_at = |at: usize| {
            u64::from_le_bytes(payload[at..at + 8].try_into().expect("fixed 8-byte slice"))
        };
        let point = Self {
            vehicle: u64_at(0),
            wheel: u32::from_le_bytes(payload[8..12].try_into().expect("fixed 4-byte slice")),
            round: u64_at(12),
            ts_us: u64_at(20),
            harvested_nj: u64_at(28),
            consumed_nj: u64_at(36),
        };
        Ok((point, RECORD_BYTES))
    }
}

/// Decodes the longest valid record prefix of `buf`: the points, and how
/// many bytes of valid records precede the damage (or the end). This is
/// the whole recovery story in one function — startup replay calls it
/// per segment and truncates the active segment to the returned length.
#[must_use]
pub fn decode_prefix(buf: &[u8]) -> (Vec<TelemetryPoint>, usize) {
    let mut points = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        match TelemetryPoint::decode(&buf[at..]) {
            Ok((point, used)) => {
                points.push(point);
                at += used;
            }
            Err(_) => break,
        }
    }
    (points, at)
}

/// Deterministic synthetic telemetry for drills, benches and the CLI
/// batch sender: `count` rounds of vehicle `vehicle` starting at
/// `start_ts_us`, 4 rounds per second across wheels 0–3. Harvested
/// energy is seeded splitmix64 noise in 0.8–1.2 mJ around the 1 mJ
/// consumption, so a run hovers near break-even and the deficit edge
/// actually exercises. Same `(vehicle, count, seed, start)` → same
/// points, byte for byte — the crash drill (`monityre-cli`'s
/// `tests/kill_replay.rs`) pins a golden aggregate on
/// exactly that.
#[must_use]
pub fn synthetic_points(
    vehicle: u64,
    count: usize,
    seed: u64,
    start_ts_us: u64,
) -> Vec<TelemetryPoint> {
    (0..count)
        .map(|i| {
            let i64 = i as u64;
            let noise = monityre_obs::splitmix64(seed ^ i64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            TelemetryPoint {
                vehicle,
                wheel: (i % 4) as u32,
                round: i64,
                ts_us: start_ts_us + i64 * 250_000,
                harvested_nj: 800_000 + noise % 400_001,
                consumed_nj: 1_000_000,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> TelemetryPoint {
        TelemetryPoint {
            vehicle: 7,
            wheel: (i % 4) as u32,
            round: i,
            ts_us: 1_000_000 + i * 250_000,
            harvested_nj: 900_000 + i,
            consumed_nj: 1_000_000,
        }
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        for i in 0..16 {
            sample(i).encode(&mut buf);
        }
        assert_eq!(buf.len(), 16 * RECORD_BYTES);
        let (points, used) = decode_prefix(&buf);
        assert_eq!(used, buf.len());
        assert_eq!(points.len(), 16);
        assert_eq!(points[3], sample(3));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn truncation_stops_at_the_last_valid_record() {
        let mut buf = Vec::new();
        for i in 0..4 {
            sample(i).encode(&mut buf);
        }
        for cut in 1..RECORD_BYTES {
            let torn = &buf[..3 * RECORD_BYTES + cut];
            let (points, used) = decode_prefix(torn);
            assert_eq!(points.len(), 3, "cut {cut}");
            assert_eq!(used, 3 * RECORD_BYTES, "cut {cut}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        sample(1).encode(&mut buf);
        // Flip one payload byte: checksum must catch it.
        buf[20] ^= 0x01;
        assert_eq!(TelemetryPoint::decode(&buf), Err(DecodeError::BadChecksum));
        // Damage the length prefix: the frame boundary is lost.
        let mut buf2 = Vec::new();
        sample(1).encode(&mut buf2);
        buf2[0] = 0xff;
        assert!(matches!(
            TelemetryPoint::decode(&buf2),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn wire_json_round_trips() {
        let point = sample(5);
        let json = serde_json::to_string(&point).unwrap();
        assert!(json.contains("\"harvested_nj\""), "{json}");
        let back: TelemetryPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, point);
    }

    #[test]
    fn synthetic_points_are_deterministic() {
        let a = synthetic_points(7, 32, 2011, 1_000_000);
        let b = synthetic_points(7, 32, 2011, 1_000_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a
            .iter()
            .all(|p| (800_000..=1_200_000).contains(&p.harvested_nj)));
        let c = synthetic_points(7, 32, 2012, 1_000_000);
        assert_ne!(a, c, "seed must matter");
    }
}
