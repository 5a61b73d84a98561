//! The `ingest` subcommand — offline inspection of a telemetry segment
//! directory.
//!
//! `monityre ingest --dir <segments>` replays the crash-safe segment
//! store through a fresh window engine — exactly what a restarting
//! server does — and reports the reconstructed per-vehicle state. With
//! `--json` it prints the *byte-exact* serialization of the
//! `IngestState` payload a server over the same directory would serve,
//! so a recovery check can find the offline replay verbatim inside a
//! live `ingest_state` response (`crates/cli/tests/kill_replay.rs` does,
//! after killing the server mid-ingest).

use std::fmt::Write as _;

use monityre_ingest::{IngestConfig, Ingestor, DEFAULT_WINDOW_US};
use monityre_serve::Payload;

use crate::{Args, CliError};

/// A window flag (`--window-s`, `serve --ingest-window-s`) in
/// microseconds: positive seconds, the ingest default when absent, and
/// refused when the microseconds overflow `u64`.
pub(crate) fn window_flag_us(args: &Args, name: &str) -> Result<u64, CliError> {
    let default_s = DEFAULT_WINDOW_US / 1_000_000;
    let window_s = args.count(name, usize::try_from(default_s).unwrap_or(60))?;
    (window_s as u64).checked_mul(1_000_000).ok_or_else(|| {
        CliError::new(format!(
            "flag --{name}: {window_s} s overflows u64 microseconds"
        ))
    })
}

/// `monityre ingest` — replay a segment directory and print the
/// reconstructed window state.
pub(crate) fn ingest(args: &Args) -> Result<String, CliError> {
    let dir = args.text_opt("dir").ok_or_else(|| {
        CliError::new("flag --dir <path> is required (a server's --ingest-dir segment directory)")
    })?;
    let window_us = window_flag_us(args, "window-s")?;
    let vehicle: Option<u64> = crate::remote::parse_opt(args, "vehicle")?;
    let json = args.flag("json");
    args.finish()?;

    let ingestor = Ingestor::open(IngestConfig {
        dir: Some(dir.clone().into()),
        window_us,
        ..IngestConfig::default()
    })
    .map_err(|e| CliError::new(format!("ingest: cannot replay `{dir}`: {e}")))?;

    let vehicles = match vehicle {
        Some(id) => ingestor.state_of(id).into_iter().collect(),
        None => ingestor.state(),
    };
    if json {
        // Byte-exact: the same Payload type the server serializes, so
        // this line appears verbatim inside a live `ingest_state`
        // response over the same directory.
        let payload = Payload::IngestState {
            window_us,
            vehicles,
        };
        let line = serde_json::to_string(&payload)
            .map_err(|e| CliError::new(format!("serialize state: {e}")))?;
        return Ok(format!("{line}\n"));
    }

    let replay = ingestor.replay_report();
    let mut out = String::new();
    let _ = writeln!(out, "segment store {dir}");
    let _ = writeln!(
        out,
        "  replayed {} point(s) from {} segment(s)",
        replay.points, replay.segments
    );
    if replay.truncated_bytes > 0 {
        let _ = writeln!(
            out,
            "  torn tail truncated: {} byte(s) discarded",
            replay.truncated_bytes
        );
    }
    if replay.stopped_early {
        let _ = writeln!(
            out,
            "  WARNING: mid-history corruption — replay stopped at the last valid prefix"
        );
    }
    let _ = writeln!(
        out,
        "  window {} s, {} vehicle(s), {} alert edge(s) crossed",
        window_us / 1_000_000,
        ingestor.vehicles(),
        ingestor.alerts_total()
    );
    if vehicles.is_empty() {
        let _ = writeln!(out, "  (no matching vehicle state)");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "  {:>8} {:>7} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "vehicle", "points", "harvested_j", "consumed_j", "net_j", "deficit", "alerts"
    );
    for w in &vehicles {
        let _ = writeln!(
            out,
            "  {:>8} {:>7} {:>12.6} {:>12.6} {:>12.6} {:>8} {:>7}",
            w.vehicle,
            w.points,
            w.harvested_j,
            w.consumed_j,
            w.net_j,
            if w.in_deficit { "YES" } else { "no" },
            w.alerts
        );
    }
    Ok(out)
}
