//! The `fleet` subcommand — stream a deterministic K-vehicle workload
//! at a running server and report the per-vehicle outcome.
//!
//! The fleet is a pure function of `--seed`: the same seed produces
//! byte-identical telemetry, break-evens, and final window state on any
//! machine at any `--threads`, which is what the golden-fleet tests
//! lean on (`--json` prints the canonical report bytes they compare).

use std::fmt::Write as _;

use monityre_fleet::{run_fleet, FleetRun, FleetSpec};

use crate::{Args, CliError};

/// `monityre fleet` — build the seeded fleet, stream it at `--addr`,
/// and print either a readable table or the canonical JSON report.
pub(crate) fn fleet(args: &Args) -> Result<String, CliError> {
    let vehicles: u64 = crate::remote::parse_opt(args, "vehicles")?.unwrap_or(6);
    let rounds: u64 = crate::remote::parse_opt(args, "rounds")?.unwrap_or(48);
    let seed: u64 =
        crate::remote::parse_opt(args, "seed")?.unwrap_or(monityre_fleet::REFERENCE_SEED);
    let threads = args.count("threads", 1)?;
    let optimize = args.flag("optimize");
    let json = args.flag("json");
    let digest_only = args.flag("digest");
    let addr = args.text_opt("addr");
    args.finish()?;

    if vehicles == 0 {
        return Err(CliError::new("flag --vehicles: must be positive"));
    }
    let rounds = u32::try_from(rounds)
        .ok()
        .filter(|r| *r > 0)
        .ok_or_else(|| CliError::new("flag --rounds: must be a positive u32"))?;

    let spec = FleetSpec::reference()
        .with_vehicles(vehicles)
        .with_rounds(rounds)
        .with_seed(seed);

    // `--digest` answers without a server: print the generator's
    // fingerprint for this spec and stop; two of these match when the
    // workload generator is bit-stable.
    if digest_only {
        let digest = spec
            .workload_digest()
            .map_err(|e| CliError::new(format!("fleet: {e}")))?;
        return Ok(format!("fleet digest 0x{digest:016x}\n"));
    }

    let addr = addr.ok_or_else(|| {
        CliError::new("flag --addr <host:port> is required (a running `monityre serve`)")
    })?;
    let run = FleetRun::new(spec)
        .with_threads(threads)
        .with_optimize(optimize);
    let sock = std::net::ToSocketAddrs::to_socket_addrs(&addr.as_str())
        .map_err(|e| CliError::new(format!("fleet: cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| CliError::new(format!("fleet: {addr} resolves to nothing")))?;
    let report = run_fleet(sock, &run).map_err(|e| CliError::new(format!("fleet: {e}")))?;

    if json {
        return Ok(format!("{}\n", report.canonical_json()));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet seed {seed}: {vehicles} vehicle(s) × {rounds} round(s) → {} point(s) \
         (digest 0x{:016x})",
        report.accepted_total(),
        report.workload_digest
    );
    let _ = writeln!(
        out,
        "  {:>7}  {:<6} {:>7} {:>11} {:>9} {:>9} {:>7} {:>12}",
        "vehicle", "cycle", "temp_c", "radio", "age_yr", "accepted", "alerts", "breakeven"
    );
    for v in &report.vehicles {
        let radio = match (v.radio_loss_prob, v.radio_retries) {
            (Some(p), Some(n)) => format!("{p:.2}/{n}"),
            _ => "-".to_owned(),
        };
        let age = v
            .age_years
            .map_or_else(|| "-".to_owned(), |a| format!("{a:.1}"));
        let breakeven = v
            .break_even_kmh
            .map_or_else(|| "never".to_owned(), |k| format!("{k:.2} km/h"));
        let _ = writeln!(
            out,
            "  {:>7}  {:<6} {:>7.1} {:>11} {:>9} {:>9} {:>7} {:>12}",
            v.vehicle, v.cycle, v.temp_c, radio, age, v.accepted, v.alerts, breakeven
        );
        if let Some(report) = &v.optimize {
            let best = report
                .best_kmh
                .map_or_else(|| "never".to_owned(), |k| format!("{k:.2} km/h"));
            let _ = writeln!(
                out,
                "           optimize: best {best} over {} candidate(s), saves {:.2} km/h",
                report.candidates,
                report.improvement_kmh()
            );
            if let Some(saving) = report.dominant_saving() {
                let _ = writeln!(
                    out,
                    "           because: {} drops {:.1}% ({} nJ/round)",
                    saving.component,
                    -saving.delta_pct(),
                    saving.delta_nj()
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "  window state: {} vehicle(s), {} alert edge(s) total",
        report.ingest_state.len(),
        report.alerts_total()
    );
    Ok(out)
}
