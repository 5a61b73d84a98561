//! The `monityre` command-line tool.
//!
//! The paper's deliverable is a *tool* the system designer drives: set
//! conditions, sweep the balance, trace the node, emulate a trip,
//! optimize. This crate packages the workspace behind a small CLI:
//!
//! ```text
//! monityre balance   [--from 5] [--to 200] [--steps 100] [--temp 27]
//!                    [--corner tt] [--supply 1.2] [--chart]
//! monityre trace     [--speed 60] [--window-ms 500] [--step-us 100]
//! monityre emulate   [--cycle urban|eudc|wltc|nedc] [--repeat 1] [--cap-mf 47]
//! monityre optimize  [--speed 30] [--policy aware|naive]
//! monityre flow      [--speed 30]
//! monityre sheet     [--temp 27] [--set cell=value]... [--explain node.active_uw]
//! monityre explain   [--speed 60] [--json | --table] [--temp 27]
//!                    [--radio-loss P] [--radio-retries N] [--age-years Y]
//! monityre serve     [--bind 127.0.0.1] [--port 0] [--workers 2]
//!                    [--queue 64] [--cache 16] [--dedup 256]
//!                    [--faults SEED:KIND=P,...] [--announce /tmp/addr]
//!                    [--flight-recorder /tmp/dump.jsonl]
//!                    [--ingest-dir /tmp/segments] [--ingest-window-s 60]
//!                    [--scrape-interval-ms 1000] [--profile-interval-ms 10]
//!                    [--slo-fast-s 300] [--slo-slow-s 3600]
//! monityre request   [--addr HOST:PORT | --local] [--op breakeven] [--id 1]
//!                    [--deadline-ms 5000] [--steps 96] [--temp 85]
//!                    [--retry] [--retry-attempts 8] [--retry-backoff-ms 10]
//!                    [--retry-deadline-ms 60000] [--retry-seed N] [--idem K]
//!                    [--trace TRACE:SPAN]
//!                    [--cell NAME] [--value V | --formula EXPR]   (sheet ops)
//!                    [--ingest N] [--ingest-seed S] [--vehicle V]  (ingest ops)
//!                    [--metric NAME] [--resolution 10s] [--range-s N] (series)
//! monityre ingest    --dir /tmp/segments [--window-s 60] [--vehicle V] [--json]
//! monityre fleet     --addr HOST:PORT [--vehicles 6] [--rounds 48] [--seed 2011]
//!                    [--threads 1] [--optimize] [--json] | [--digest]
//! monityre obs       --addr HOST:PORT [--prometheus] [--dump]
//! monityre obs trace TRACE_ID --from /tmp/dump.jsonl
//! monityre obs series METRIC --addr HOST:PORT [--resolution 10s]
//!                    [--range-s N] [--json | --sparkline]
//! monityre obs profile --addr HOST:PORT [--json]
//! ```
//!
//! The command implementations return their output as a `String`, so the
//! whole surface is unit-testable without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod fleet;
mod ingest;
mod remote;

pub use args::{Args, CliError};

/// Entry point shared by `main` and the tests: parses `argv` (without the
/// program name) and runs the selected command.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed flags, or
/// evaluation failures; the message is ready to print.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (command, rest) = match argv.split_first() {
        None => return Ok(usage()),
        Some((c, rest)) => (c.as_str(), rest),
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(usage());
    }
    // The `obs` subcommands carry positionals the flag parser would
    // reject (`obs trace <trace-id>`, `obs series <metric>`, the bare
    // `obs profile`), so they are peeled off before `Args::parse`.
    if command == "obs" {
        if let Some((sub, tail)) = rest.split_first() {
            match sub.as_str() {
                "trace" => {
                    let Some((trace_id, tail)) =
                        tail.split_first().filter(|(id, _)| !id.starts_with("--"))
                    else {
                        return Err(CliError::new(
                            "usage: monityre obs trace <trace-id> --from <dump.jsonl>",
                        ));
                    };
                    let args = Args::parse(tail)?;
                    return remote::obs_trace(trace_id, &args);
                }
                "series" => {
                    let Some((metric, tail)) =
                        tail.split_first().filter(|(m, _)| !m.starts_with("--"))
                    else {
                        return Err(CliError::new(
                            "usage: monityre obs series <metric> --addr <host:port> \
                             [--resolution 10s] [--range-s N] [--json | --sparkline]",
                        ));
                    };
                    let args = Args::parse(tail)?;
                    return remote::obs_series(metric, &args);
                }
                "profile" => {
                    let args = Args::parse(tail)?;
                    return remote::obs_profile(&args);
                }
                _ => {}
            }
        }
    }
    let args = Args::parse(rest)?;
    match command {
        "balance" => commands::balance(&args),
        "trace" => commands::trace(&args),
        "emulate" => commands::emulate(&args),
        "optimize" => commands::optimize(&args),
        "flow" => commands::flow(&args),
        "sheet" => commands::sheet(&args),
        "mc" => commands::montecarlo(&args),
        "lifetime" => commands::lifetime(&args),
        "vehicle" => commands::vehicle(&args),
        "explain" => remote::explain(&args),
        "serve" => remote::serve(&args),
        "request" => remote::request(&args),
        "ingest" => ingest::ingest(&args),
        "fleet" => fleet::fleet(&args),
        "obs" => remote::obs(&args),
        other => Err(CliError::new(format!(
            "unknown command `{other}` (try `monityre help`)"
        ))),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "\
monityre — energy analysis for self-powered tyre monitoring systems

USAGE:
    monityre <command> [flags]

COMMANDS:
    balance    energy generated vs required per wheel round vs speed (Fig. 2)
    trace      instant node power over a limited window (Fig. 3)
    emulate    long-window emulation over a driving cycle
    optimize   duty-cycle-aware optimization of the node (re-estimation)
    flow       the full analysis flow, end to end (Fig. 1)
    sheet      the dynamic spreadsheet hosting the power database
    explain    per-block nanojoule energy ledger at one speed, with
               conservation checking (--json for the exact wire payload
               the `explain` op serves)
    mc         Monte Carlo process variation of the break-even speed
    lifetime   coin-cell vs tyre lifetime vs scavenger
    vehicle    four-corner availability over a driving cycle
    serve      run the batch evaluation server (line-delimited JSON over TCP)
    request    send one request to a server (or --local) and print the JSON
    ingest     replay a telemetry segment directory offline and print the
               reconstructed per-vehicle window state (--json for the exact
               IngestState payload a server over the same directory serves)
    fleet      stream a deterministic K-vehicle workload at a server and
               report per-vehicle break-evens (--json for the canonical
               golden-comparable report, --digest for the offline
               workload fingerprint, --optimize to also search configs)
    obs        fetch a server's stats snapshot (--prometheus for the raw
               exposition, --dump to trigger a flight-recorder dump)
    obs trace  pretty-print one request's span tree from a dump file
               (monityre obs trace <trace-id> --from <dump.jsonl>)
    obs series query one metric's self-scraped time-series ring
               (monityre obs series <metric> --addr HOST:PORT
                [--resolution 10s] [--range-s N] [--json | --sparkline])
    obs profile fetch the wall-clock sampler's flame table
               (monityre obs profile --addr HOST:PORT [--json])

COMMON FLAGS:
    --temp <C>          working temperature in °C        (default 27)
    --corner <ss|tt|ff> process corner                   (default tt)
    --supply <V>        supply voltage in volts          (default 1.2)
    --threads <N>       sweep worker threads; accepted by every evaluating
                        command, results are identical to serial (default 1)
    --trace-out <file>  write one JSON line per profiling span (same as
                        setting MONITYRE_TRACE=<file>)

Run `monityre <command> --help` is not needed — unknown flags are
rejected with the list of flags the command accepts.
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        run(&argv)
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("balance"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_line("help").unwrap().contains("USAGE"));
        assert!(run_line("--help").unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_rejected() {
        let err = run_line("frobnicate").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn balance_reports_break_even() {
        let out = run_line("balance --steps 60").unwrap();
        assert!(out.contains("break-even"), "{out}");
        assert!(out.contains("speed_kmh"));
    }

    #[test]
    fn balance_honours_conditions() {
        let cool = run_line("balance --steps 60 --temp -20").unwrap();
        let hot = run_line("balance --steps 60 --temp 85").unwrap();
        let pick = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("break-even"))
                .and_then(|l| l.split_whitespace().find_map(|w| w.parse::<f64>().ok()))
                .expect("break-even line carries a number")
        };
        assert!(pick(&hot) > pick(&cool));
    }

    #[test]
    fn trace_reports_peak_and_floor() {
        let out = run_line("trace --speed 60 --window-ms 250").unwrap();
        assert!(out.contains("peak"));
        assert!(out.contains("floor"));
    }

    #[test]
    fn emulate_reports_coverage() {
        let out = run_line("emulate --cycle urban").unwrap();
        assert!(out.contains("coverage"), "{out}");
    }

    #[test]
    fn optimize_reports_saving() {
        let out = run_line("optimize --speed 30 --policy aware").unwrap();
        assert!(out.contains("saved"), "{out}");
        assert!(out.contains("dsp"));
    }

    #[test]
    fn flow_prints_all_stages() {
        let out = run_line("flow").unwrap();
        for stage in 1..=6 {
            assert!(
                out.contains(&format!("Stage {stage}")),
                "missing stage {stage}"
            );
        }
    }

    #[test]
    fn sheet_prints_cells_and_explains() {
        let out = run_line("sheet --temp 85 --explain node.leak_uw").unwrap();
        assert!(out.contains("node.leak_uw"));
        assert!(out.contains("└─"));
    }

    /// `--set` is repeatable and applied in order: a numeric right-hand
    /// side is a literal, anything else a formula; the recompute summary
    /// line reports the compiled engine's wave counters.
    #[test]
    fn sheet_set_edits_cells_in_order() {
        let out =
            run_line("sheet --set what_if.base=2 --set what_if.double=what_if.base*2 --threads 2")
                .unwrap();
        assert!(out.contains("what_if.base"), "{out}");
        assert!(out.contains("4.0000"), "{out}");
        assert!(out.contains("recomputed"), "{out}");
    }

    #[test]
    fn sheet_rejects_malformed_set_specs() {
        let err = run_line("sheet --set nonsense").unwrap_err();
        assert!(err.to_string().contains("--set"), "{err}");
        let err = run_line("sheet --set no.such.cell=oops+1").unwrap_err();
        assert!(err.to_string().contains("no.such.cell"), "{err}");
    }

    #[test]
    fn request_local_sheet_ops_round_trip() {
        let out =
            run_line("request --local --op sheet_edit --cell what_if.base --value 2.5 --id 11")
                .unwrap();
        assert!(out.contains("SheetEdit"), "{out}");
        assert!(out.contains("\"id\":11"), "{out}");
        let out = run_line("request --local --op sheet_eval --cell node.active_uw").unwrap();
        assert!(out.contains("SheetEval"), "{out}");
    }

    #[test]
    fn mc_reports_distribution() {
        let out = run_line("mc --samples 24").unwrap();
        assert!(out.contains("mean"), "{out}");
        assert!(out.contains("yield"));
    }

    #[test]
    fn lifetime_reports_verdict() {
        let out = run_line("lifetime --hours-per-day 0.75 --in-tyre-cell").unwrap();
        assert!(out.contains("battery lasts"), "{out}");
        assert!(out.contains("scavenger sustains"));
    }

    #[test]
    fn vehicle_reports_corners() {
        let out = run_line("vehicle --cycle urban").unwrap();
        assert!(out.contains("FL"));
        assert!(out.contains("bottleneck"));
    }

    #[test]
    fn bad_flag_is_rejected_with_candidates() {
        let err = run_line("balance --bogus 1").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn bad_number_is_rejected() {
        let err = run_line("balance --from abc").unwrap_err();
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn bad_corner_is_rejected() {
        let err = run_line("balance --corner xx").unwrap_err();
        assert!(err.to_string().contains("xx"));
    }

    /// The `--threads` flag is accepted uniformly: every evaluating
    /// subcommand parses it (serial commands simply validate and ignore
    /// it) and every one rejects a non-positive value.
    #[test]
    fn every_evaluating_subcommand_accepts_threads() {
        let commands = [
            "balance --steps 24",
            "trace --window-ms 100",
            "emulate --cycle urban",
            "optimize",
            "flow",
            "sheet",
            "mc --samples 8",
            "lifetime",
            "vehicle --cycle urban",
            "explain --speed 60",
            "request --local --op ping",
        ];
        for command in commands {
            let line = format!("{command} --threads 2");
            run_line(&line).unwrap_or_else(|e| panic!("`{line}` rejected --threads: {e}"));
            let line = format!("{command} --threads 0");
            assert!(
                run_line(&line).is_err(),
                "`{line}` must reject zero threads"
            );
        }
    }

    #[test]
    fn request_local_evaluates_without_a_server() {
        let out = run_line("request --local --op breakeven --steps 48 --id 5").unwrap();
        assert!(out.contains("\"id\":5"), "{out}");
        assert!(out.contains("Breakeven"), "{out}");
    }

    #[test]
    fn request_reports_unknown_op_with_candidates() {
        let err = run_line("request --local --op frobnicate").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        assert!(err.to_string().contains("breakeven"));
    }

    #[test]
    fn request_command_drives_a_live_server() {
        let handle = monityre_serve::ServerConfig::default()
            .start()
            .expect("bind loopback");
        let addr = handle.addr();
        let out = run_line(&format!("request --addr {addr} --op ping --id 3")).unwrap();
        assert!(out.contains("Pong"), "{out}");
        assert!(out.contains("\"id\":3"), "{out}");
        handle.shutdown();
    }

    #[test]
    fn request_retry_survives_an_armed_fault_plan() {
        // conn_reset at 50%: a plain client would see torn connections;
        // the retrying client must still print the fault-free bytes.
        let plan = monityre_faults::FaultPlan::parse("2011:conn_reset=0.5").expect("plan");
        let handle = monityre_serve::ServerConfig {
            faults: Some(std::sync::Arc::new(plan)),
            ..Default::default()
        }
        .start()
        .expect("bind loopback");
        let addr = handle.addr();
        for id in 1..=8 {
            let out = run_line(&format!(
                "request --addr {addr} --op breakeven --id {id} --steps 48 \
                 --retry --retry-attempts 12 --retry-seed {id}"
            ))
            .unwrap();
            assert!(out.contains(&format!("\"id\":{id}")), "{out}");
            assert!(out.contains("Breakeven"), "{out}");
        }
        // Ledgers served through the fault plan still conserve.
        for speed in [90, 120] {
            let out = run_line(&format!(
                "request --addr {addr} --explain --speed {speed} \
                 --retry --retry-attempts 12 --retry-seed {speed}"
            ))
            .unwrap();
            assert!(out.contains("\"Explain\""), "{out}");
            assert!(out.contains("\"conserved\":true"), "{out}");
        }
        let stats = run_line(&format!("request --addr {addr} --op stats --retry")).unwrap();
        assert!(stats.contains("\"served\":"), "{stats}");
        // The retry layer's metrics surface in the `obs` report's client
        // section (they live in this process's global registry).
        let report = run_line(&format!("obs --addr {addr}")).unwrap();
        assert!(report.contains("retrying client"), "{report}");
        assert!(report.contains("client.attempts"), "{report}");
        handle.shutdown();
    }

    #[test]
    fn request_rejects_malformed_trace_contexts() {
        let err = run_line("request --local --op ping --trace not-a-trace").unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
        assert!(err.to_string().contains("16 hex"), "{err}");
    }

    #[test]
    fn obs_trace_requires_an_id_and_a_dump_file() {
        let err = run_line("obs trace").unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
        let err = run_line("obs trace 00000000000000a1").unwrap_err();
        assert!(err.to_string().contains("--from"), "{err}");
        let err = run_line("obs trace zzz --from /dev/null").unwrap_err();
        assert!(err.to_string().contains("hexadecimal"), "{err}");
    }

    #[test]
    fn request_local_ingest_ops_round_trip() {
        let out = run_line("request --local --op ingest --ingest 8 --vehicle 3 --id 21").unwrap();
        assert!(out.contains("\"Ingest\""), "{out}");
        assert!(out.contains("\"accepted\":8"), "{out}");
        assert!(out.contains("\"id\":21"), "{out}");
        // Local evaluation is stateless: an ingest_state on a fresh
        // pipeline reports no vehicles, not an error.
        let out = run_line("request --local --op ingest_state").unwrap();
        assert!(out.contains("\"IngestState\""), "{out}");
        assert!(out.contains("\"vehicles\":[]"), "{out}");
        // An ingest without a batch is a structured bad_request.
        let out = run_line("request --local --op ingest").unwrap();
        assert!(out.contains("bad_request"), "{out}");
    }

    /// The recovery-drill contract: `monityre ingest --json` over a
    /// directory a server wrote prints the byte-exact `IngestState`
    /// payload the same server serves for an unfiltered `ingest_state`.
    #[test]
    fn ingest_command_replays_a_served_directory_byte_exactly() {
        let dir = std::env::temp_dir().join(format!("monityre-cli-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = monityre_serve::ServerConfig {
            ingest_dir: Some(dir.clone()),
            ingest_window_us: 5_000_000,
            ..Default::default()
        }
        .start()
        .expect("bind loopback");
        let addr = handle.addr();
        let out = run_line(&format!(
            "request --addr {addr} --op ingest --ingest 48 --vehicle 5 --ingest-seed 2011"
        ))
        .unwrap();
        assert!(out.contains("\"accepted\":48"), "{out}");
        let served = run_line(&format!("request --addr {addr} --op ingest_state")).unwrap();
        handle.shutdown();

        let offline = run_line(&format!(
            "ingest --dir {} --window-s 5 --json",
            dir.display()
        ))
        .unwrap();
        let payload = offline.trim();
        assert!(payload.starts_with("{\"IngestState\""), "{offline}");
        assert!(
            served.contains(payload),
            "offline replay diverged from the served state:\n{served}\n{offline}"
        );

        let report = run_line(&format!("ingest --dir {} --window-s 5", dir.display())).unwrap();
        assert!(report.contains("replayed 48 point(s)"), "{report}");
        assert!(report.contains("vehicle"), "{report}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The extended scenario axes ride the `request` flags: present
    /// flags reach the wire and shift the break-even; absent flags keep
    /// the response identical to the pre-axis bytes.
    #[test]
    fn request_carries_the_scenario_axis_flags() {
        let plain = run_line("request --local --op breakeven --steps 48 --temp 25").unwrap();
        let loaded = run_line(
            "request --local --op breakeven --steps 48 --temp 25 \
             --radio-loss 0.2 --radio-retries 8 --age-years 6",
        )
        .unwrap();
        let pick = |s: &str| -> f64 {
            s.split("break_even_kmh\":")
                .nth(1)
                .and_then(|t| {
                    t.trim_end_matches(|c: char| !c.is_ascii_digit())
                        .parse()
                        .ok()
                })
                .unwrap_or_else(|| panic!("no break-even in {s}"))
        };
        assert!(
            pick(&loaded) > pick(&plain),
            "lossy radio + aged cap must raise the break-even:\n{plain}\n{loaded}"
        );
        // Out-of-range axis values are structured bad requests.
        let out = run_line("request --local --op breakeven --radio-loss 1.5").unwrap();
        assert!(out.contains("bad_request"), "{out}");
        let out = run_line("request --local --op breakeven --age-years -1").unwrap();
        assert!(out.contains("bad_request"), "{out}");
    }

    /// The offline ledger: the table attributes every block with shares
    /// and a conservation verdict, `--json` prints the exact ledger the
    /// `explain` wire op serves, and the axis flags add surcharge lines.
    #[test]
    fn explain_command_renders_a_conserving_ledger() {
        let out = run_line("explain --speed 60").unwrap();
        assert!(out.contains("energy ledger at 60.0 km/h"), "{out}");
        assert!(out.contains("conservation: ok"), "{out}");
        assert!(out.contains("dominant block"), "{out}");
        assert!(out.contains('%'), "{out}");

        let json = run_line("explain --speed 60 --json").unwrap();
        assert!(json.trim_start().starts_with('{'), "{json}");
        assert!(json.contains("\"conserved\":true"), "{json}");
        assert!(json.contains("\"blocks\""), "{json}");

        // The axis surcharges land as their own ledger lines.
        let loaded =
            run_line("explain --speed 60 --radio-loss 0.3 --radio-retries 5 --age-years 8")
                .unwrap();
        assert!(loaded.contains("radio retx"), "{loaded}");
        assert!(loaded.contains("ageing leak"), "{loaded}");
        assert!(loaded.contains("conservation: ok"), "{loaded}");

        // A non-positive speed is rejected before evaluation.
        let err = run_line("explain --speed 0").unwrap_err();
        assert!(err.to_string().contains("speed"), "{err}");
    }

    /// `request --explain` is shorthand for `--op explain`, and the
    /// served payload carries byte-identical ledger bytes to the offline
    /// `explain --json`.
    #[test]
    fn request_explain_matches_the_offline_ledger_bytes() {
        let offline = run_line("explain --speed 45 --json").unwrap();
        let local = run_line("request --local --explain --speed 45 --id 2").unwrap();
        assert!(local.contains("\"Explain\""), "{local}");
        assert!(
            local.contains(offline.trim()),
            "served ledger bytes diverged from offline explain:\n{local}\n{offline}"
        );

        let handle = monityre_serve::ServerConfig::default()
            .start()
            .expect("bind loopback");
        let served = run_line(&format!(
            "request --addr {} --explain --speed 45 --id 2",
            handle.addr()
        ))
        .unwrap();
        handle.shutdown();
        assert_eq!(served, local, "wire explain diverged from local evaluation");
    }

    #[test]
    fn request_local_optimize_reports_a_best_config() {
        let out = run_line("request --local --op optimize --steps 24 --id 9").unwrap();
        assert!(out.contains("\"Optimize\""), "{out}");
        assert!(out.contains("\"candidates\""), "{out}");
        assert!(out.contains("\"id\":9"), "{out}");
    }

    /// `fleet --digest` is the offline generator fingerprint: stable
    /// across invocations, sensitive to the seed.
    #[test]
    fn fleet_digest_is_stable_and_seed_sensitive() {
        let a = run_line("fleet --digest").unwrap();
        let b = run_line("fleet --digest").unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("fleet digest 0x"), "{a}");
        let other = run_line("fleet --digest --seed 7").unwrap();
        assert_ne!(a, other, "the digest must depend on the seed");
    }

    #[test]
    fn fleet_requires_an_address_and_sane_counts() {
        let err = run_line("fleet").unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
        let err = run_line("fleet --vehicles 0 --addr 127.0.0.1:1").unwrap_err();
        assert!(err.to_string().contains("--vehicles"), "{err}");
    }

    /// The fleet command end to end against a live server: the table
    /// reports every vehicle, and two `--json` runs against fresh
    /// servers produce byte-identical reports.
    #[test]
    fn fleet_command_streams_a_live_server_deterministically() {
        let serve = || {
            monityre_serve::ServerConfig::default()
                .start()
                .expect("bind loopback")
        };
        let handle = serve();
        let table = run_line(&format!(
            "fleet --addr {} --vehicles 2 --rounds 8",
            handle.addr()
        ))
        .unwrap();
        handle.shutdown();
        assert!(table.contains("fleet seed 2011"), "{table}");
        assert!(table.contains("km/h"), "{table}");

        let golden = |threads: usize| {
            let handle = serve();
            let out = run_line(&format!(
                "fleet --addr {} --vehicles 2 --rounds 8 --threads {threads} --json",
                handle.addr()
            ))
            .unwrap();
            handle.shutdown();
            out
        };
        let serial = golden(1);
        assert_eq!(serial, golden(2), "fleet bytes diverged across threads");
        assert!(serial.contains("\"ingest_state\""), "{serial}");

        // The whole reference fleet with the optimizer on: the server
        // stays healthy, and a second fresh server reproduces the bytes.
        let optimized = || {
            let handle = serve();
            let addr = handle.addr();
            let out = run_line(&format!(
                "fleet --addr {addr} --threads 4 --optimize --json"
            ))
            .unwrap();
            let health = run_line(&format!("request --addr {addr} --op health")).unwrap();
            handle.shutdown();
            assert!(health.contains("\"status\":\"ok\""), "{health}");
            out
        };
        let first = optimized();
        assert_eq!(first, optimized(), "fleet bytes diverged across servers");
        // Every reference cycle opens with a standstill that harvests
        // nothing, so each vehicle crosses at least one deficit edge.
        let report: monityre_fleet::FleetReport =
            serde_json::from_str(first.trim()).expect("fleet report parses");
        assert_eq!(report.vehicles.len(), 6);
        for vehicle in &report.vehicles {
            assert!(vehicle.alerts >= 1, "{vehicle:?}");
            assert!(vehicle.optimize.is_some(), "{vehicle:?}");
        }
    }

    #[test]
    fn ingest_command_requires_a_directory() {
        let err = run_line("ingest").unwrap_err();
        assert!(err.to_string().contains("--dir"), "{err}");
    }

    /// Seconds whose microseconds overflow `u64` are refused by both
    /// window flags before anything is opened or bound.
    #[test]
    fn window_flags_refuse_overflowing_seconds() {
        let err = run_line("ingest --dir unused --window-s 18446744073710").unwrap_err();
        assert!(err.to_string().contains("flag --window-s"), "{err}");
        let err = run_line("serve --port 0 --ingest-window-s 18446744073710").unwrap_err();
        assert!(err.to_string().contains("flag --ingest-window-s"), "{err}");
    }

    #[test]
    fn serve_rejects_malformed_fault_specs() {
        let err = run_line("serve --faults nonsense").unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    #[test]
    fn trace_out_captures_span_lines() {
        let trace =
            std::env::temp_dir().join(format!("monityre-cli-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&trace);
        let out = run_line(&format!(
            "balance --steps 24 --trace-out {}",
            trace.display()
        ))
        .unwrap();
        assert!(out.contains("break-even"), "{out}");
        let captured = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(
            captured
                .lines()
                .any(|l| l.contains("\"span\":\"balance.sweep\"")),
            "balance sweep span missing from trace: {captured}"
        );
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn obs_requires_an_address() {
        let err = run_line("obs").unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
    }

    #[test]
    fn obs_command_reports_a_live_server() {
        let handle = monityre_serve::ServerConfig::default()
            .start()
            .expect("bind loopback");
        let addr = handle.addr();
        // Serve one evaluation so the counters move.
        let out = run_line(&format!("request --addr {addr} --op breakeven --id 1")).unwrap();
        assert!(out.contains("Breakeven"), "{out}");

        let report = run_line(&format!("obs --addr {addr}")).unwrap();
        assert!(report.contains("served        1"), "{report}");
        assert!(report.contains("narrowed"), "{report}");
        assert!(report.contains("per-op latency"), "{report}");
        assert!(report.contains("breakeven"), "{report}");

        let text = run_line(&format!("obs --addr {addr} --prometheus")).unwrap();
        assert!(text.contains("monityre_serve_served 1"), "{text}");
        assert!(text.contains("# TYPE"), "{text}");
        handle.shutdown();
    }

    /// The observation surface end to end over one observing server:
    /// `obs series` in all three renderings, `obs profile`, `request
    /// --op health`, and the exemplar column of the plain `obs` report.
    #[test]
    fn obs_series_profile_and_health_report_a_live_server() {
        let handle = monityre_serve::ServerConfig {
            scrape_interval_us: 20_000,
            profile_interval_us: 2_000,
            ..Default::default()
        }
        .start()
        .expect("bind loopback");
        let addr = handle.addr();
        // Traced traffic so counters move and an exemplar exists.
        let trace = "00000000000000c7:0000000000000001";
        for id in 0..3 {
            let out = run_line(&format!(
                "request --addr {addr} --op breakeven --id {id} --trace {trace}"
            ))
            .unwrap();
            assert!(out.contains("Breakeven"), "{out}");
        }
        std::thread::sleep(std::time::Duration::from_millis(200));

        let table = run_line(&format!("obs series serve.served --addr {addr}")).unwrap();
        assert!(table.contains("series serve.served (counter"), "{table}");
        assert!(table.contains("3"), "{table}");

        let json = run_line(&format!("obs series serve.served --addr {addr} --json")).unwrap();
        assert!(json.contains("\"metric\":\"serve.served\""), "{json}");
        assert!(json.contains("\"kind\":\"counter\""), "{json}");

        let spark = run_line(&format!(
            "obs series serve.served --addr {addr} --sparkline"
        ))
        .unwrap();
        assert!(
            spark.chars().any(|c| ('▁'..='█').contains(&c)),
            "no blocks in {spark}"
        );
        let spark = run_line(&format!(
            "obs series serve.execute.p99_us --addr {addr} --sparkline"
        ))
        .unwrap();
        assert!(spark.contains("serve.execute.p99_us"), "{spark}");

        // An unknown metric surfaces the server's structured message.
        let err = run_line(&format!("obs series no.such.metric --addr {addr}")).unwrap_err();
        assert!(err.to_string().contains("no.such.metric"), "{err}");

        let flame = run_line(&format!("obs profile --addr {addr}")).unwrap();
        assert!(flame.contains("flame table:"), "{flame}");
        assert!(!flame.contains("sampler is disabled"), "{flame}");

        let health = run_line(&format!("request --addr {addr} --op health")).unwrap();
        assert!(health.contains("\"Health\""), "{health}");
        assert!(health.contains("error-ratio"), "{health}");

        // The per-op table names the slowest traced request.
        let report = run_line(&format!("obs --addr {addr}")).unwrap();
        assert!(report.contains("slowest trace"), "{report}");
        assert!(report.contains("00000000000000c7"), "{report}");
        handle.shutdown();
    }

    #[test]
    fn obs_series_requires_a_metric_and_an_address() {
        let err = run_line("obs series").unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
        let err = run_line("obs series serve.served").unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
        let err = run_line("obs profile").unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
    }

    /// A `series` request built from flags validates on the client side
    /// exactly as it would on the wire: the metric is required, the
    /// resolution must parse as a duration.
    #[test]
    fn request_local_series_flags_validate() {
        let out = run_line("request --local --op series").unwrap();
        assert!(out.contains("bad_request"), "{out}");
        let out = run_line("request --local --op series --metric x --resolution bogus").unwrap();
        assert!(out.contains("bad_request"), "{out}");
        assert!(out.contains("resolution"), "{out}");
    }

    #[test]
    fn serve_command_announces_and_drains() {
        use monityre_serve::{Op, Request};
        let announce = std::env::temp_dir().join(format!(
            "monityre-serve-announce-{}.txt",
            std::process::id()
        ));
        let recorder = std::env::temp_dir().join(format!(
            "monityre-serve-recorder-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&announce);
        let _ = std::fs::remove_file(&recorder);
        let line = format!(
            "serve --port 0 --workers 1 --announce {} --flight-recorder {} \
             --scrape-interval-ms 100 --profile-interval-ms 5 --slo-fast-s 5 --slo-slow-s 60",
            announce.display(),
            recorder.display()
        );
        let server = std::thread::spawn(move || run_line(&line));

        // Poll the announce file for the resolved ephemeral address.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&announce) {
                let text = text.trim().to_owned();
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never announced its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        let mut client = monityre_serve::Client::connect(addr.as_str()).expect("connect");
        let pong = client.request(&Request::new(Op::Ping)).expect("ping");
        assert!(pong.is_ok());

        // `obs --dump` is the wire replacement for SIGUSR1: the server
        // appends its flight-recorder rings to the armed path and acks.
        let dumped = run_line(&format!("obs --addr {addr} --dump")).unwrap();
        assert!(dumped.contains("flight recorder dumped"), "{dumped}");
        assert!(dumped.contains(&recorder.display().to_string()), "{dumped}");
        let dump_text = std::fs::read_to_string(&recorder).expect("dump file written");
        // `contains`, not `starts_with`: once the path is armed, fault
        // injections from tests running in parallel may dump first.
        assert!(
            dump_text.contains("{\"dump\":\"wire_request\""),
            "{dump_text}"
        );

        let ack = client
            .request(&Request::new(Op::Shutdown))
            .expect("shutdown");
        assert!(ack.is_ok());

        let out = server.join().expect("serve thread").expect("serve result");
        assert!(out.contains("server drained"), "{out}");
        let _ = std::fs::remove_file(&announce);
        let _ = std::fs::remove_file(&recorder);
    }
}
