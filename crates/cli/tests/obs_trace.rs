//! `obs trace` end to end: a fault-injected server, a pinned `--trace`
//! retrying request, a flight-recorder dump, and the causal tree rebuilt
//! from the dump file.
//!
//! This test is alone in its binary on purpose. The flight recorder keeps
//! one ring per thread and hands the ring of an exited thread to the next
//! thread that starts recording. With other tests running beside it,
//! their threads could claim the rings of this test's finished server
//! handlers and overwrite the spans before the dump.

fn run_line(line: &str) -> Result<String, monityre_cli::CliError> {
    let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    monityre_cli::run(&argv)
}

/// Client attempts nest under the logical call, and server phases nest
/// under the attempt that carried them.
#[test]
fn obs_trace_reconstructs_a_request_tree_from_a_dump() {
    let plan = monityre_faults::FaultPlan::parse("2011:conn_reset=0.5").expect("plan");
    let handle = monityre_serve::ServerConfig {
        faults: Some(std::sync::Arc::new(plan)),
        ..Default::default()
    }
    .start()
    .expect("bind loopback");
    let addr = handle.addr();
    let trace = "00000000000000a1:0000000000000001";
    let out = run_line(&format!(
        "request --addr {addr} --op breakeven --id 7 --steps 48 \
         --retry --retry-attempts 12 --retry-seed 9 --trace {trace}"
    ))
    .unwrap();
    assert!(out.contains("Breakeven"), "{out}");
    handle.shutdown();

    // Dump the in-process rings (client and server threads share them in
    // this test binary) and reconstruct the tree from the file.
    let dump = std::env::temp_dir().join(format!("monityre-cli-dump-{}.jsonl", std::process::id()));
    let mut bytes = Vec::new();
    monityre_obs::recorder::dump_to(&mut bytes, "cli-test").expect("dump renders");
    std::fs::write(&dump, bytes).expect("dump file written");

    let tree = run_line(&format!(
        "obs trace 00000000000000a1 --from {}",
        dump.display()
    ))
    .unwrap();
    assert!(tree.starts_with("trace 00000000000000a1"), "{tree}");
    assert!(tree.contains("client.call"), "{tree}");
    // The attempt nests under the logical call; the server phases nest
    // under the attempt that carried them over the wire.
    assert!(tree.contains("  └─ client.attempt"), "{tree}");
    assert!(tree.contains("    └─ serve.queue_wait"), "{tree}");
    assert!(tree.contains("    └─ serve.dedup"), "{tree}");
    assert!(tree.contains("    └─ serve.execute"), "{tree}");
    let _ = std::fs::remove_file(&dump);
}
