//! The crash-recovery drill against the real binary: a `monityre serve`
//! child process is SIGKILLed while a vehicle streams ingest batches at
//! it, and the segment store it leaves behind must replay byte for byte,
//! offline and through a restarted server.
//!
//! Every child is held by a [`Server`] guard that kills and reaps it on
//! drop, so a failing assert never leaks a server. Everything the
//! children write lands under one temporary directory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_monityre-cli");

/// The window state of vehicle 5 after the 48-point seed-2011 synthetic
/// batch, serialized exactly as `monityre ingest --json` and a served
/// `ingest_state` print it. One byte of drift in the codec, the window
/// arithmetic or the serializer fails the comparison.
const GOLDEN: &str = r#"{"IngestState":{"window_us":5000000,"vehicles":[{"vehicle":5,"points":20,"harvested_j":0.019823298,"consumed_j":0.02,"net_j":-0.000176702,"in_deficit":true,"alerts":3,"newest_ts_us":12750000}]}}"#;

/// Vehicle-9 batches the server must acknowledge before it is killed.
const ACKED_BEFORE_KILL: usize = 4;

/// How long a child may take to announce its address or to exit before
/// the test gives up (a hang bound, not a timing assert).
const PATIENCE: Duration = Duration::from_secs(60);

fn run_line(line: &str) -> Result<String, monityre_cli::CliError> {
    let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    monityre_cli::run(&argv)
}

/// A temporary directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("monityre-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `monityre serve` child that is killed and reaped when dropped.
struct Server {
    child: Child,
}

impl Server {
    fn spawn(command: &mut Command) -> Self {
        let child = command.spawn().expect("spawn monityre-cli");
        Self { child }
    }

    /// Serves a durable ingest store in `dir` with 5 s windows and
    /// returns the child with the address it announced.
    fn ingest(dir: &Path, announce: &Path) -> (Self, String) {
        let _ = std::fs::remove_file(announce);
        let mut server = Self::spawn(
            Command::new(BIN)
                .args(["serve", "--port", "0", "--workers", "1", "--threads", "1"])
                .arg("--ingest-dir")
                .arg(dir)
                .args(["--ingest-window-s", "5", "--announce"])
                .arg(announce)
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        );
        let deadline = Instant::now() + PATIENCE;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(announce) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            if let Some(status) = server.child.try_wait().expect("poll child") {
                panic!("serve exited with {status} before announcing");
            }
            assert!(Instant::now() < deadline, "serve never announced");
            std::thread::sleep(Duration::from_millis(10));
        };
        (server, addr)
    }

    /// Waits for the child to exit on its own.
    fn exit_status(&mut self) -> ExitStatus {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll child") {
                return status;
            }
            assert!(Instant::now() < deadline, "serve never exited");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `kill -9` mid-ingest, then replay: the offline tool and a restarted
/// server over the dead server's segments agree byte for byte, and
/// vehicle 5's window equals the pinned golden.
#[test]
fn sigkill_mid_ingest_replays_byte_identically() {
    let tmp = TempDir::new("kill-replay");
    let segments = tmp.0.join("segments");
    let announce = tmp.0.join("addr");
    let segdir = segments.display().to_string();

    let (mut server, addr) = Server::ingest(&segments, &announce);
    let out = run_line(&format!(
        "request --addr {addr} --op ingest --ingest 48 --vehicle 5 --ingest-seed 2011 --id 1"
    ))
    .unwrap();
    assert!(out.contains("\"accepted\":48"), "{out}");

    // Vehicle 9 streams until the server dies; each acknowledged batch
    // is reported, so the kill lands after a fixed count of them.
    let (acked, acks) = mpsc::channel();
    let stream = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            for seed in 100.. {
                let line = format!(
                    "request --addr {addr} --op ingest --ingest 64 --vehicle 9 --ingest-seed {seed}"
                );
                match run_line(&line) {
                    Ok(out) if out.contains("\"accepted\":64") => {
                        let _ = acked.send(());
                    }
                    _ => break,
                }
            }
        })
    };
    for _ in 0..ACKED_BEFORE_KILL {
        acks.recv_timeout(PATIENCE)
            .expect("vehicle 9 batch acknowledged");
    }
    server.child.kill().expect("SIGKILL the server");
    let status = server.child.wait().expect("reap the killed server");
    assert!(!status.success(), "a killed server cannot exit cleanly");
    stream.join().expect("stream thread");

    // Offline replay over the dead server's segments.
    let offline5 = run_line(&format!(
        "ingest --dir {segdir} --window-s 5 --vehicle 5 --json"
    ))
    .unwrap();
    assert_eq!(offline5, format!("{GOLDEN}\n"));
    let offline = run_line(&format!("ingest --dir {segdir} --window-s 5 --json")).unwrap();
    assert!(offline.contains("\"vehicle\":9"), "{offline}");
    let report = run_line(&format!("ingest --dir {segdir} --window-s 5")).unwrap();
    assert!(report.contains("2 vehicle(s)"), "{report}");

    // A restarted server over the same directory serves the same state.
    let (mut restarted, addr) = Server::ingest(&segments, &announce);
    let served = run_line(&format!("request --addr {addr} --op ingest_state --id 2")).unwrap();
    assert!(
        served.contains(offline.trim()),
        "restart diverged from the offline replay:\n{served}\n{offline}"
    );
    let served5 = run_line(&format!(
        "request --addr {addr} --op ingest_state --vehicle 5 --id 3"
    ))
    .unwrap();
    assert!(served5.contains(GOLDEN), "{served5}");

    let ack = run_line(&format!("request --addr {addr} --op shutdown --id 4")).unwrap();
    assert!(ack.contains("\"Draining\""), "{ack}");
    let status = restarted.exit_status();
    assert!(status.success(), "restarted server exited with {status}");
}

/// A malformed `MONITYRE_THREADS` stops `serve` at startup instead of
/// being replaced by the hardware thread count. The variable is set on
/// the child only.
#[test]
fn serve_refuses_a_malformed_threads_override() {
    let mut server = Server::spawn(
        Command::new(BIN)
            .args(["serve", "--port", "0"])
            .env(monityre_core::THREADS_ENV_VAR, "0")
            .stdout(Stdio::null())
            .stderr(Stdio::piped()),
    );
    let status = server.exit_status();
    let mut stderr = String::new();
    std::io::Read::read_to_string(
        server.child.stderr.as_mut().expect("piped stderr"),
        &mut stderr,
    )
    .expect("read stderr");
    assert!(!status.success(), "serve started: {stderr}");
    assert!(stderr.contains("MONITYRE_THREADS"), "{stderr}");
}
