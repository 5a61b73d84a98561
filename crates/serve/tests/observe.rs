//! Loopback tests for the continuous self-observation subsystem: the
//! scrape loop filling the time-series rings (`series` op), the SLO
//! engine's burn-rate readiness answer (`health` op) transitioning
//! ok → degraded → ok under an injected fault storm, and the wall-clock
//! profiler's flame table (`profile` op).

use std::thread;
use std::time::{Duration, Instant};

use monityre_obs::{HealthReport, SloKind, SloSpec};
use monityre_serve::{Client, ErrorCode, Op, Payload, Request, ServerConfig};

/// An observation-heavy config: scrape every 20 ms, profile at 2 ms, so
/// seconds-scale tests see many samples.
fn observing_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        scrape_interval_us: 20_000,
        profile_interval_us: 2_000,
        ..ServerConfig::default()
    }
}

fn health_report(client: &mut Client) -> HealthReport {
    let response = client
        .request(&Request::new(Op::Health))
        .expect("health request");
    match response.ok.expect("health is infallible") {
        Payload::Health(report) => report,
        other => panic!("unexpected payload {other:?}"),
    }
}

fn health_status(client: &mut Client) -> String {
    health_report(client).status
}

/// Names of the SLO transition events in the flight recorder.
fn slo_transitions() -> Vec<String> {
    monityre_obs::recorder::snapshot()
        .into_iter()
        .filter(|r| {
            r.name
                .starts_with(monityre_obs::names::SLO_TRANSITION_EVENT)
        })
        .map(|r| r.name.into_owned())
        .collect()
}

/// Polls `health` until it reports `want` (or panics after `patience`).
fn await_status(client: &mut Client, want: &str, patience: Duration) {
    let start = Instant::now();
    let mut last = String::new();
    while start.elapsed() < patience {
        last = health_status(client);
        if last == want {
            return;
        }
        thread::sleep(Duration::from_millis(100));
    }
    panic!("health never reached `{want}` (stuck at `{last}`)");
}

#[test]
fn series_health_and_profile_ops_serve_over_the_wire() {
    let handle = observing_config().start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Generate some traffic so counters move.
    for i in 0..5u64 {
        let response = client
            .request(&Request::new(Op::Breakeven).with_id(i))
            .expect("request");
        assert!(response.is_ok());
    }
    // Let the scrape loop take a few samples.
    thread::sleep(Duration::from_millis(200));

    // `series` returns the served counter's ring.
    let mut request = Request::new(Op::Series);
    request.params.metric = Some("serve.served".to_owned());
    let response = client.request(&request).expect("series request");
    match response.ok.expect("series answers") {
        Payload::Series(slice) => {
            assert_eq!(slice.metric, "serve.served");
            assert_eq!(slice.kind, "counter");
            assert!(!slice.points.is_empty());
            let last = slice.points.last().unwrap().counter.expect("counter");
            assert!(last >= 5, "served counter sampled at {last}");
        }
        other => panic!("unexpected payload {other:?}"),
    }

    // Derived histogram quantiles are sampled as gauges.
    let mut request = Request::new(Op::Series);
    request.params.metric = Some("serve.execute.p99_us".to_owned());
    request.params.resolution = Some("1s".to_owned());
    let response = client.request(&request).expect("series request");
    match response.ok.expect("series answers") {
        Payload::Series(slice) => {
            assert_eq!(slice.kind, "gauge");
            assert_eq!(slice.step_us, 1_000_000);
            assert!(!slice.points.is_empty());
        }
        other => panic!("unexpected payload {other:?}"),
    }

    // The per-block energy ledger gauges are scraped into series from
    // the startup ledger, before any `explain` traffic arrives.
    let mut request = Request::new(Op::Series);
    request.params.metric = Some("energy.block.radio.dynamic_nj".to_owned());
    let response = client.request(&request).expect("series request");
    match response.ok.expect("ledger gauge series answers") {
        Payload::Series(slice) => {
            assert_eq!(slice.kind, "gauge");
            assert!(!slice.points.is_empty());
            let last = slice.points.last().unwrap().gauge.expect("gauge sample");
            assert!(
                last.last > 0.0,
                "radio dynamic energy must be positive: {last:?}"
            );
        }
        other => panic!("unexpected payload {other:?}"),
    }

    // An unknown metric is a structured error, not a hang or a panic —
    // and the message names the nearest recorded series so a typo is a
    // one-round-trip fix.
    let mut request = Request::new(Op::Series);
    request.params.metric = Some("serve.servd".to_owned());
    let response = client.request(&request).expect("series request");
    assert_eq!(response.error_code(), Some(ErrorCode::EvalFailed));
    let message = response.error.as_ref().expect("wire error").message.clone();
    assert!(
        message.contains("`serve.servd`"),
        "error must echo the requested metric: {message}"
    );
    assert!(
        message.contains("`serve.served`"),
        "error must suggest the nearest recorded metric: {message}"
    );

    // `health` answers with the three default objectives, all ok.
    let response = client
        .request(&Request::new(Op::Health))
        .expect("health request");
    match response.ok.expect("health answers") {
        Payload::Health(report) => {
            assert_eq!(report.status, "ok");
            let names: Vec<&str> = report.objectives.iter().map(|o| o.name.as_str()).collect();
            assert_eq!(
                names,
                vec!["execute-p99", "error-ratio", "ingest-deficit-rate"]
            );
        }
        other => panic!("unexpected payload {other:?}"),
    }

    // `profile` has been ticking the whole time.
    let response = client
        .request(&Request::new(Op::Profile))
        .expect("profile request");
    match response.ok.expect("profile answers") {
        Payload::Profile(table) => {
            assert!(table.ticks > 0, "sampler never ticked");
            assert!(table.idle_ticks <= table.ticks);
        }
        other => panic!("unexpected payload {other:?}"),
    }

    // The direct (no wire) accessors agree in shape.
    assert!(handle.flame_table().ticks > 0);
    assert_eq!(handle.health().status, "ok");
    handle.shutdown();
}

#[test]
fn health_degrades_under_a_fault_storm_and_recovers() {
    // One tuned objective: timed-out fraction below 25 %. The fast
    // window sees the storm alone (ratio ≈ 1 → burns); the slow window
    // sees the whole run, where good traffic keeps the overall fraction
    // under budget (no burn) — so the storm lands exactly on `warning`,
    // i.e. a `degraded` readiness answer, not an `unhealthy` page.
    let storm_slo = SloSpec::new(
        "storm",
        SloKind::RatioAbove {
            bad: vec!["serve.timed_out".to_owned()],
            total: vec!["serve.timed_out".to_owned(), "serve.served".to_owned()],
            budget: 0.25,
        },
    )
    .with_windows(3_000_000, 120_000_000);
    let config = ServerConfig {
        slos: Some(vec![storm_slo]),
        ..observing_config()
    };
    let handle = config.start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Healthy baseline traffic, *spread across ring buckets*: a counter
    // delta is last-minus-first over a window's buckets, so growth
    // confined to a single bucket is invisible — the slow window must
    // see the served counter actually climb.
    for batch in 0..5u64 {
        for i in 0..20u64 {
            let response = client
                .request(&Request::new(Op::Breakeven).with_id(batch * 100 + i))
                .expect("request");
            assert!(response.is_ok(), "{response:?}");
        }
        thread::sleep(Duration::from_millis(1_100));
    }
    await_status(&mut client, "ok", Duration::from_secs(5));
    // Let the baseline age out of the fast window so the storm owns it.
    thread::sleep(Duration::from_secs(4));

    // The fault storm: requests whose deadline has already elapsed when
    // a worker picks them up — every one lands as `timed_out`.
    for i in 0..15u64 {
        let mut request = Request::new(Op::Sweep).with_id(1000 + i);
        request.deadline_ms = Some(0);
        let response = client.request(&request).expect("request");
        assert_eq!(response.error_code(), Some(ErrorCode::DeadlineExceeded));
    }
    await_status(&mut client, "degraded", Duration::from_secs(8));

    // The storm's transition left a flight-recorder event.
    let events = slo_transitions();
    assert!(
        events.iter().any(|e| e.contains("storm.ok_to_warning")),
        "{events:?}"
    );

    // Recovery: the storm stops, the fast window drains, health returns
    // to ok — and the recovery transition is recorded too.
    await_status(&mut client, "ok", Duration::from_secs(10));
    let events = slo_transitions();
    assert!(
        events.iter().any(|e| e.contains("storm.warning_to_ok")),
        "{events:?}"
    );
    handle.shutdown();
}

#[test]
fn default_error_ratio_leaves_ok_under_a_deadline_storm_and_recovers() {
    // The server's own objectives (no `slos` override), with the burn
    // windows shortened to seconds as `serve --slo-fast-s/--slo-slow-s`
    // would set them: the storm must trip the default `error-ratio`
    // objective through its `serve.timed_out` term.
    let config = ServerConfig {
        slo_fast_us: 3_000_000,
        slo_slow_us: 120_000_000,
        ..observing_config()
    };
    let handle = config.start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(health_status(&mut client), "ok");

    // One deadline-0 sweep at a time until readiness leaves ok — a
    // counter delta needs the growth to span ring buckets, so the storm
    // runs until it shows, up to 60 sweeps 250 ms apart.
    let report = (1..=60u64)
        .find_map(|id| {
            let mut request = Request::new(Op::Sweep).with_id(id);
            request.deadline_ms = Some(0);
            let response = client.request(&request).expect("request");
            assert_eq!(response.error_code(), Some(ErrorCode::DeadlineExceeded));
            let report = health_report(&mut client);
            if report.status != "ok" {
                return Some(report);
            }
            thread::sleep(Duration::from_millis(250));
            None
        })
        .expect("health never left ok under 60 deadline-0 sweeps");
    assert!(
        matches!(report.status.as_str(), "degraded" | "unhealthy"),
        "{report:?}"
    );
    let error_ratio = report
        .objectives
        .iter()
        .find(|o| o.name == "error-ratio")
        .expect("default objectives include error-ratio");
    assert_ne!(error_ratio.state, "ok", "{report:?}");
    assert!(error_ratio.fast_burn >= 1.0, "{report:?}");
    let events = slo_transitions();
    assert!(
        events.iter().any(|e| e.contains(".error-ratio.ok_to_")),
        "{events:?}"
    );

    // The storm stops; the fast window drains and health recovers.
    await_status(&mut client, "ok", Duration::from_secs(10));
    let events = slo_transitions();
    assert!(
        events
            .iter()
            .any(|e| e.contains(".error-ratio.") && e.contains("_to_ok")),
        "{events:?}"
    );
    handle.shutdown();
}

#[test]
fn disabled_observation_threads_leave_health_ok_and_series_empty() {
    let config = ServerConfig {
        scrape_interval_us: 0,
        profile_interval_us: 0,
        ..ServerConfig::default()
    };
    let handle = config.start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let response = client
        .request(&Request::new(Op::Ping))
        .expect("ping request");
    assert!(response.is_ok());

    // No scrape loop: no series exist, health stays the boot-time ok.
    let mut request = Request::new(Op::Series);
    request.params.metric = Some("serve.served".to_owned());
    let response = client.request(&request).expect("series request");
    assert_eq!(response.error_code(), Some(ErrorCode::EvalFailed));
    assert_eq!(health_status(&mut client), "ok");

    // No sampler: zero ticks.
    let response = client
        .request(&Request::new(Op::Profile))
        .expect("profile request");
    match response.ok.expect("profile answers") {
        Payload::Profile(table) => assert_eq!(table.ticks, 0),
        other => panic!("unexpected payload {other:?}"),
    }
    handle.shutdown();
}
