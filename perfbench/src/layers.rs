//! Direct, traced calls into each layer's public API on the workload's
//! own inputs. Every call sits inside a benchmark-side span; nothing is
//! added to the program.

use std::path::Path;

use monityre_core::{
    BreakEvenOptimizer, EnergyBalance, MonteCarlo, Scenario, SweepExecutor, VariationModel,
};
use monityre_ingest::{decode_prefix, IngestConfig, Ingestor, WindowEngine, DEFAULT_WINDOW_US};
use monityre_serve::{
    decode_request_line, evaluate, Op, Request, Response, ScenarioSpec, TelemetryPoint,
};
use monityre_units::Speed;

use crate::stats::{mean, median};
use crate::trace::Tracer;

/// Per-speed memo capacity the server gives each warm scenario.
const MEMO_CAPACITY: usize = 4096;
/// At most this many inputs of each kind are timed.
const PER_KIND: usize = 32;

/// The inputs the direct calls run on, drawn from the workload's own
/// requests (with reference fallbacks for kinds a workload never sends).
#[derive(Default)]
pub struct Inputs {
    specs: Vec<ScenarioSpec>,
    grids: Vec<(ScenarioSpec, f64, f64, usize)>,
    explains: Vec<(ScenarioSpec, f64)>,
    optimizes: Vec<(ScenarioSpec, f64, f64, usize)>,
    montecarlos: Vec<(ScenarioSpec, usize, u64)>,
}

impl Inputs {
    /// Collects up to [`PER_KIND`] inputs of each kind from `requests`.
    pub fn from_requests<'a>(requests: impl Iterator<Item = &'a Request>) -> Inputs {
        let mut inputs = Inputs::default();
        for r in requests {
            let p = &r.params;
            let (lo, hi) = (p.from_kmh.unwrap_or(5.0), p.to_kmh.unwrap_or(200.0));
            let spec = r.scenario.clone();
            match r.op {
                Op::Breakeven | Op::Balance | Op::Sweep if inputs.grids.len() < PER_KIND => {
                    inputs
                        .grids
                        .push((spec.clone(), lo, hi, p.steps.unwrap_or(100)));
                }
                Op::Explain if inputs.explains.len() < PER_KIND => {
                    inputs
                        .explains
                        .push((spec.clone(), p.speed_kmh.unwrap_or(60.0)));
                }
                Op::Optimize if inputs.optimizes.len() < 2 => {
                    inputs
                        .optimizes
                        .push((spec.clone(), lo, hi, p.steps.unwrap_or(48)));
                }
                Op::Montecarlo if inputs.montecarlos.len() < 2 => {
                    inputs.montecarlos.push((
                        spec.clone(),
                        p.samples.unwrap_or(128),
                        p.seed.unwrap_or(2011),
                    ));
                }
                _ => {}
            }
            if matches!(
                r.op,
                Op::Breakeven
                    | Op::Balance
                    | Op::Sweep
                    | Op::Explain
                    | Op::Optimize
                    | Op::Montecarlo
            ) && inputs.specs.len() < PER_KIND
                && !inputs.specs.contains(&spec)
            {
                inputs.specs.push(spec);
            }
        }
        if inputs.specs.is_empty() {
            inputs.specs.push(ScenarioSpec::default());
        }
        let first = inputs.specs[0].clone();
        if inputs.grids.is_empty() {
            inputs.grids.push((first.clone(), 5.0, 200.0, 100));
        }
        if inputs.explains.is_empty() {
            inputs.explains = inputs.specs.iter().map(|s| (s.clone(), 60.0)).collect();
        }
        if inputs.optimizes.is_empty() {
            inputs.optimizes.push((first.clone(), 5.0, 200.0, 48));
        }
        if inputs.montecarlos.is_empty() {
            inputs.montecarlos.push((first, 48, 2011));
        }
        inputs
    }
}

fn build(spec: &ScenarioSpec) -> Scenario {
    spec.build().expect("benchmark scenarios are valid")
}

fn kmh(v: f64) -> Speed {
    Speed::from_kmh(v)
}

/// The per-layer figures the direct calls produce.
#[derive(Debug, Default)]
pub struct Direct {
    pub scenario_build_us: f64,
    pub balance_ns_per_point_cold: f64,
    pub balance_ns_per_point_warm: f64,
    pub explain_us: f64,
    pub optimizer_us_per_candidate: f64,
    pub montecarlo_us_per_draw: f64,
    pub parallel_over_serial: f64,
    pub samples: DirectSamples,
}

/// How many calls each direct figure rests on.
#[derive(Debug, Default)]
pub struct DirectSamples {
    pub specs: u64,
    pub grids: u64,
    pub explains: u64,
    pub optimizer_candidates: u64,
    pub montecarlo_draws: u64,
}

/// Times the core layers on `inputs`.
pub fn core_layers(inputs: &Inputs, tracer: &mut Tracer, parent: u64) -> Direct {
    let serial = SweepExecutor::serial();
    let wide = SweepExecutor::available();
    let mut out = Direct::default();

    let mut build_us = Vec::new();
    for spec in &inputs.specs {
        let (_, ns) = tracer.time(parent, "core.scenario.build", || {
            let scenario = build(spec);
            let cache = scenario
                .cache()
                .expect("cache builds")
                .with_memo(MEMO_CAPACITY);
            std::hint::black_box((scenario, cache))
        });
        build_us.push(ns as f64 / 1e3);
    }
    out.scenario_build_us = median(&mut build_us);
    out.samples.specs = inputs.specs.len() as u64;

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for (spec, lo, hi, steps) in &inputs.grids {
        let scenario = build(spec);
        let cache = scenario
            .cache()
            .expect("cache builds")
            .with_memo(MEMO_CAPACITY);
        let balance = EnergyBalance::with_cache(&scenario, cache);
        for (name, into) in [
            ("core.balance.sweep_cold", &mut cold),
            ("core.balance.sweep_warm", &mut warm),
        ] {
            let (_, ns) = tracer.time(parent, name, || {
                std::hint::black_box(balance.sweep_with(kmh(*lo), kmh(*hi), *steps, &serial))
            });
            into.push(ns as f64 / *steps as f64);
        }
    }
    out.balance_ns_per_point_cold = median(&mut cold);
    out.balance_ns_per_point_warm = median(&mut warm);
    out.samples.grids = inputs.grids.len() as u64;

    let mut explain_us = Vec::new();
    for (spec, speed) in &inputs.explains {
        let scenario = build(spec);
        let cache = scenario
            .cache()
            .expect("cache builds")
            .with_memo(MEMO_CAPACITY);
        let balance = EnergyBalance::with_cache(&scenario, cache);
        let (_, ns) = tracer.time(parent, "core.ledger.explain", || {
            std::hint::black_box(balance.explain(kmh(*speed)).expect("explain evaluates"))
        });
        explain_us.push(ns as f64 / 1e3);
    }
    out.explain_us = median(&mut explain_us);
    out.samples.explains = inputs.explains.len() as u64;

    let (mut total_ns, mut candidates) = (0u64, 0u64);
    for (spec, lo, hi, steps) in &inputs.optimizes {
        let optimizer = BreakEvenOptimizer::new(&build(spec));
        let (report, ns) = tracer.time(parent, "core.optimizer.search", || {
            optimizer
                .search(kmh(*lo), kmh(*hi), *steps, &wide, &|| false)
                .expect("optimizer runs")
                .expect("never cancelled")
        });
        total_ns += ns;
        candidates += report.candidates as u64;
    }
    out.optimizer_us_per_candidate = total_ns as f64 / 1e3 / candidates.max(1) as f64;
    out.samples.optimizer_candidates = candidates;

    let (mut total_ns, mut draws) = (0u64, 0u64);
    for (spec, samples, seed) in &inputs.montecarlos {
        let mc = MonteCarlo::new(&build(spec), VariationModel::reference(), *seed);
        let (_, ns) = tracer.time(parent, "core.montecarlo.distribution", || {
            std::hint::black_box(
                mc.break_even_distribution_with(*samples, &wide)
                    .expect("draws cross"),
            )
        });
        total_ns += ns;
        draws += *samples as u64;
    }
    out.montecarlo_us_per_draw = total_ns as f64 / 1e3 / draws.max(1) as f64;
    out.samples.montecarlo_draws = draws;

    // Uncached sweeps (no memo), so every repetition does the same work;
    // serial and wide runs alternate to share any drift.
    let (mut serial_ns, mut wide_ns) = (0u64, 0u64);
    for (spec, lo, hi, steps) in inputs.grids.iter().take(16) {
        let scenario = build(spec);
        let balance = EnergyBalance::with_cache(&scenario, scenario.cache().expect("cache builds"));
        for _ in 0..3 {
            serial_ns += tracer
                .time(parent, "core.executor.serial_sweep", || {
                    std::hint::black_box(balance.sweep_with(kmh(*lo), kmh(*hi), *steps, &serial))
                })
                .1;
            wide_ns += tracer
                .time(parent, "core.executor.parallel_sweep", || {
                    std::hint::black_box(balance.sweep_with(kmh(*lo), kmh(*hi), *steps, &wide))
                })
                .1;
        }
    }
    out.parallel_over_serial = serial_ns as f64 / wide_ns.max(1) as f64;
    out
}

/// Ingest-layer figures.
#[derive(Debug, Default)]
pub struct IngestDirect {
    pub codec_ns_per_point: f64,
    pub window_ns_per_point: f64,
    pub points: u64,
}

/// Times the record codec (encode + CRC-checked decode) and the window
/// fold over `points`, in order.
pub fn ingest_layers(points: &[TelemetryPoint], tracer: &mut Tracer, parent: u64) -> IngestDirect {
    let mut buf = Vec::with_capacity(points.len() * monityre_ingest::RECORD_BYTES);
    let (decoded, codec_ns) = tracer.time(parent, "ingest.point.codec", || {
        for point in points {
            point.encode(&mut buf);
        }
        decode_prefix(&buf).0.len()
    });
    assert_eq!(decoded, points.len(), "every encoded record decodes");
    let mut window = WindowEngine::new(DEFAULT_WINDOW_US);
    let (_, window_ns) = tracer.time(parent, "ingest.window.observe", || {
        for point in points {
            std::hint::black_box(window.observe(point));
        }
    });
    let n = points.len().max(1) as f64;
    IngestDirect {
        codec_ns_per_point: codec_ns as f64 / n,
        window_ns_per_point: window_ns as f64 / n,
        points: points.len() as u64,
    }
}

/// Times a cold `Ingestor::open` (store recovery + replay) of `dir`;
/// returns `(ms per million points, points replayed)`.
pub fn replay(dir: &Path, tracer: &mut Tracer, parent: u64) -> std::io::Result<(f64, u64)> {
    let (opened, ns) = tracer.time(parent, "ingest.replay", || {
        Ingestor::open(IngestConfig {
            dir: Some(dir.to_path_buf()),
            ..IngestConfig::default()
        })
    });
    let points = opened?.replay_report().points;
    Ok((ns as f64 / 1e6 / points.max(1) as f64 * 1e6, points))
}

/// Protocol-layer figures: mean per-request decode and encode cost.
#[derive(Debug, Default)]
pub struct Protocol {
    pub decode_us: f64,
    pub encode_us: f64,
    pub samples: u64,
}

/// Decodes the exact request lines sent and encodes the answers an
/// in-process evaluation of the same requests produces (the bytes the
/// gate proved equal to the served ones).
pub fn protocol(lines: &[&[u8]], tracer: &mut Tracer, parent: u64) -> Protocol {
    let executor = SweepExecutor::available();
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    for line in lines {
        let (request, ns) = tracer.time(parent, "serve.protocol.decode", || {
            decode_request_line(line)
        });
        decode.push(ns as f64 / 1e3);
        let request = request.expect("sent lines decode");
        let Ok(payload) = evaluate(&request, &executor) else {
            continue;
        };
        let response = Response::success(request.id, payload);
        let (_, ns) = tracer.time(parent, "serve.protocol.encode", || {
            std::hint::black_box(
                serde_json::to_string(&response)
                    .expect("responses serialize")
                    .into_bytes(),
            )
        });
        encode.push(ns as f64 / 1e3);
    }
    Protocol {
        decode_us: mean(&decode),
        encode_us: mean(&encode),
        samples: decode.len() as u64,
    }
}
