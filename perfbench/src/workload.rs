//! Seeded workload generators. Every request line is built and encoded
//! here, before the server starts, so the generator's own JSON cost is
//! never charged to the server; the same seed gives the same bytes.

use monityre_fleet::{FleetSpec, FLEET_EVAL_STEPS};
use monityre_serve::{decode_request_line, Op, Request, ScenarioSpec, TelemetryPoint};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over a small fixed working set: every evaluation hits
    /// the scenario LRU and the per-speed memo after warm-up.
    QueryHot,
    /// Closed loop where every request names a fresh scenario and grid,
    /// so both caches miss by construction.
    QueryCold,
    /// Open loop: a fleet streams fixed-size `ingest` batches on a fixed
    /// schedule, with a low rate of reads mixed in.
    TelemetryIngest,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` lists it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "query-hot" => Some(Self::QueryHot),
            "query-cold" => Some(Self::QueryCold),
            "telemetry-ingest" => Some(Self::TelemetryIngest),
            _ => None,
        }
    }
}

/// Counter-mode splitmix64: the benchmark's only source of randomness.
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream for `seed`, separated from other streams by `domain`.
    pub fn new(seed: u64, domain: u64) -> Self {
        Self {
            state: monityre_obs::splitmix64(seed ^ domain.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(1);
        monityre_obs::splitmix64(self.state)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One pre-encoded closed-loop request.
pub struct Query {
    /// Its wire line, newline included (the only copy of the request:
    /// the gate decodes it again).
    pub line: Vec<u8>,
    /// Speed-grid points (or Monte Carlo draws) it asks for; 1 for a
    /// single-point `explain` or a sheet cell.
    pub points: u64,
    /// Whether the load loop keeps the full response bytes for the gate.
    pub keep: bool,
    /// Whether the gate re-evaluates this request in-process and compares
    /// the kept bytes (cold mix only: the hot gate checks every answer).
    pub sample: bool,
}

impl Query {
    fn new(request: &Request, points: u64, keep: bool, sample: bool) -> Self {
        Self {
            line: line(request),
            points,
            keep,
            sample,
        }
    }

    /// The request this line carries.
    pub fn request(&self) -> Request {
        decode_request_line(&self.line).expect("generated lines decode")
    }
}

/// The wire line of `request`, newline included.
fn line(request: &Request) -> Vec<u8> {
    let mut line = serde_json::to_string(request)
        .expect("requests serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

/// A closed-loop workload: one request list per connection, sent in
/// order and repeated from the start if the run outlasts it.
pub struct QueryPlan {
    /// Per-connection request lists.
    pub conns: Vec<Vec<Query>>,
    /// Requests sent on a separate connection before timing starts.
    pub warmup: Vec<Request>,
    /// Sheet cells edited by each connection (only its owner edits a
    /// cell, so every cell's final value is determinate).
    pub sheet_cells: Vec<Vec<String>>,
}

/// Requests per connection in the hot cycle.
const HOT_CYCLE: usize = 8192;
/// The hot working set's `explain` speeds, km/h.
const HOT_SPEEDS: [f64; 8] = [10.0, 20.0, 35.0, 50.0, 70.0, 90.0, 120.0, 160.0];
/// Requests per connection in the cold cycle. A scenario recurs only
/// after this many others have passed through the server's 16-entry LRU
/// (which evicts its memo with it), so a repeat is still a miss.
const COLD_CYCLE: usize = 16_384;

/// The hot working set: four scenarios, well under the server's default
/// 16-entry LRU.
fn hot_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::default(),
        ScenarioSpec {
            temp_c: Some(45.0),
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            supply_v: Some(1.1),
            corner: Some("ss".to_owned()),
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            chain_scale: Some(1.5),
            radio_loss_prob: Some(0.1),
            radio_retries: Some(3),
            age_years: Some(2.0),
            ..ScenarioSpec::default()
        },
    ]
}

/// A `breakeven` of `spec` over the default range at `steps` points.
pub fn breakeven(spec: &ScenarioSpec, steps: usize) -> Request {
    let mut r = Request::new(Op::Breakeven);
    r.scenario = spec.clone();
    r.params.steps = Some(steps);
    r
}

fn sweep(spec: &ScenarioSpec, steps: usize) -> Request {
    let mut r = Request::new(Op::Sweep);
    r.scenario = spec.clone();
    r.params.steps = Some(steps);
    r
}

fn explain(spec: &ScenarioSpec, speed_kmh: f64) -> Request {
    let mut r = Request::new(Op::Explain);
    r.scenario = spec.clone();
    r.params.speed_kmh = Some(speed_kmh);
    r
}

/// A `sheet_eval` of `cell`.
pub fn sheet_eval(cell: &str) -> Request {
    let mut r = Request::new(Op::SheetEval);
    r.params.cell = Some(cell.to_owned());
    r
}

/// A `sheet_edit` writing `value` into `cell`.
pub fn sheet_edit(cell: &str, value: f64) -> Request {
    let mut r = Request::new(Op::SheetEdit);
    r.params.cell = Some(cell.to_owned());
    r.params.value = Some(value);
    r
}

/// The reference workbook's per-block `active_uw` cells with their
/// reference values — the inputs the hot mix edits.
pub fn sheet_inputs() -> Vec<(String, f64)> {
    let sheet = crate::check::reference_sheet();
    let architecture = monityre_node::Architecture::reference();
    architecture
        .database()
        .names()
        .map(|name| {
            let cell = format!("{name}.active_uw");
            let value = sheet.value(&cell).expect("reference cell exists");
            (cell, value)
        })
        .collect()
}

/// The hot mix: a seeded sequence over a fixed working set of 4 specs ×
/// fixed grids, plus sheet reads and a few edits of cells the connection
/// owns. Edits alternate between two values per cell, so about half are
/// bit-identical rewrites the recompute wave cuts off.
pub fn query_hot(seed: u64, conns: usize) -> QueryPlan {
    let specs = hot_specs();
    let inputs = sheet_inputs();
    let sheet_cells: Vec<Vec<(String, f64)>> = (0..conns)
        .map(|c| {
            inputs
                .iter()
                .skip(c)
                .step_by(conns)
                .take(2)
                .cloned()
                .collect()
        })
        .collect();
    let mut warmup = vec![crate::check::reference_request()];
    for spec in &specs {
        warmup.push(breakeven(spec, 32));
        warmup.push(breakeven(spec, 100));
        warmup.push(sweep(spec, 100));
        warmup.extend(HOT_SPEEDS.iter().map(|&v| explain(spec, v)));
    }
    let plans = (0..conns)
        .map(|c| {
            let mut rng = Rng::new(seed, 0x407 + c as u64);
            let cells = &sheet_cells[c];
            (0..HOT_CYCLE)
                .map(|i| {
                    let spec = &specs[rng.int(0, specs.len() as u64 - 1) as usize];
                    let roll = rng.unit();
                    let (request, points) = if roll < 0.35 {
                        let steps = if rng.unit() < 0.5 { 32 } else { 100 };
                        (breakeven(spec, steps), steps as u64)
                    } else if roll < 0.50 {
                        (sweep(spec, 100), 100)
                    } else if roll < 0.80 {
                        let v = HOT_SPEEDS[rng.int(0, HOT_SPEEDS.len() as u64 - 1) as usize];
                        (explain(spec, v), 1)
                    } else {
                        let (cell, base) = &cells[rng.int(0, cells.len() as u64 - 1) as usize];
                        if roll < 0.93 {
                            (sheet_eval(cell), 1)
                        } else {
                            let value = if rng.unit() < 0.5 { *base } else { base * 1.25 };
                            (sheet_edit(cell, value), 1)
                        }
                    };
                    let id = ((c as u64) << 32) | i as u64;
                    Query::new(&request.with_id(id), points, false, false)
                })
                .collect()
        })
        .collect();
    QueryPlan {
        conns: plans,
        warmup,
        sheet_cells: sheet_cells
            .into_iter()
            .map(|cells| cells.into_iter().map(|(cell, _)| cell).collect())
            .collect(),
    }
}

/// A fresh scenario from continuous ranges; a quarter carry the radio
/// axis and a quarter the ageing axis. The ranges keep every draw's
/// break-even inside the default sweep, so no request fails.
fn cold_spec(rng: &mut Rng) -> ScenarioSpec {
    let corners = ["tt", "ss", "ff"];
    let mut spec = ScenarioSpec {
        temp_c: Some(rng.range(-10.0, 60.0)),
        supply_v: Some(rng.range(1.1, 1.3)),
        corner: Some(corners[rng.int(0, 2) as usize].to_owned()),
        chain_scale: Some(rng.range(0.9, 1.6)),
        ..ScenarioSpec::default()
    };
    if rng.unit() < 0.25 {
        spec.radio_loss_prob = Some(rng.range(0.0, 0.2));
        spec.radio_retries = Some(rng.int(1, 4) as u32);
    }
    if rng.unit() < 0.25 {
        spec.age_years = Some(rng.range(0.0, 8.0));
    }
    spec
}

/// One cold request: mostly `breakeven`/`balance` over a fresh grid and
/// `explain`, with a small share of `optimize` and `montecarlo`.
fn cold_request(rng: &mut Rng) -> (Request, u64) {
    let spec = cold_spec(rng);
    let roll = rng.unit();
    let mut request = if roll < 0.40 {
        Request::new(Op::Breakeven)
    } else if roll < 0.65 {
        Request::new(Op::Balance)
    } else if roll < 0.90 {
        Request::new(Op::Explain)
    } else if roll < 0.95 {
        Request::new(Op::Optimize)
    } else {
        Request::new(Op::Montecarlo)
    };
    request.scenario = spec;
    let p = &mut request.params;
    let points = match request.op {
        Op::Explain => {
            p.speed_kmh = Some(rng.range(15.0, 150.0));
            1
        }
        Op::Montecarlo => {
            let samples = rng.int(32, 64) as usize;
            p.samples = Some(samples);
            p.seed = Some(rng.next_u64() >> 1);
            samples as u64
        }
        _ => {
            let steps = if request.op == Op::Optimize {
                48
            } else {
                rng.int(100, 400) as usize
            };
            p.from_kmh = Some(rng.range(4.0, 8.0));
            p.to_kmh = Some(rng.range(150.0, 220.0));
            p.steps = Some(steps);
            steps as u64
        }
    };
    (request, points)
}

/// The cold mix. The gate re-evaluates a seeded sample covering every op
/// (the first 24 of each op per connection, then one in 50) and parses
/// the `explain` answers it keeps.
pub fn query_cold(seed: u64, conns: usize) -> QueryPlan {
    let mut warm_rng = Rng::new(0, 0xC01D_0000);
    let mut warmup = vec![crate::check::reference_request()];
    warmup.extend((0..8).map(|_| cold_request(&mut warm_rng).0));
    let plans = (0..conns)
        .map(|c| {
            let mut rng = Rng::new(seed, 0xC01D + c as u64);
            let mut seen = std::collections::BTreeMap::<&'static str, usize>::new();
            (0..COLD_CYCLE)
                .map(|i| {
                    let (request, points) = cold_request(&mut rng);
                    let n = seen.entry(request.op.name()).or_default();
                    *n += 1;
                    let sample = *n <= 24 || i % 50 == 0;
                    let keep = sample || request.op == Op::Explain;
                    let id = ((c as u64) << 32) | i as u64;
                    Query::new(&request.with_id(id), points, keep, sample)
                })
                .collect()
        })
        .collect();
    QueryPlan {
        conns: plans,
        warmup,
        sheet_cells: vec![Vec::new(); conns],
    }
}

/// What one scheduled open-loop send carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// An `ingest` batch of `len` points from one vehicle.
    Batch {
        /// The sending vehicle.
        vehicle: u64,
        /// Points in the batch.
        len: usize,
    },
    /// A per-vehicle `ingest_state` read.
    State(u64),
    /// A `breakeven` for the vehicle's drawn scenario.
    Breakeven(u64),
}

/// One scheduled open-loop send.
pub struct Send {
    /// When it is due, nanoseconds after the timed phase starts.
    pub due_ns: u64,
    /// Its wire line, newline included (the only copy of a batch's
    /// points: the gate decodes them again).
    pub line: Vec<u8>,
    /// What it carries.
    pub kind: SendKind,
    /// Its correlation id.
    pub id: u64,
}

impl Send {
    /// The points an `ingest` send carries (empty for a read).
    pub fn points(&self) -> Vec<TelemetryPoint> {
        match self.kind {
            SendKind::Batch { .. } => decode_request_line(&self.line)
                .expect("generated lines decode")
                .params
                .points
                .unwrap_or_default(),
            SendKind::State(_) | SendKind::Breakeven(_) => Vec::new(),
        }
    }
}

/// The open-loop workload.
pub struct TelemetryPlan {
    /// Points written to the segment directory before the server starts.
    pub history: Vec<TelemetryPoint>,
    /// The schedule, ordered by due time.
    pub sends: Vec<Send>,
    /// Points the schedule streams.
    pub stream_points: u64,
    /// Each vehicle's drawn scenario (index = vehicle id − 1).
    pub specs: Vec<ScenarioSpec>,
    /// Warm-up reads (nothing that writes to the segment store).
    pub warmup: Vec<Request>,
}

/// Vehicles in the telemetry fleet.
pub const FLEET_VEHICLES: u64 = 8;
/// Points per `ingest` batch (~48 kB on the wire).
pub const BATCH_POINTS: usize = 512;
/// Each vehicle's mean batch period, milliseconds: with 8 vehicles the
/// fleet offers 100 batches (~51k points) per second.
pub const BATCH_PERIOD_MS: u64 = 80;
/// Rounds per vehicle already in the segment store at startup.
const HISTORY_ROUNDS: u32 = 4096;
/// One read (alternately `ingest_state` and `breakeven`) every this
/// many milliseconds.
const READ_PERIOD_MS: u64 = 250;
/// Ids of reads start here; a batch's id is `vehicle << 32 | index`.
const READ_IDS: u64 = 1 << 60;

/// The telemetry mix: a seeded fleet, its history, and a schedule of
/// batches (Poisson arrivals at a fixed mean rate) and periodic reads
/// covering `seconds`. Lines are encoded one vehicle at a time, so only
/// the encoded stream stays in memory.
pub fn telemetry(seed: u64, seconds: u64) -> TelemetryPlan {
    let period_ns = BATCH_PERIOD_MS * 1_000_000;
    let span_ns = seconds.max(1) * 1_000_000_000;
    let batches_per_vehicle = span_ns.div_ceil(period_ns) as usize;
    let stream_rounds =
        (batches_per_vehicle * BATCH_POINTS).div_ceil(monityre_fleet::WHEELS as usize) as u32;
    let fleet = FleetSpec::reference()
        .with_seed(seed)
        .with_vehicles(FLEET_VEHICLES)
        .with_rounds(HISTORY_ROUNDS + stream_rounds);
    let history_len = HISTORY_ROUNDS as usize * monityre_fleet::WHEELS as usize;
    let mut history = Vec::new();
    let mut batches: Vec<std::vec::IntoIter<(u64, Vec<u8>, usize)>> = Vec::new();
    let mut specs = Vec::new();
    for vehicle in fleet.vehicle_ids() {
        let profile = fleet.vehicle(vehicle);
        let points = profile
            .workload(&fleet)
            .expect("palette scenarios evaluate");
        history.extend_from_slice(&points[..history_len]);
        let encoded: Vec<(u64, Vec<u8>, usize)> = points[history_len..]
            .chunks(BATCH_POINTS)
            .take(batches_per_vehicle)
            .enumerate()
            .map(|(j, chunk)| {
                let id = vehicle << 32 | j as u64;
                let mut r = Request::new(Op::Ingest).with_id(id);
                r.params.points = Some(chunk.to_vec());
                (id, line(&r), chunk.len())
            })
            .collect();
        batches.push(encoded.into_iter());
        specs.push(profile.scenario_spec());
    }
    // History lands in timestamp order across vehicles, as a live fleet
    // would have written it.
    history.sort_by_key(|p| (p.ts_us, p.vehicle, p.wheel));

    // Batches arrive as a Poisson process with a fixed count: sorted
    // uniform instants over the span. Vehicles take turns, so each
    // vehicle's batches stay in timestamp order. (Evenly spaced arrivals
    // would lock every answer to the send period.)
    let mut rng = Rng::new(seed, 0x7E1E);
    let mut dues: Vec<u64> = (0..batches_per_vehicle * batches.len())
        .map(|_| (rng.unit() * span_ns as f64) as u64)
        .collect();
    dues.sort_unstable();
    let mut sends = Vec::new();
    let mut stream_points = 0u64;
    for (i, due_ns) in dues.into_iter().enumerate() {
        let v = i % batches.len();
        let (id, line, len) = batches[v]
            .next()
            .expect("every vehicle streams one batch per period");
        stream_points += len as u64;
        let kind = SendKind::Batch {
            vehicle: v as u64 + 1,
            len,
        };
        sends.push(Send {
            due_ns,
            line,
            kind,
            id,
        });
    }
    let read_period = READ_PERIOD_MS * 1_000_000;
    for (k, due_ns) in (read_period / 2..span_ns)
        .step_by(read_period as usize)
        .enumerate()
    {
        let vehicle = (k as u64 / 2) % FLEET_VEHICLES + 1;
        let id = READ_IDS + k as u64;
        let (kind, request) = if k % 2 == 0 {
            let mut r = Request::new(Op::IngestState);
            r.params.vehicle = Some(vehicle);
            (SendKind::State(vehicle), r)
        } else {
            let spec = &specs[vehicle as usize - 1];
            (
                SendKind::Breakeven(vehicle),
                breakeven(spec, FLEET_EVAL_STEPS),
            )
        };
        let line = line(&request.with_id(id));
        sends.push(Send {
            due_ns,
            line,
            kind,
            id,
        });
    }
    sends.sort_by_key(|s| s.due_ns);
    let mut warmup = vec![
        crate::check::reference_request(),
        Request::new(Op::IngestState),
    ];
    warmup.extend(specs.iter().map(|s| breakeven(s, FLEET_EVAL_STEPS)));
    TelemetryPlan {
        history,
        sends,
        stream_points,
        specs,
        warmup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(query_cold(7, 2).conns[0][3].request().id, Some(3));
        let a = query_cold(7, 2);
        let b = query_cold(7, 2);
        let c = query_cold(8, 2);
        assert_eq!(a.conns[1][5].line, b.conns[1][5].line);
        assert_ne!(a.conns[1][5].line, c.conns[1][5].line);
    }

    #[test]
    fn telemetry_schedule_is_ordered_and_covers_the_stream() {
        let plan = telemetry(3, 1);
        assert!(plan.sends.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let batched: usize = plan.sends.iter().map(|s| s.points().len()).sum();
        assert_eq!(batched as u64, plan.stream_points);
    }
}
