//! Correctness gates. Every answer the timed phase received is compared
//! with what an in-process evaluation of the same request produces; a
//! single mismatch fails the run.

use std::collections::HashMap;

use monityre_core::{EnergyLedger, SweepExecutor};
use monityre_ingest::{Ingestor, DEFAULT_WINDOW_US};
use monityre_serve::{evaluate, Op, Payload, Request, Response};
use monityre_sheet::PowerSheet;

use crate::drive::{digest, Answer, ConnOut};
use crate::workload::{breakeven, QueryPlan, SendKind, TelemetryPlan};
use monityre_fleet::FLEET_EVAL_STEPS;

/// The repository's pinned reference break-even: the reference scenario
/// swept over 5–200 km/h at 196 steps.
pub const REFERENCE_BREAK_EVEN_KMH: f64 = 34.526_307_817_678_656;

/// The request whose answer must equal [`REFERENCE_BREAK_EVEN_KMH`].
pub fn reference_request() -> Request {
    breakeven(&monityre_serve::ScenarioSpec::default(), 196)
}

/// The gate's findings.
#[derive(Debug, Default)]
pub struct Verdict {
    /// What went wrong (empty when every check passed).
    pub problems: Vec<String>,
    /// Answers compared byte for byte (directly or by digest).
    pub compared: u64,
    /// Served `explain` ledgers shown to conserve energy.
    pub explains: u64,
    /// Formula cells the served `sheet_edit` waves evaluated.
    pub sheet_evaluated: u64,
    /// Cells the served `sheet_edit` waves cut off.
    pub sheet_cut: u64,
}

impl Verdict {
    /// Records a problem (the first few verbatim, then only a count).
    pub fn fail(&mut self, message: String) {
        if self.problems.len() < 8 {
            self.problems.push(message);
        } else if self.problems.len() == 8 {
            self.problems.push("further problems elided".to_owned());
        }
    }

    fn compare(&mut self, what: &str, got: &Answer, want: &[u8]) {
        self.compared += 1;
        if (got.len as usize, got.digest) != (want.len(), digest(want)) {
            self.fail(format!(
                "{what}: answer differs from in-process evaluation (want {})",
                String::from_utf8_lossy(&want[..want.len().min(200)])
            ));
        }
    }

    /// Folds another verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        for problem in other.problems {
            self.fail(problem);
        }
        self.compared += other.compared;
        self.explains += other.explains;
        self.sheet_evaluated += other.sheet_evaluated;
        self.sheet_cut += other.sheet_cut;
    }
}

/// The workbook a fresh server hosts: the reference architecture's
/// power database bound onto a compiled sheet.
pub fn reference_sheet() -> PowerSheet {
    let architecture = monityre_node::Architecture::reference();
    let mut sheet = PowerSheet::new(architecture.database()).expect("reference workbook builds");
    sheet
        .sheet_mut()
        .compile()
        .expect("reference workbook compiles");
    sheet
}

/// The response line (newline stripped) a server sends for `payload`.
pub fn response_line(id: u64, payload: Payload) -> Vec<u8> {
    serde_json::to_string(&Response::success(Some(id), payload))
        .expect("responses serialize")
        .into_bytes()
}

/// Applies a sheet request to `sheet` the way the server's workbook
/// does, returning the payload it answers.
pub fn apply_sheet(sheet: &mut PowerSheet, request: &Request) -> Payload {
    let cell = request.params.cell.clone().unwrap_or_default();
    if request.op == Op::SheetEdit {
        let value = request.params.value.expect("benchmark edits write numbers");
        sheet
            .sheet_mut()
            .set_number(&cell, value)
            .expect("benchmark edits target existing input cells");
        let wave = sheet.sheet().last_recompute();
        Payload::SheetEdit {
            value: sheet.value(&cell).expect("edited cell exists"),
            cell,
            evaluated: wave.evaluated,
            cut: wave.cut,
        }
    } else {
        Payload::SheetEval {
            value: sheet.value(&cell).expect("read cell exists"),
            cell,
        }
    }
}

/// Checks the answer to [`reference_request`] bit for bit.
pub fn check_reference_breakeven(line: &[u8], verdict: &mut Verdict) {
    let parsed = monityre_serve::decode_response_line(line).ok();
    match parsed.and_then(|r| r.ok) {
        Some(Payload::Breakeven {
            break_even_kmh: Some(kmh),
        }) if kmh.to_bits() == REFERENCE_BREAK_EVEN_KMH.to_bits() => {}
        other => verdict.fail(format!(
            "reference breakeven is {other:?}, not {REFERENCE_BREAK_EVEN_KMH} km/h bit for bit"
        )),
    }
}

fn conserves(ledger: &EnergyLedger, what: &str, verdict: &mut Verdict) {
    if !ledger.conservation_holds() {
        verdict.fail(format!("{what}: served ledger does not conserve energy"));
    }
}

/// `(template, id)` → the full expected line: the template is the answer
/// serialized under id 0, so substituting the id is a prefix splice.
fn with_id(template: &[u8], id: u64) -> Vec<u8> {
    const PREFIX: &[u8] = b"{\"id\":0,";
    assert!(template.starts_with(PREFIX), "responses lead with their id");
    let mut line = format!("{{\"id\":{id},").into_bytes();
    line.extend_from_slice(&template[PREFIX.len()..]);
    line
}

/// The hot gate: every answer of every connection, compared by digest
/// with an in-process evaluation on a fresh cache (once per distinct
/// request) or, for sheet ops, with a per-connection workbook replay.
/// Then the final value of every edited cell is read back and compared
/// with one workbook replaying all edits.
pub fn check_hot(
    plan: &QueryPlan,
    outs: &[ConnOut],
    final_reads: &[Vec<u8>],
    executor: &SweepExecutor,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut templates: HashMap<String, Vec<u8>> = HashMap::new();
    let mut all_edits = reference_sheet();
    for (c, out) in outs.iter().enumerate() {
        let requests: Vec<Request> = plan.conns[c].iter().map(|q| q.request()).collect();
        let mut own_sheet = reference_sheet();
        for (i, got) in out.answers.iter().enumerate() {
            let request = &requests[i % requests.len()];
            let id = request.id.expect("plan requests carry ids");
            let want = if matches!(request.op, Op::SheetEdit | Op::SheetEval) {
                if request.op == Op::SheetEdit {
                    apply_sheet(&mut all_edits, request);
                }
                let payload = apply_sheet(&mut own_sheet, request);
                if let Payload::SheetEdit { evaluated, cut, .. } = &payload {
                    verdict.sheet_evaluated += evaluated;
                    verdict.sheet_cut += cut;
                }
                response_line(id, payload)
            } else {
                let key = serde_json::to_string(&Request {
                    id: None,
                    ..request.clone()
                })
                .expect("requests serialize");
                let template =
                    templates
                        .entry(key)
                        .or_insert_with(|| match evaluate(request, executor) {
                            Ok(payload) => {
                                if let Payload::Explain(ledger) = &payload {
                                    conserves(ledger, "explain", &mut verdict);
                                }
                                response_line(0, payload)
                            }
                            Err((code, message)) => {
                                verdict.fail(format!(
                                    "in-process evaluation failed: {code:?} {message}"
                                ));
                                serde_json::to_string(&Response::failure(Some(0), code, message))
                                    .expect("responses serialize")
                                    .into_bytes()
                            }
                        });
                if request.op == Op::Explain {
                    verdict.explains += 1;
                }
                with_id(template, id)
            };
            verdict.compare(
                &format!("connection {c} request {i} ({})", request.op.name()),
                got,
                &want,
            );
        }
    }
    let cells = final_cells(plan);
    for (id, (cell, got)) in cells.iter().zip(final_reads).enumerate() {
        let read = crate::workload::sheet_eval(cell);
        let want = response_line(id as u64, apply_sheet(&mut all_edits, &read));
        if *got != want {
            verdict.fail(format!(
                "final value of sheet cell {cell} differs from the replayed workbook"
            ));
        }
    }
    verdict
}

/// The cells read back after a hot run: every edited input and the
/// aggregate they feed.
pub fn final_cells(plan: &QueryPlan) -> Vec<String> {
    let mut cells: Vec<String> = plan.sheet_cells.iter().flatten().cloned().collect();
    cells.push("node.active_uw".to_owned());
    cells
}

/// The cold gate: the seeded sample (covering every op) re-evaluated
/// in-process and compared byte for byte; every kept `explain` (up to
/// [`crate::drive::MAX_KEPT`] answers per connection) parsed and its
/// ledger's conservation checked. The server's own violation counter,
/// gated to zero by the caller, covers the explains not kept.
pub fn check_cold(plan: &QueryPlan, outs: &[ConnOut], executor: &SweepExecutor) -> Verdict {
    let mut verdict = Verdict::default();
    for (c, out) in outs.iter().enumerate() {
        let queries = &plan.conns[c];
        for (i, line) in &out.kept {
            let query = &queries[i % queries.len()];
            let request = query.request();
            let what = format!("connection {c} request {i} ({})", request.op.name());
            if request.op == Op::Explain {
                match monityre_serve::decode_response_line(line).map(|r| r.ok) {
                    Ok(Some(Payload::Explain(ledger))) => {
                        verdict.explains += 1;
                        conserves(&ledger, &what, &mut verdict);
                    }
                    other => verdict.fail(format!("{what}: not an explain answer: {other:?}")),
                }
            }
            if query.sample {
                let id = request.id.expect("plan requests carry ids");
                match evaluate(&request, executor) {
                    Ok(payload) => {
                        verdict.compared += 1;
                        if *line != response_line(id, payload) {
                            verdict
                                .fail(format!("{what}: answer differs from in-process evaluation"));
                        }
                    }
                    Err((code, message)) => verdict.fail(format!(
                        "{what}: in-process evaluation failed: {code:?} {message}"
                    )),
                }
            }
        }
    }
    verdict
}

/// What the telemetry gate replays in-process.
pub struct TelemetryReplay {
    /// The in-process pipeline after history and stream.
    pub ingestor: Ingestor,
    /// Alert edges the stream triggered in-process.
    pub stream_alerts: u64,
    /// Points the served acks accepted (verified equal to in-process).
    pub accepted: u64,
}

/// Feeds `history` through an in-memory pipeline in the batches it was
/// written with, as the server's startup replay sees it.
pub fn replay_history(history: &[monityre_serve::TelemetryPoint]) -> Ingestor {
    let mut ingestor = Ingestor::in_memory(DEFAULT_WINDOW_US);
    for batch in history.chunks(crate::workload::BATCH_POINTS) {
        ingestor
            .ingest(batch, None)
            .expect("in-memory ingest cannot fail");
    }
    ingestor
}

/// The telemetry gate: an in-process pipeline fed the same history and
/// stream in the same order must produce every ack and every read the
/// server answered, byte for byte.
pub fn check_telemetry(
    plan: &TelemetryPlan,
    out: &ConnOut,
    executor: &SweepExecutor,
) -> (Verdict, TelemetryReplay) {
    let mut verdict = Verdict::default();
    let mut replay = TelemetryReplay {
        ingestor: replay_history(&plan.history),
        stream_alerts: 0,
        accepted: 0,
    };
    for (i, (send, got)) in plan.sends.iter().zip(&out.answers).enumerate() {
        let payload = match send.kind {
            SendKind::Batch { .. } => {
                let summary = replay
                    .ingestor
                    .ingest(&send.points(), None)
                    .expect("in-memory ingest cannot fail");
                replay.stream_alerts += summary.alerts;
                replay.accepted += summary.accepted;
                Payload::Ingest {
                    accepted: summary.accepted,
                    alerts: summary.alerts,
                    points_total: replay.ingestor.points_total(),
                }
            }
            SendKind::State(vehicle) => Payload::IngestState {
                window_us: replay.ingestor.window_us(),
                vehicles: replay.ingestor.state_of(vehicle).into_iter().collect(),
            },
            SendKind::Breakeven(vehicle) => {
                let request = breakeven(&plan.specs[vehicle as usize - 1], FLEET_EVAL_STEPS);
                match evaluate(&request, executor) {
                    Ok(payload) => payload,
                    Err((code, message)) => {
                        verdict.fail(format!("in-process breakeven failed: {code:?} {message}"));
                        continue;
                    }
                }
            }
        };
        let want = response_line(send.id, payload);
        verdict.compare(&format!("send {i} ({:?})", send.kind), got, &want);
    }
    if out.answers.len() != plan.sends.len() {
        verdict.fail(format!(
            "{} of {} sends answered",
            out.answers.len(),
            plan.sends.len()
        ));
    }
    if replay.accepted != plan.stream_points {
        verdict.fail(format!(
            "accepted {} points of {} sent",
            replay.accepted, plan.stream_points
        ));
    }
    (verdict, replay)
}

/// The full `ingest_state` line a server holding `ingestor`'s state
/// answers under `id`.
pub fn state_line(ingestor: &Ingestor, id: u64) -> Vec<u8> {
    response_line(
        id,
        Payload::IngestState {
            window_us: ingestor.window_us(),
            vehicles: ingestor.state(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_splice_matches_serialization() {
        let payload = Payload::SheetEval {
            cell: "x".to_owned(),
            value: 1.5,
        };
        let direct = response_line(77, payload.clone());
        assert_eq!(with_id(&response_line(0, payload), 77), direct);
    }

    #[test]
    fn reference_breakeven_is_pinned() {
        let executor = SweepExecutor::serial();
        let payload = evaluate(&reference_request(), &executor).unwrap();
        let mut verdict = Verdict::default();
        check_reference_breakeven(&response_line(1, payload), &mut verdict);
        assert!(verdict.problems.is_empty(), "{:?}", verdict.problems);
    }
}
