//! The per-service profiling driver — Algorithm 1 of the paper.
//!
//! For each remote service `s_i`: restore the init checkpoint, execute and
//! trace a sample request, fuzz and re-execute, build the datalog facts,
//! infer entry/exit points, slice, and apply Extract Function. The result
//! is everything `edgstr-core` needs to generate the edge replica.

use crate::effects::{derive_effects, EffectSummary};
use crate::facts::{AnalysisFacts, EntryExit, TraceRun};
use crate::fuzz::{fuzz_request, request_atoms, response_atoms, FuzzDictionary};
use crate::server::{ServerError, ServerProcess};
use crate::slice::{extract_function, ExtractedService};
use crate::state::{InitState, StateUnit};
use crate::trace::Tracer;
use edgstr_lang::StmtId;
use edgstr_net::HttpRequest;
use serde_json::Value as Json;
use std::collections::BTreeSet;

/// Everything learned about one remote service.
#[derive(Debug)]
pub struct ServiceProfile {
    pub verb: edgstr_net::Verb,
    pub path: String,
    /// Entry/exit points (None when the payload could not be tracked —
    /// e.g. parameterless services).
    pub entry_exit: Option<EntryExit>,
    /// The dependence slice.
    pub slice: BTreeSet<StmtId>,
    /// The extracted standalone function plus its support declarations.
    pub extracted: Option<ExtractedService>,
    /// State units this service *writes* — the candidates for CRDT
    /// wrapping, presented to the developer (§III-D).
    pub state_units: Vec<StateUnit>,
    /// Read/write effect summary over all profiled runs — the read set is
    /// the invalidation signal for the edge response cache.
    pub effects: EffectSummary,
    /// A sample response (used by correctness regression tests).
    pub sample_response: Json,
    /// Mean virtual cycles per execution (base + fuzz runs).
    pub avg_cycles: u64,
    /// Sample request/response wire sizes.
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Number of distinct statements executed by the base run.
    pub executed_stmts: usize,
}

/// Reset the server between profiling executions. Globals roll back
/// through the armed copy-on-write checkpoint journal; the database and
/// file system are deep-restored only when the run demonstrably wrote to
/// them — or failed, leaving unknown partial state.
fn roll_back_run(
    server: &mut ServerProcess,
    init: &InitState,
    run: Option<(&crate::server::HandleOutcome, &Tracer)>,
) {
    server.rollback_checkpoint();
    let (db_dirty, fs_dirty) = match run {
        Some((out, tracer)) => (
            !out.row_effects.is_empty()
                || tracer
                    .trace
                    .sql_stmts
                    .iter()
                    .any(|(_, sql)| crate::facts::is_sql_write(sql)),
            !out.file_writes.is_empty(),
        ),
        None => (true, true),
    };
    if db_dirty {
        server.db.restore(&init.db);
    }
    if fs_dirty {
        server.fs.restore(&init.fs);
    }
}

/// Profile one service of `server` with `fuzz_iters` fuzzed re-executions.
/// The server is restored to `init` before every execution and once more
/// before returning.
///
/// # Errors
///
/// Propagates [`ServerError`] from any execution.
pub fn profile_service(
    server: &mut ServerProcess,
    init: &InitState,
    request: &HttpRequest,
    fuzz_iters: usize,
) -> Result<ServiceProfile, ServerError> {
    // base execution; when replaying the sampled request against the live
    // checkpoint fails (e.g. a duplicate-key insert), fall back to a fuzzed
    // variant of the request as the base — the same exploration the paper's
    // fuzzer performs
    init.restore(server);
    // Arm the journaled checkpoint: instead of deep-restoring all globals
    // before every execution, each run is rolled back copy-on-write, and
    // db/fs are restored only when the run actually touched them.
    server.begin_checkpoint();
    let mut tracer = Tracer::new();
    let (base_request, outcome) = match server.handle_traced(request, &mut tracer) {
        Ok(out) => {
            roll_back_run(server, init, Some((&out, &tracer)));
            (request.clone(), out)
        }
        Err(first_err) => {
            roll_back_run(server, init, None);
            let mut dict = FuzzDictionary::default();
            let alt = fuzz_request(request, 997, &mut dict);
            tracer = Tracer::new();
            match server.handle_traced(&alt, &mut tracer) {
                Ok(out) => {
                    roll_back_run(server, init, Some((&out, &tracer)));
                    (alt, out)
                }
                Err(_) => {
                    server.end_checkpoint();
                    init.restore(server);
                    return Err(first_err);
                }
            }
        }
    };
    let request = &base_request;
    let mut cycles_total = outcome.cycles;
    let mut runs = 1u64;
    let base = TraceRun {
        trace: tracer.into_trace(),
        param_atoms: request_atoms(request),
        response_atoms: response_atoms(&outcome.response.body),
    };

    // fuzzed executions (failures tolerated: a fuzzed input may legally be
    // rejected by the service; those runs simply do not contribute facts)
    let mut fuzz_runs = Vec::new();
    let mut fuzz_requests = Vec::new();
    for i in 1..=fuzz_iters {
        let mut dict = FuzzDictionary::default();
        let fz_req = fuzz_request(request, i, &mut dict);
        let mut tracer = Tracer::new();
        match server.handle_traced(&fz_req, &mut tracer) {
            Ok(out) => {
                roll_back_run(server, init, Some((&out, &tracer)));
                cycles_total += out.cycles;
                runs += 1;
                fuzz_runs.push(TraceRun {
                    trace: tracer.into_trace(),
                    param_atoms: request_atoms(&fz_req),
                    response_atoms: response_atoms(&out.response.body),
                });
                fuzz_requests.push(fz_req);
            }
            Err(_) => {
                roll_back_run(server, init, None);
                continue;
            }
        }
    }
    server.end_checkpoint();
    init.restore(server);

    let program = server.program.clone();
    let facts = AnalysisFacts::build(&program, &base, &fuzz_runs);
    let entry_exit = facts.entry_exit(&program);
    let slice = if entry_exit.is_some() {
        facts.slice(entry_exit.as_ref())
    } else {
        // No trackable parameter payload (e.g. a parameterless GET): the
        // entry point cannot be inferred, so fall back to replicating the
        // whole handler rather than an empty slice.
        program.all_stmts().iter().map(|s| s.id()).collect()
    };
    let extracted = extract_function(&program, request.verb, &request.path, &slice, &base.trace);

    // state units written by the service (union over all runs)
    let mut state_units = BTreeSet::new();
    for run in std::iter::once(&base).chain(fuzz_runs.iter()) {
        for (_, sql) in &run.trace.sql_stmts {
            if crate::facts::is_sql_write(sql) {
                if let Some(t) = crate::trace::table_of(sql) {
                    state_units.insert(StateUnit::DbTable(t));
                }
            }
        }
        for (path, written) in run.trace.files_touched() {
            if written {
                state_units.insert(StateUnit::File(path));
            }
        }
        for g in run.trace.written_globals() {
            state_units.insert(StateUnit::Global(g));
        }
    }

    // effect summary from the same runs (requests aligned with traces)
    let globals: BTreeSet<String> = server.snapshot_globals().keys().cloned().collect();
    let effect_runs: Vec<(&HttpRequest, &crate::trace::ExecutionTrace)> =
        std::iter::once((request, &base.trace))
            .chain(fuzz_requests.iter().zip(fuzz_runs.iter().map(|r| &r.trace)))
            .collect();
    let effects = derive_effects(&server.db, &globals, &effect_runs);

    Ok(ServiceProfile {
        verb: request.verb,
        path: request.path.clone(),
        entry_exit,
        slice,
        extracted,
        state_units: state_units.into_iter().collect(),
        effects,
        avg_cycles: cycles_total / runs,
        request_bytes: request.size(),
        response_bytes: outcome.response.size(),
        sample_response: outcome.response.body.into_json(),
        executed_stmts: base.trace.executed_stmts().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_lang::normalize;
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE hits (id INT PRIMARY KEY, route TEXT)");
        var counter = 0;
        function classify(score) {
            if (score > 50) { return "high"; }
            return "low";
        }
        app.post("/score", function (req, res) {
            var s = req.body.score;
            counter = counter + 1;
            db.query("INSERT INTO hits VALUES (" + counter + ", '/score')");
            var label = classify(s);
            res.send({ label: label, nth: counter });
        });
    "#;

    fn profiled() -> ServiceProfile {
        let program = normalize(&edgstr_lang::parse(APP).unwrap());
        let mut server = ServerProcess::from_program(program);
        server.init().unwrap();
        let init = InitState::capture(&server);
        let req = HttpRequest::post("/score", json!({"score": 87}), vec![]);
        profile_service(&mut server, &init, &req, 3).unwrap()
    }

    #[test]
    fn profile_identifies_state_units() {
        let p = profiled();
        assert!(p
            .state_units
            .contains(&StateUnit::DbTable("hits".to_string())));
        assert!(p
            .state_units
            .contains(&StateUnit::Global("counter".to_string())));
    }

    #[test]
    fn profile_extracts_function_with_support() {
        let p = profiled();
        let ex = p.extracted.expect("extraction succeeds");
        assert_eq!(ex.name, "ftn_score");
        assert_eq!(ex.support.len(), 1, "classify should be support");
        assert!(p.executed_stmts > 3);
        assert!(p.avg_cycles > 0);
    }

    #[test]
    fn profile_restores_server_state() {
        let program = normalize(&edgstr_lang::parse(APP).unwrap());
        let mut server = ServerProcess::from_program(program);
        server.init().unwrap();
        let init = InitState::capture(&server);
        let req = HttpRequest::post("/score", json!({"score": 10}), vec![]);
        profile_service(&mut server, &init, &req, 2).unwrap();
        // after profiling, the counter global is back to 0
        assert_eq!(server.global_json("counter"), Some(Ok(json!(0))));
    }

    #[test]
    fn profile_entry_exit_present_for_parameterized_service() {
        let p = profiled();
        let ee = p.entry_exit.expect("entry/exit inferred");
        assert!(p.slice.contains(&ee.exit));
    }
}
