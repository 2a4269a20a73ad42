//! The end-to-end EdgStr transformation pipeline (Fig. 3).
//!
//! `capture → analyze → consult developer → transform → generate replicas`

use crate::policy::ConsistencyPolicy;
use crate::replica::{generate_replica, CrdtBindings, ReplicaArtifact};
use edgstr_analysis::{
    profile_service, InitState, ServerError, ServerProcess, ServiceProfile, StateUnit,
};
use edgstr_lang::normalize;
use edgstr_net::{ServiceObservation, TrafficCapture, Verb};
use std::fmt;

/// Configuration for one transformation run.
#[derive(Debug)]
pub struct EdgStrConfig {
    /// Application name (used in generated-code banners and reports).
    pub app_name: String,
    /// How many fuzzed re-executions to run per service (§III-E).
    pub fuzz_iters: usize,
    /// The developer's consistency decision (§III-D).
    pub policy: ConsistencyPolicy,
}

impl Default for EdgStrConfig {
    fn default() -> Self {
        EdgStrConfig {
            app_name: "app".to_string(),
            fuzz_iters: 3,
            policy: ConsistencyPolicy::AcceptAll,
        }
    }
}

/// Error raised by the pipeline.
#[derive(Debug)]
pub enum TransformError {
    /// The server program failed to parse or initialize.
    Server(ServerError),
    /// The capture contains no usable service observations.
    NoServices,
    /// Replica code generation failed (internal bug surfaced).
    Codegen(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Server(e) => write!(f, "server error: {e}"),
            TransformError::NoServices => {
                write!(f, "traffic capture contains no invokable services")
            }
            TransformError::Codegen(m) => write!(f, "code generation failed: {m}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<ServerError> for TransformError {
    fn from(e: ServerError) -> Self {
        TransformError::Server(e)
    }
}

/// Per-service outcome of the transformation.
#[derive(Debug)]
pub struct ServiceReport {
    pub verb: Verb,
    pub path: String,
    /// Whether the service was replicated at the edge (vs forwarded).
    pub replicated: bool,
    /// Why the service was not replicated, when applicable.
    pub rejection: Option<String>,
    /// The full profile (`None` when profiling itself failed — the
    /// service is then forwarded unconditionally).
    pub profile: Option<ServiceProfile>,
}

/// The result of a transformation run.
#[derive(Debug)]
pub struct TransformationReport {
    /// Per-service decisions and profiles.
    pub services: Vec<ServiceReport>,
    /// The generated edge replica.
    pub replica: ReplicaArtifact,
    /// Size in bytes of the whole init state (`S_app` — what a cross-ISA
    /// system would synchronize).
    pub full_state_bytes: usize,
}

impl TransformationReport {
    /// Count of replicated services.
    pub fn replicated_count(&self) -> usize {
        self.services.iter().filter(|s| s.replicated).count()
    }

    /// The state units presented to the developer across all services.
    pub fn presented_state_units(&self) -> Vec<StateUnit> {
        let mut out: Vec<StateUnit> = self
            .services
            .iter()
            .filter_map(|s| s.profile.as_ref())
            .flat_map(|s| s.state_units.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Run the EdgStr pipeline on a cloud server program plus its captured
/// client traffic.
///
/// # Errors
///
/// Returns [`TransformError`] when the program cannot be parsed or
/// initialized, the capture is empty, or code generation fails.
pub fn transform(
    server_source: &str,
    capture: &TrafficCapture,
    config: &EdgStrConfig,
) -> Result<TransformationReport, TransformError> {
    // 1. normalize the server program (§III-E temp-var introduction)
    let program = normalize(
        &edgstr_lang::parse(server_source)
            .map_err(|e| TransformError::Server(ServerError::Parse(e.to_string())))?,
    );
    let mut server = ServerProcess::from_program(program);
    server.init()?;
    // EdgStr attaches to a *running* application (§II-B): bring the fresh
    // process to the live state by replaying the captured traffic, then
    // checkpoint. Replay failures are tolerated (e.g. duplicate-key
    // inserts) — the state still converges to a live-like checkpoint.
    for e in capture.exchanges() {
        let req = edgstr_net::HttpRequest {
            verb: e.verb,
            path: e.path.clone(),
            params: e.params.clone(),
            body: e.body.clone(),
        };
        let _ = server.handle(&req);
    }
    let init = InitState::capture(&server);

    // 2. Subject inference from traffic (Eq. 1)
    let observations: Vec<ServiceObservation> = capture.observe_services();
    if observations.is_empty() {
        return Err(TransformError::NoServices);
    }

    // 3. profile every service (Algorithm 1)
    let mut services = Vec::new();
    for obs in &observations {
        let request = obs.sample_request();
        let profile = match profile_service(&mut server, &init, &request, config.fuzz_iters) {
            Ok(p) => p,
            Err(e) => {
                // a service we cannot profile stays on the cloud
                services.push(ServiceReport {
                    verb: obs.verb,
                    path: obs.path.clone(),
                    replicated: false,
                    rejection: Some(format!("profiling failed: {e}")),
                    profile: None,
                });
                continue;
            }
        };
        // 4. consult developer (§III-D)
        let accepted = config.policy.accepts_all(&profile.state_units);
        let extractable = profile.extracted.is_some();
        // a replicated row is named by its key: a table the snapshot does
        // not hold with a primary key cannot be wrapped
        let keyless = profile.state_units.iter().find_map(|u| match u {
            StateUnit::DbTable(t) => init
                .db
                .table(t)
                .and_then(|table| table.pk_index())
                .is_none()
                .then_some(t),
            _ => None,
        });
        let rejection = if !accepted {
            Some(format!(
                "developer rejected eventual consistency for: {}",
                profile
                    .state_units
                    .iter()
                    .filter(|u| !config.policy.accepts(u))
                    .map(|u| u.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        } else if let Some(table) = keyless {
            Some(format!(
                "table '{table}' has no primary key to replicate rows by"
            ))
        } else if !extractable {
            Some("no extractable handler found".to_string())
        } else {
            None
        };
        services.push(ServiceReport {
            verb: obs.verb,
            path: obs.path.clone(),
            replicated: rejection.is_none(),
            rejection,
            profile: Some(profile),
        });
    }

    // 5. generate the replica from the accepted services
    let extracted: Vec<_> = services
        .iter()
        .filter(|s| s.replicated)
        .filter_map(|s| s.profile.as_ref().and_then(|p| p.extracted.clone()))
        .collect();
    let forwarded: Vec<(Verb, String)> = services
        .iter()
        .filter(|s| !s.replicated)
        .map(|s| (s.verb, s.path.clone()))
        .collect();
    let bindings = CrdtBindings::from_units(
        services
            .iter()
            .filter(|s| s.replicated)
            .filter_map(|s| s.profile.as_ref())
            .flat_map(|s| s.state_units.iter().cloned()),
    );
    let full_state_bytes = init.byte_size();
    let replica = generate_replica(&config.app_name, &extracted, forwarded, bindings, init)
        .map_err(TransformError::Codegen)?;

    Ok(TransformationReport {
        services,
        replica,
        full_state_bytes,
    })
}

/// Convenience: drive the original client-cloud app with `requests` while
/// sniffing traffic, then transform it. Returns the report plus the warmed
/// capture (useful for tests and benchmarks).
///
/// # Errors
///
/// As [`transform`]; also surfaces request failures during capture.
pub fn capture_and_transform(
    server_source: &str,
    requests: &[edgstr_net::HttpRequest],
    config: &EdgStrConfig,
) -> Result<(TransformationReport, TrafficCapture), TransformError> {
    let mut server = ServerProcess::from_source(server_source)?;
    server.init()?;
    let mut capture = TrafficCapture::new();
    for req in requests {
        let out = server.handle(req)?;
        capture.record(req, &out.response);
    }
    let report = transform(server_source, &capture, config)?;
    Ok((report, capture))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_net::HttpRequest;
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE readings (id INT PRIMARY KEY, celsius REAL)");
        var count = 0;
        app.post("/reading", function (req, res) {
            count = count + 1;
            db.query("INSERT INTO readings VALUES (" + req.body.id + ", " + req.body.celsius + ")");
            res.send({ stored: count });
        });
        app.get("/avg", function (req, res) {
            var rows = db.query("SELECT AVG(celsius) FROM readings");
            res.send(rows[0]);
        });
    "#;

    fn requests() -> Vec<HttpRequest> {
        vec![
            HttpRequest::post("/reading", json!({"id": 1, "celsius": 21.5}), vec![]),
            HttpRequest::post("/reading", json!({"id": 2, "celsius": 22.5}), vec![]),
            HttpRequest::get("/avg", json!({})),
        ]
    }

    #[test]
    fn pipeline_replicates_both_services() {
        let (report, capture) =
            capture_and_transform(APP, &requests(), &EdgStrConfig::default()).unwrap();
        assert_eq!(capture.len(), 3);
        assert_eq!(report.services.len(), 2); // (POST /reading) and (GET /avg)
        assert_eq!(report.replicated_count(), 2);
        assert!(report
            .presented_state_units()
            .contains(&StateUnit::DbTable("readings".into())));
        assert!(report
            .replica
            .bindings
            .tables
            .contains(&"readings".to_string()));
        assert!(report.full_state_bytes > 0);
    }

    #[test]
    fn rejecting_consistency_forwards_services() {
        let mut deny = std::collections::BTreeSet::new();
        deny.insert(StateUnit::DbTable("readings".into()));
        let config = EdgStrConfig {
            policy: ConsistencyPolicy::Reject(deny),
            ..Default::default()
        };
        let (report, _) = capture_and_transform(APP, &requests(), &config).unwrap();
        let writer = report
            .services
            .iter()
            .find(|s| s.path == "/reading")
            .unwrap();
        assert!(!writer.replicated);
        assert!(writer.rejection.as_deref().unwrap().contains("readings"));
        // the read-only /avg service writes no state units, so it stays
        let reader = report.services.iter().find(|s| s.path == "/avg").unwrap();
        assert!(reader.replicated);
        assert_eq!(report.replica.forwarded.len(), 1);
    }

    #[test]
    fn replica_preserves_functionality() {
        let (report, _) =
            capture_and_transform(APP, &requests(), &EdgStrConfig::default()).unwrap();
        let mut replica = ServerProcess::from_program(report.replica.program.clone());
        replica.init().unwrap();
        report.replica.init.restore(&mut replica);
        // the replica answers /avg exactly like the warmed-up original
        let out = replica
            .handle(&HttpRequest::get("/avg", json!({})))
            .unwrap();
        assert_eq!(out.response.body["avg(celsius)"], json!(22));
        // and handles new writes locally
        let out = replica
            .handle(&HttpRequest::post(
                "/reading",
                json!({"id": 3, "celsius": 30.0}),
                vec![],
            ))
            .unwrap();
        assert!(out.response.body["stored"].is_number());
    }

    /// A service that writes a table without a primary key stays on the
    /// cloud, and that table is never bound; a keyed table beside it is.
    #[test]
    fn a_keyless_table_is_not_replicated() {
        const LOG_APP: &str = r#"
            db.query("CREATE TABLE log (who TEXT, n INT)");
            db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)");
            app.post("/log", function (req, res) {
                db.query("INSERT INTO log VALUES ('" + req.body.who + "', " + req.body.n + ")");
                res.send({ ok: 1 });
            });
            app.post("/put", function (req, res) {
                db.query("INSERT INTO kv VALUES ('" + req.body.k + "', " + req.body.v + ")");
                res.send({ ok: 1 });
            });
        "#;
        let requests = [
            HttpRequest::post("/log", json!({"who": "a", "n": 1}), vec![]),
            HttpRequest::post("/put", json!({"k": "a", "v": 1}), vec![]),
        ];
        let (report, _) =
            capture_and_transform(LOG_APP, &requests, &EdgStrConfig::default()).unwrap();
        let service = |path: &str| report.services.iter().find(|s| s.path == path).unwrap();
        let log = service("/log");
        assert!(!log.replicated);
        assert!(
            log.rejection.as_deref().unwrap().contains("log"),
            "{:?}",
            log.rejection
        );
        assert!(service("/put").replicated);
        assert_eq!(report.replica.bindings.tables, ["kv"]);
        assert_eq!(report.replica.forwarded, [(Verb::Post, "/log".to_string())]);
    }

    #[test]
    fn empty_capture_is_an_error() {
        let capture = TrafficCapture::new();
        let err = transform(APP, &capture, &EdgStrConfig::default()).unwrap_err();
        assert!(matches!(err, TransformError::NoServices));
    }
}
