//! Quickstart: transform a two-tier app into its three-tier variant.
//!
//! Run with: `cargo run --example quickstart`
//!
//! This walks the whole EdgStr flow on a small sensor service:
//! 1. write a cloud service (NodeScript, the Node.js stand-in);
//! 2. drive it with client traffic while the sniffer captures exchanges;
//! 3. transform: profile, fuzz, slice, consult developer, generate;
//! 4. deploy the replica next to the cloud master and watch CRDT sync
//!    converge their state.

use edgstr_analysis::ServerProcess;
use edgstr_core::{capture_and_transform, EdgStrConfig};
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CrdtSet, SyncEndpoint};
use serde_json::json;

const CLOUD_SERVICE: &str = r#"
db.query("CREATE TABLE visits (id INT PRIMARY KEY, city TEXT)");
var total = 0;
app.post("/visit", function (req, res) {
    total = total + 1;
    db.query("INSERT INTO visits VALUES (" + total + ", '" + req.body.city + "')");
    res.send({ recorded: total });
});
app.get("/visits", function (req, res) {
    var rows = db.query("SELECT * FROM visits ORDER BY id");
    res.send(rows);
});
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1+2. capture live traffic from the running two-tier app
    let traffic = vec![
        HttpRequest::post("/visit", json!({"city": "Blacksburg"}), vec![]),
        HttpRequest::get("/visits", json!({})),
    ];
    let (report, capture) =
        capture_and_transform(CLOUD_SERVICE, &traffic, &EdgStrConfig::default())?;
    println!("captured {} exchanges", capture.len());
    println!(
        "services found: {} — replicated: {}",
        report.services.len(),
        report.replicated_count()
    );
    println!("\nstate presented to the developer (Consult Developer step):");
    for unit in report.presented_state_units() {
        println!("  - {unit}");
    }
    println!(
        "\ngenerated edge replica source:\n{}",
        report.replica.source
    );

    // 4. deploy: cloud master + one edge replica, initialized from the
    //    shared snapshot, wired to CRDTs
    let mut cloud = ServerProcess::from_source(CLOUD_SERVICE)?;
    cloud.init()?;
    report.replica.init.restore(&mut cloud);
    let mut cloud_crdts =
        CrdtSet::initialize(ActorId(1), &report.replica.bindings, &report.replica.init);

    let mut edge = ServerProcess::from_program(report.replica.program.clone());
    edge.init()?;
    report.replica.init.restore(&mut edge);
    let mut edge_crdts =
        CrdtSet::initialize(ActorId(2), &report.replica.bindings, &report.replica.init);

    // a client writes at the edge (no WAN round trip!)
    let out = edge.handle(&HttpRequest::post(
        "/visit",
        json!({"city": "Seoul"}),
        vec![],
    ))?;
    edge_crdts.absorb_outcome(&out, &edge);
    println!("edge handled POST /visit -> {}", out.response.body);

    // background sync ships the delta to the cloud master: the new row
    // and the bumped `total`, nothing of the snapshot both sides started
    // from (prints "sync message: 2 change(s), 110 bytes")
    let mut e2c = SyncEndpoint::new();
    let mut c_recv = SyncEndpoint::new();
    let delta = e2c.generate(&edge_crdts);
    println!(
        "sync message: {} change(s), {} bytes",
        delta.changes.len(),
        delta.wire_size()
    );
    assert_eq!(delta.changes.len(), 2);
    c_recv.receive(&mut cloud_crdts, &mut cloud, &delta);

    // the cloud now sees the edge-written row
    let rows = cloud.handle(&HttpRequest::get("/visits", json!({})))?;
    println!("cloud GET /visits -> {}", rows.response.body);
    assert!(rows.response.body.to_string().contains("Seoul"));
    println!("\nthe edge write is visible at the cloud: state converged.");
    Ok(())
}
