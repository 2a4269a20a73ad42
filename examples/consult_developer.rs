//! The Consult Developer step (§III-D) end-to-end: EdgStr presents the
//! isolated state units; the developer declines eventual consistency for
//! one of them; the affected service stays on the cloud while the rest of
//! the app moves to the edge — and everything keeps working.
//!
//! Run with: `cargo run --example consult_developer`

use edgstr_analysis::StateUnit;
use edgstr_core::{capture_and_transform, ConsistencyPolicy, EdgStrConfig};
use edgstr_net::HttpRequest;
use edgstr_runtime::{ThreeTierOptions, ThreeTierSystem, Workload};
use edgstr_sim::DeviceSpec;
use serde_json::json;
use std::collections::BTreeSet;

/// A small shop: the product catalog tolerates eventual consistency, the
/// payments ledger does not.
const SHOP: &str = r#"
db.query("CREATE TABLE catalog (id INT PRIMARY KEY, item TEXT, price REAL)");
db.query("INSERT INTO catalog VALUES (1, 'coffee', 4.5)");
db.query("INSERT INTO catalog VALUES (2, 'beans', 12.0)");
db.query("CREATE TABLE ledger (id INT PRIMARY KEY, item INT, amount REAL)");
var sales = 0;
app.get("/catalog", function (req, res) {
    res.send(db.query("SELECT * FROM catalog ORDER BY id"));
});
app.post("/restock", function (req, res) {
    db.query("INSERT INTO catalog VALUES (" + req.body.id + ", '" + req.body.item + "', " + req.body.price + ")");
    res.send({ added: req.body.id });
});
app.post("/purchase", function (req, res) {
    sales = sales + 1;
    var rows = db.query("SELECT price FROM catalog WHERE id = " + req.body.item);
    var price = rows[0].price;
    db.query("INSERT INTO ledger VALUES (" + sales + ", " + req.body.item + ", " + price + ")");
    res.send({ receipt: sales, charged: price });
});
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let traffic = vec![
        HttpRequest::get("/catalog", json!({})),
        HttpRequest::post(
            "/restock",
            json!({"id": 3, "item": "mug", "price": 9.0}),
            vec![],
        ),
        HttpRequest::post("/purchase", json!({"item": 1}), vec![]),
    ];

    // first pass: see what EdgStr would replicate
    let (preview, _) = capture_and_transform(SHOP, &traffic, &EdgStrConfig::default())?;
    println!("EdgStr presents the isolated state units (Consult Developer):");
    for unit in preview.presented_state_units() {
        println!("  - {unit}");
    }

    // the developer declines eventual consistency for the payments ledger
    let mut deny = BTreeSet::new();
    deny.insert(StateUnit::DbTable("ledger".into()));
    deny.insert(StateUnit::Global("sales".into()));
    println!("\ndeveloper decision: REJECT eventual consistency for the ledger + sales counter\n");
    let (report, _) = capture_and_transform(
        SHOP,
        &traffic,
        &EdgStrConfig {
            app_name: "shop".into(),
            policy: ConsistencyPolicy::Reject(deny),
            ..Default::default()
        },
    )?;
    for s in &report.services {
        println!(
            "  {} {:<10} -> {}",
            s.verb,
            s.path,
            if s.replicated {
                "replicated at the edge".to_string()
            } else {
                format!(
                    "kept on the cloud ({})",
                    s.rejection.as_deref().unwrap_or("")
                )
            }
        );
    }

    // deploy and drive a mixed workload: catalog reads serve locally,
    // purchases proxy to the cloud master
    let mut sys = ThreeTierSystem::deploy(
        SHOP,
        &report,
        &[DeviceSpec::rpi4()],
        ThreeTierOptions::default(),
    )?;
    let reqs = vec![
        HttpRequest::get("/catalog", json!({})),
        HttpRequest::post("/purchase", json!({"item": 2}), vec![]),
        HttpRequest::get("/catalog", json!({})),
        HttpRequest::post("/purchase", json!({"item": 1}), vec![]),
    ];
    let mut stats = sys.run(&Workload::constant_rate(&reqs, 5.0, 4));
    println!(
        "\nran 4 requests: {} completed, {} proxied to the cloud (the purchases)",
        stats.completed, stats.forwarded
    );
    println!(
        "median latency {:.1} ms; strong-consistency ledger rows at the cloud: {}",
        stats.latency.median().unwrap().as_millis_f64(),
        match sys.cloud.server.db.exec("SELECT COUNT(*) FROM ledger")? {
            edgstr_sql::SqlResult::Rows { rows, .. } => rows[0][0].to_string(),
            _ => unreachable!(),
        }
    );
    assert_eq!(stats.forwarded, 2);
    println!("\nthe ledger never left the cloud; the catalog got edge-fast.");
    Ok(())
}
