//! Criterion microbenchmarks for the EdgStr substrates: CRDT operations
//! and merging, datalog fixpoints, the SQL engine, sync apply and wire
//! sizing, the post-handler response path, JSON object building, the
//! NodeScript pipeline, template rendering, and full service profiling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use edgstr_analysis::{profile_service, InitState, ServerProcess};
use edgstr_crdt::wire::{put_changes, Count};
use edgstr_crdt::{ActorId, Cell, Doc, Row, Slot, VClock, Value};
use edgstr_datalog::{Const, Database, Rule, RuleAtom, Term};
use edgstr_net::HttpRequest;
use edgstr_sql::SqlDb;
use serde_json::json;

fn bench_crdt(c: &mut Criterion) {
    let mut g = c.benchmark_group("crdt");
    g.bench_function("doc_put_100", |b| {
        b.iter_batched(
            || Doc::new(ActorId(1)),
            |mut doc| {
                for i in 0..100 {
                    doc.put(&format!("k{i}"), Value::Json(json!(i)));
                }
                doc
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("apply_changes_100", |b| {
        let mut src = Doc::new(ActorId(1));
        for i in 0..100 {
            src.put(&format!("k{i}"), Value::Json(json!(i)));
        }
        let changes = src.get_changes(&VClock::new());
        b.iter_batched(
            || (Doc::new(ActorId(2)), changes.clone()),
            |(mut doc, changes)| {
                doc.apply_changes(&VClock::new(), src.clock(), changes);
                doc
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("table_upsert_100_rows", |b| {
        let columns: std::sync::Arc<[String]> = ["v".to_string(), "s".to_string()].into();
        b.iter_batched(
            || Doc::new(ActorId(1)),
            |mut t| {
                for i in 0..100 {
                    let cells = [Cell::Int(i), Cell::Text("x".to_string())];
                    let row = Row::new(columns.clone(), cells.into());
                    t.put(&format!("r{i}"), Value::Row(row));
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("bidirectional_merge", |b| {
        b.iter_batched(
            || {
                let mut a = Doc::new(ActorId(1));
                let mut bdoc = Doc::new(ActorId(2));
                for i in 0..50 {
                    a.put(&format!("a{i}"), Value::Json(json!(i)));
                    bdoc.put(&format!("b{i}"), Value::Json(json!(i)));
                }
                (a, bdoc)
            },
            |(mut a, mut bdoc)| {
                pull(&mut a, &bdoc);
                pull(&mut bdoc, &a);
                (a, bdoc)
            },
            BatchSize::SmallInput,
        )
    });
    // 256 upserted rows: handing them to a peer is 256 reference counts,
    // not 256 deep copies
    g.bench_function("get_changes_256", |b| {
        let t = upserted_table(256);
        let since = VClock::new();
        b.iter(|| t.get_changes(&since))
    });
    // the receive side of the wire: 64 row upserts from their bytes
    g.bench_function("decode_64", |b| {
        let mut bytes = Vec::new();
        for c in upserted_table(64).get_changes(&VClock::new()) {
            c.encode(&mut bytes);
        }
        b.iter(|| {
            let mut rest = &bytes[..];
            let mut decoded = Vec::with_capacity(64);
            while !rest.is_empty() {
                let (slot, tail) = Slot::decode(rest).unwrap();
                decoded.push(slot);
                rest = tail;
            }
            decoded
        })
    });
    // the provisioning image of a table of `rows` upserted rows; loading
    // it rebuilds the dot index
    for rows in [512u32, 4096] {
        let t = upserted_table(rows);
        let image = t.save();
        println!(
            "crdt/image/{rows}: {} B, {} B/row",
            image.len(),
            image.len() / rows as usize
        );
        g.bench_function(&format!("image_save/{rows}"), |b| b.iter(|| t.save()));
        g.bench_function(&format!("image_load/{rows}"), |b| {
            b.iter(|| Doc::load(ActorId(3), &image).unwrap())
        });
    }
    g.finish();
}

/// Merge everything `src` has that `dst` has not.
fn pull(dst: &mut Doc, src: &Doc) {
    let base = dst.clock().clone();
    let changes = src.get_changes(&base);
    dst.apply_changes(&base, src.clock(), changes);
}

/// A table of `n` bookworm-shaped rows, each upserted once.
fn upserted_table(n: u32) -> Doc {
    let mut t = Doc::new(ActorId(2));
    let columns: std::sync::Arc<[String]> = ["id", "title", "author", "price", "stock"]
        .map(String::from)
        .into();
    for id in 0..n {
        let cells = [
            Cell::Int(i64::from(id)),
            Cell::Text(format!("amber basin {id}")),
            Cell::Text("Egan".to_string()),
            Cell::Real(9.5),
            Cell::Int(3),
        ];
        let row = Row::new(columns.clone(), cells.into());
        t.put(&id.to_string(), Value::Row(row));
    }
    t
}

/// A source doc holding `n` live keys, the last 100 written above
/// `since`, plus a receiver replica holding everything up to `since`.
fn delta_fixture(n: u64) -> (Doc, VClock, Doc) {
    let mut src = Doc::new(ActorId(1));
    for i in 0..n - 100 {
        src.put(&format!("k{i}"), Value::Json(json!(i)));
    }
    let mut receiver = Doc::new(ActorId(2));
    pull(&mut receiver, &src);
    let since = src.clock().clone();
    for i in 0..100u64 {
        src.put(&format!("d{i}"), Value::Json(json!(i)));
    }
    (src, since, receiver)
}

/// The replication hot path as the state grows: a delta read from the
/// dot index above `since` costs O(delta) however many keys are live, and
/// so does merging it.
fn bench_log_structure(c: &mut Criterion) {
    let mut g = c.benchmark_group("log_structure");
    for n in [1_000u64, 10_000, 100_000] {
        let (src, since, receiver) = delta_fixture(n);
        g.bench_function(&format!("get_changes_indexed/{n}"), |b| {
            b.iter(|| src.get_changes(&since))
        });
        let delta = src.get_changes(&since);
        g.bench_function(&format!("apply_delta_100/{n}"), |b| {
            b.iter_batched(
                || (receiver.clone(), delta.clone()),
                |(mut r, d)| {
                    r.apply_changes(&since, src.clock(), d);
                    r
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_datalog(c: &mut Criterion) {
    c.bench_function("datalog_transitive_closure_100", |b| {
        let v = Term::var;
        let rules = vec![
            Rule::new(
                RuleAtom::pos("path", vec![v("X"), v("Y")]),
                vec![RuleAtom::pos("edge", vec![v("X"), v("Y")])],
            ),
            Rule::new(
                RuleAtom::pos("path", vec![v("X"), v("Z")]),
                vec![
                    RuleAtom::pos("path", vec![v("X"), v("Y")]),
                    RuleAtom::pos("edge", vec![v("Y"), v("Z")]),
                ],
            ),
        ];
        b.iter_batched(
            || {
                let mut db = Database::new();
                for i in 0..100i64 {
                    db.add_fact("edge", vec![Const::int(i), Const::int(i + 1)]);
                }
                db
            },
            |mut db| {
                db.evaluate(&rules).unwrap();
                db
            },
            BatchSize::SmallInput,
        )
    });
    // a wider fixpoint where the recursive join dominates: the
    // first-bound-column index probes edge(Y, Z) with Y bound instead of
    // scanning the whole relation every round
    c.bench_function("datalog_transitive_closure_chain_300", |b| {
        let v = Term::var;
        let rules = vec![
            Rule::new(
                RuleAtom::pos("path", vec![v("X"), v("Y")]),
                vec![RuleAtom::pos("edge", vec![v("X"), v("Y")])],
            ),
            Rule::new(
                RuleAtom::pos("path", vec![v("X"), v("Z")]),
                vec![
                    RuleAtom::pos("path", vec![v("X"), v("Y")]),
                    RuleAtom::pos("edge", vec![v("Y"), v("Z")]),
                ],
            ),
        ];
        b.iter_batched(
            || {
                let mut db = Database::new();
                for i in 0..300i64 {
                    db.add_fact("edge", vec![Const::int(i), Const::int(i + 1)]);
                }
                db
            },
            |mut db| {
                db.evaluate(&rules).unwrap();
                db
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sql(c: &mut Criterion) {
    let mut g = c.benchmark_group("sql");
    g.bench_function("insert_100", |b| {
        b.iter_batched(
            || {
                let mut db = SqlDb::new();
                db.exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                    .unwrap();
                db
            },
            |mut db| {
                for i in 0..100 {
                    db.exec(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                        .unwrap();
                }
                db
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("select_filtered", |b| {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..500 {
            db.exec(&format!("INSERT INTO t VALUES ({i}, {})", i % 17))
                .unwrap();
        }
        b.iter(|| {
            db.exec("SELECT id FROM t WHERE v >= 5 AND v < 9 ORDER BY id DESC LIMIT 20")
                .unwrap()
        })
    });
    // The primary key is the index: a pinned lookup, and an insert into
    // the middle of the table (the worst slot) with the delete that undoes
    // it, at two table sizes.
    for rows in [512u32, 4_096] {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..rows {
            db.exec(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        let select = format!("SELECT * FROM t WHERE id = {}", rows / 2);
        g.bench_function(&format!("point_select/{rows}"), |b| {
            b.iter(|| db.exec(&select).unwrap())
        });
        let insert = format!("INSERT INTO t VALUES ({}.5, 'new')", rows / 2);
        let delete = format!("DELETE FROM t WHERE id = {}.5", rows / 2);
        g.bench_function(&format!("insert/{rows}"), |b| {
            b.iter(|| {
                db.exec(&insert).unwrap();
                db.exec(&delete).unwrap()
            })
        });
    }
    // The two scanning statements of a catalog (bookworm's `/search` and
    // `/recommend`): every row is tested, few are returned. 48 words make
    // two-word titles, so `%word%` hits about one title in 24; one book in
    // 20 is in stock.
    let words: Vec<String> = ["am", "ba", "ce", "del", "em", "fjo", "gro", "ha"]
        .iter()
        .flat_map(|head| {
            ["ber", "sin", "dar", "ta", "rd", "ven"].map(|tail| format!("{head}{tail}"))
        })
        .collect();
    let book = |i: usize| {
        let title = format!("{} {}", words[i * 7 % 48], words[(i * 13 + 5) % 48]);
        let price = 4.0 + (i * 37 % 1600) as f64 / 100.0;
        (title, price, u8::from(i.is_multiple_of(20)) * 3)
    };
    let catalog = |rows: usize| {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, author TEXT, price REAL, stock INT)")
            .unwrap();
        for i in 0..rows {
            let (title, price, stock) = book(i);
            db.exec(&format!(
                "INSERT INTO books VALUES ({i}, '{title}', 'Egan', {price:?}, {stock})"
            ))
            .unwrap();
        }
        db
    };
    // The same catalog as an edge holds it: written at another replica and
    // materialised here by sync rounds of eight rows, so each row's cells
    // sit where that round's allocations left them, not in key order.
    let synced = |rows: usize| {
        use edgstr_analysis::StateUnit;
        use edgstr_core::CrdtBindings;
        use edgstr_runtime::{CrdtSet, SyncEndpoint};
        const WRITER: &str = r#"
            db.query("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, author TEXT, price REAL, stock INT)");
            app.post("/books", function (req, res) {
                var b = req.body;
                db.query("INSERT INTO books VALUES (" + b.id + ", '" + b.title + "', 'Egan', " + b.price + ", " + b.stock + ")");
                res.send({ ok: true });
            });
        "#;
        let node = |actor: u64| {
            let mut s = ServerProcess::from_source(WRITER).unwrap();
            s.init().unwrap();
            let bindings = CrdtBindings::from_units([StateUnit::DbTable("books".into())]);
            let set = CrdtSet::initialize(ActorId(actor), &bindings, &InitState::capture(&s));
            (s, set)
        };
        let (mut writer, mut writer_set) = node(2);
        let (mut edge, mut edge_set) = node(1);
        let (to_edge, mut from_writer) = (SyncEndpoint::new(), SyncEndpoint::new());
        for i in 0..rows {
            let (title, price, stock) = book(i);
            let body = json!({"id": i, "title": title, "price": price, "stock": stock});
            let out = writer
                .handle(&HttpRequest::post("/books", body, vec![]))
                .unwrap();
            writer_set.absorb_outcome(&out, &writer);
            if i % 8 == 7 || i + 1 == rows {
                let delta = to_edge.generate(&writer_set);
                from_writer.receive_owned(&mut edge_set, &mut edge, delta);
            }
        }
        // the same books, an integral price aside: the script prints 4.0
        // as 4, which reads back as an INT
        let edge = edge.db;
        let cells = |db: &SqlDb| db.table("books").unwrap().rows.concat();
        let (got, want) = (cells(&edge), cells(&catalog(rows)));
        assert!(got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| a.pk_cmp(b).is_eq()));
        edge
    };
    // A miss on an edge scans rows that other requests' work has pushed
    // out of the core's private caches, so every timed scan of the synced
    // table starts after a pass over a buffer larger than them; fresh rows
    // are scanned hot and in order, which leaves a prefetch nothing to hide.
    let mut flush = vec![0u8; 16 << 20];
    let mut evict = || {
        for byte in flush.iter_mut().step_by(64) {
            *byte = byte.wrapping_add(1);
        }
        std::hint::black_box(&flush);
    };
    let mut tables = [
        ("512", catalog(512), false),
        ("4096", catalog(4_096), false),
        ("4096_synced", synced(4_096), true),
    ];
    let like = format!(
        "SELECT id, title FROM books WHERE title LIKE '%{}%'",
        words[17]
    );
    let range = "SELECT id, title, price FROM books \
                 WHERE price <= 12 AND stock > 0 ORDER BY price DESC LIMIT 3";
    for (name, db, cold) in &mut tables {
        for (bench, sql) in [("like_scan", like.as_str()), ("range_scan", range)] {
            g.bench_function(&format!("{bench}/{name}"), |b| {
                if *cold {
                    b.iter_batched(
                        &mut evict,
                        |()| db.exec(sql).unwrap(),
                        BatchSize::PerIteration,
                    )
                } else {
                    b.iter(|| db.exec(sql).unwrap())
                }
            });
        }
    }
    // A `LIKE` scan searches a copy of its column's text that lives until
    // a write makes it stale. A stock write, as `PUT /stock` makes, leaves
    // the title copy as it was; an insert drops it, so the next scan pays
    // for a rebuild (the insert, and the delete that undoes it, are timed
    // too).
    let [_, (_, fresh, _), (_, synced_db, _)] = &mut tables;
    let mut writes = 0;
    g.bench_function("like_scan/4096_synced_after_stock_write", |b| {
        b.iter_batched(
            &mut evict,
            |()| {
                writes += 1;
                let stock = format!(
                    "UPDATE books SET stock = {} WHERE id = {}",
                    writes % 7,
                    writes * 17 % 4_096
                );
                synced_db.exec(&stock).unwrap();
                synced_db.exec(&like).unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("like_scan/4096_after_insert", |b| {
        b.iter(|| {
            fresh
                .exec("INSERT INTO books VALUES (2048.5, 'new', 'Egan', 9.5, 1)")
                .unwrap();
            let hits = fresh.exec(&like).unwrap();
            fresh.exec("DELETE FROM books WHERE id = 2048.5").unwrap();
            hits
        })
    });
    // Every row returned, none filtered, as a handler sees it: `select_all`
    // reads a cell of every row, so the rows are built as objects;
    // `select_all_length` reads only the count, so they never are.
    for (bench, script, n) in [
        (
            "select_all/512",
            r#"app.get("/all", function (req, res) {
                var rows = db.query("SELECT * FROM books");
                var stock = 0;
                rows.forEach(function (row) { stock = stock + row.stock; });
                res.send({ n: rows.length, stock: stock });
            });"#,
            json!({"n": 512, "stock": (0..512).map(|i| u32::from(book(i).2)).sum::<u32>()}),
        ),
        (
            "select_all_length/512",
            r#"app.get("/all", function (req, res) {
                var rows = db.query("SELECT * FROM books");
                res.send({ n: rows.length });
            });"#,
            json!({"n": 512}),
        ),
    ] {
        g.bench_function(bench, |b| {
            let mut server = ServerProcess::from_source(script).unwrap();
            server.init().unwrap();
            server.db = catalog(512);
            let request = HttpRequest::get("/all", json!({}));
            assert_eq!(server.handle(&request).unwrap().response.body, n);
            b.iter(|| server.handle(&request).unwrap())
        });
    }
    g.finish();
}

/// The two per-round costs of background sync that must follow the delta,
/// not the table or the hop count: materialising an applied delta into
/// the receiver's database, and sizing changes for traffic accounting.
fn bench_sync(c: &mut Criterion) {
    use edgstr_analysis::StateUnit;
    use edgstr_core::CrdtBindings;
    use edgstr_runtime::{CrdtSet, SyncEndpoint};

    const CATALOG: &str = r#"
        db.query("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, stock INT)");
        app.post("/stock", function (req, res) {
            db.query("UPDATE books SET stock = " + req.body.qty + " WHERE id = " + req.body.id);
            res.send({ ok: true });
        });
    "#;
    let catalog = |rows: u32| {
        let mut s = ServerProcess::from_source(CATALOG).unwrap();
        s.init().unwrap();
        for i in 0..rows {
            s.db.exec(&format!("INSERT INTO books VALUES ({i}, 'title {i}', 1)"))
                .unwrap();
        }
        InitState::capture(&s)
    };
    let node = |actor: u64, init: &InitState| {
        let mut s = ServerProcess::from_source(CATALOG).unwrap();
        s.init().unwrap();
        init.restore(&mut s);
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("books".into())]);
        let set = CrdtSet::initialize(ActorId(actor), &bindings, init);
        (s, set)
    };
    let mut g = c.benchmark_group("sync");
    for rows in [512u32, 4_096] {
        let init = catalog(rows);
        for touched in [1u32, 64] {
            // an edge's delta of `touched` stock updates as the cloud
            // receives it, after one earlier delta: a replica's very first
            // apply grows its object table past the snapshot's size, a
            // one-off that is not the steady state measured here
            let (mut edge, mut edge_set) = node(2, &init);
            let mut to_cloud = SyncEndpoint::new();
            let mut deltas = Vec::new();
            for count in [1, touched] {
                to_cloud.peer_clock = edge_set.clock().clone(); // all shipped so far
                for i in 0..count {
                    let id = (i * 61 + count) % rows;
                    let req = HttpRequest::post("/stock", json!({"id": id, "qty": 7}), vec![]);
                    let out = edge.handle(&req).unwrap();
                    edge_set.absorb_outcome(&out, &edge);
                }
                deltas.push(to_cloud.generate(&edge_set));
            }
            let [first, msg] = &deltas[..] else {
                unreachable!()
            };
            assert_eq!(msg.changes.len(), touched as usize);
            g.bench_function(&format!("apply_delta/{touched}_of_{rows}"), |b| {
                // receivers outlive the timed call: dropping a whole
                // replica would otherwise be most of what is measured
                // (pre-sized, or the vector's own regrowth would be)
                let mut applied = Vec::with_capacity(64);
                b.iter_batched(
                    || {
                        let (mut cloud, mut cloud_set) = node(1, &init);
                        let mut from_edge = SyncEndpoint::new();
                        from_edge.receive_owned(&mut cloud_set, &mut cloud, first.clone());
                        (cloud, cloud_set, from_edge, msg.clone())
                    },
                    |(mut cloud, mut cloud_set, mut from_edge, msg)| {
                        from_edge.receive_owned(&mut cloud_set, &mut cloud, msg);
                        applied.push((cloud, cloud_set));
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    // 64 changes: walked on the first call, remembered on every later one
    let changes = {
        let init = catalog(512);
        let (mut edge, mut edge_set) = node(2, &init);
        let since = edge_set.clock().clone();
        for id in 0..64 {
            let req = HttpRequest::post("/stock", json!({"id": id, "qty": 7}), vec![]);
            let out = edge.handle(&req).unwrap();
            edge_set.absorb_outcome(&out, &edge);
        }
        edge_set.get_changes(&since)
    };
    g.bench_function("wire_size/first_call_64", |b| {
        b.iter_batched(
            || {
                // a clone shares the record and what it remembers, so an
                // unsized batch has to be rebuilt from its parts
                let mut fresh = changes.clone();
                for c in fresh.iter_mut() {
                    *c = Slot::new(c.key().clone(), c.stamps().to_vec());
                }
                fresh
            },
            |cs| batch_size(&cs),
            BatchSize::SmallInput,
        )
    });
    batch_size(&changes);
    g.bench_function("wire_size/repeat_64", |b| b.iter(|| batch_size(&changes)));
    g.finish();
}

/// The wire length of `changes` as one batch of a sync message.
fn batch_size(changes: &[Slot]) -> usize {
    Count::of(|n| put_changes(n, changes))
}

/// The CRDT side of a replicated row write on bookworm rows, 64 writes an
/// iteration (the handlers run untimed): absorbing inserts on the writing
/// edge, absorbing stock updates that overwrite existing rows, and a
/// replica of 512 or 4 096 rows applying and materialising a delta of 64
/// inserts.
fn bench_row_write(c: &mut Criterion) {
    use edgstr_analysis::StateUnit;
    use edgstr_core::CrdtBindings;
    use edgstr_net::Verb;
    use edgstr_runtime::{CrdtSet, SyncEndpoint};
    use std::cell::RefCell;

    let catalog = |rows: i64| {
        let mut s = ServerProcess::from_source(edgstr_apps::bookworm::SOURCE).unwrap();
        s.init().unwrap();
        // the app seeds ids 1-5
        for id in 6..=rows {
            let insert =
                format!("INSERT INTO books VALUES ({id}, 'amber basin {id}', 'Egan', 9.5, 3)");
            s.db.exec(&insert).unwrap();
        }
        InitState::capture(&s)
    };
    let node = |actor: u64, init: &InitState| {
        let mut s = ServerProcess::from_source(edgstr_apps::bookworm::SOURCE).unwrap();
        s.init().unwrap();
        init.restore(&mut s);
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("books".into())]);
        (s, CrdtSet::initialize(ActorId(actor), &bindings, init))
    };
    let add = |id: i64| {
        let book =
            json!({"id": id, "title": format!("amber basin {id}"), "author": "Egan", "price": 9.5});
        HttpRequest::post("/books", book, vec![])
    };
    let stock = |id: i64, qty: i64| HttpRequest {
        verb: Verb::Put,
        path: "/stock".to_string(),
        params: json!({"id": id, "qty": qty}),
        body: vec![],
    };
    let mut g = c.benchmark_group("crdt");
    let init = catalog(512);
    for (name, overwrite) in [("absorb", false), ("overwrite", true)] {
        let (server, mut set) = node(2, &init);
        let server = RefCell::new(server);
        let mut next = 10_000i64;
        g.bench_function(&format!("row_write/{name}"), |b| {
            b.iter_batched(
                || {
                    let mut server = server.borrow_mut();
                    (0..64)
                        .map(|i| {
                            next += 1;
                            let req = if overwrite {
                                stock(1 + i, next)
                            } else {
                                add(next)
                            };
                            server.handle(&req).unwrap()
                        })
                        .collect::<Vec<_>>()
                },
                |outs| {
                    let server = server.borrow();
                    for out in &outs {
                        set.absorb_outcome(out, &server);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    for rows in [512i64, 4_096] {
        let init = catalog(rows);
        // an edge's delta of 64 inserts, after one earlier delta (as
        // `sync/apply_delta`: a replica's first apply grows its tables)
        let (mut edge, mut edge_set) = node(2, &init);
        let mut to_cloud = SyncEndpoint::new();
        let mut deltas = Vec::new();
        for (first, count) in [(20_000, 1), (30_000, 64)] {
            to_cloud.peer_clock = edge_set.clock().clone();
            for id in first..first + count {
                let out = edge.handle(&add(id)).unwrap();
                edge_set.absorb_outcome(&out, &edge);
            }
            deltas.push(to_cloud.generate(&edge_set));
        }
        let [first, msg] = &deltas[..] else {
            unreachable!()
        };
        g.bench_function(&format!("row_write/apply_materialize/{rows}"), |b| {
            let mut applied = Vec::with_capacity(64);
            b.iter_batched(
                || {
                    let (mut cloud, mut cloud_set) = node(1, &init);
                    let mut from_edge = SyncEndpoint::new();
                    from_edge.receive_owned(&mut cloud_set, &mut cloud, first.clone());
                    (cloud, cloud_set, from_edge, msg.clone())
                },
                |(mut cloud, mut cloud_set, mut from_edge, msg)| {
                    from_edge.receive_owned(&mut cloud_set, &mut cloud, msg);
                    applied.push((cloud, cloud_set));
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// What a replica pays per request after the handler has answered, on the
/// list-shaped body where it is largest — bookworm's `/books` over 512
/// rows, ~30 KB of JSON — and what a whole miss on it costs.
fn bench_response(c: &mut Criterion) {
    use edgstr_runtime::{CacheKey, ResponseCache, RunRecorder, UnitVersions};
    use edgstr_sim::SimTime;
    use edgstr_telemetry::Telemetry;

    let mut server = ServerProcess::from_source(edgstr_apps::bookworm::SOURCE).unwrap();
    server.init().unwrap();
    for id in 101..608 {
        let insert = format!("INSERT INTO books VALUES ({id}, 'amber basin {id}', 'Egan', 9.5, 3)");
        server.db.exec(&insert).unwrap();
    }
    let request = HttpRequest::get("/books", json!({}));
    let response = server.handle(&request).unwrap().response;
    assert_eq!(response.body["books"].as_array().unwrap().len(), 512);

    let mut g = c.benchmark_group("response");
    // one cache hit as the run loop sees it: look the entry up, size the
    // response for the LAN, fold it into the run's response digest
    g.bench_function("hit_path_30k", |b| {
        let versions = UnitVersions::default();
        let key = CacheKey::for_request(&request);
        let mut cache = ResponseCache::new(1 << 20, &Telemetry::disabled());
        cache.fill(key.clone(), &response, Vec::new());
        let mut rec = RunRecorder::new(&Telemetry::disabled());
        let mut hit = || {
            let served = cache.lookup(&key, &versions).expect("resident entry");
            let bytes = served.size();
            rec.complete(&served, SimTime::ZERO, SimTime(1), 0.0);
            bytes
        };
        hit(); // the steady state: not the first hit after the fill
        b.iter(hit)
    });
    let body = response.body.into_json();
    g.bench_function("encode_30k", |b| {
        b.iter(|| serde_json::to_string(&body).unwrap())
    });
    // one cache miss on the same service at the benchmark's catalogue
    // size (517 rows, 36 KB): run the handler, then everything a replica
    // asks of the answer — LAN size, text, digest — and free it, as the
    // cache does once a write has staled the entry
    for id in 608..613 {
        let insert = format!("INSERT INTO books VALUES ({id}, 'amber basin {id}', 'Egan', 9.5, 3)");
        server.db.exec(&insert).unwrap();
    }
    g.bench_function("books_517/serve", |b| {
        b.iter(|| {
            let response = server.handle(&request).unwrap().response;
            (
                response.size(),
                response.body.text().len(),
                response.digest(),
            )
        })
    });
    g.finish();
}

/// The JSON map: a one-key request's params built and dropped, and a
/// 4,096-key object collected from pairs out of key order (sorted once).
fn bench_json(c: &mut Criterion) {
    let mut g = c.benchmark_group("json");
    g.bench_function("params_1key", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            json!({ "id": id })
        })
    });
    // a fixed permutation of the keys: 1,597 is prime to 4,096
    let pairs: Vec<(String, serde_json::Value)> = (0..4096u64)
        .map(|i| (format!("k{:04}", i * 1597 % 4096), json!(i)))
        .collect();
    g.bench_function("collect_4096_out_of_order", |b| {
        b.iter_batched(
            || pairs.clone(),
            |pairs| pairs.into_iter().collect::<serde_json::Map>(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_lang(c: &mut Criterion) {
    let mut g = c.benchmark_group("lang");
    let src = edgstr_apps::medchem::SOURCE;
    g.bench_function("parse_subject_app", |b| {
        b.iter(|| edgstr_lang::parse(src).unwrap())
    });
    g.bench_function("normalize_subject_app", |b| {
        let prog = edgstr_lang::parse(src).unwrap();
        b.iter(|| edgstr_lang::normalize(&prog))
    });
    g.bench_function("handle_request", |b| {
        let mut server = ServerProcess::from_source(src).unwrap();
        server.init().unwrap();
        let req = HttpRequest::post("/screen", json!({"smiles": "CCNOcccNO"}), vec![]);
        b.iter(|| server.handle(&req).unwrap())
    });
    g.finish();
}

/// Engine dispatch costs: slot-resolved bytecode vs tree-walking
/// name lookup, closure-call overhead, and the copy-on-write checkpoint
/// path against deep snapshot/restore.
fn bench_interp_dispatch(c: &mut Criterion) {
    use edgstr_lang::{EmptyHost, Interpreter, NoopInstrument, Vm};
    use std::rc::Rc;
    let mut g = c.benchmark_group("interp_dispatch");

    // hot loop over locals + calls: every variable access is a name lookup
    // in the tree-walker and a slot index in the VM
    let script = r#"
        function mix(a, b) { return (a * 31 + b) % 1000003; }
        function work(n) {
            var acc = 0;
            var i = 0;
            while (i < n) {
                acc = mix(acc, i);
                i = i + 1;
            }
            return acc;
        }
        var out = work(1000);
    "#;
    let program = edgstr_lang::parse(script).unwrap();
    g.bench_function("script_loop/tree_walk", |b| {
        b.iter(|| {
            let mut host = EmptyHost;
            let mut interp = Interpreter::new(&mut host);
            interp.run_program(&program, &mut NoopInstrument).unwrap();
            interp.cycles()
        })
    });
    let compiled = Rc::new(edgstr_lang::compile(&program));
    g.bench_function("script_loop/compiled", |b| {
        b.iter(|| {
            let mut host = EmptyHost;
            let mut vm = Vm::new(Rc::clone(&compiled), &[]);
            vm.run_top(&mut host, &mut NoopInstrument).unwrap()
        })
    });

    // call overhead: deep recursion, almost no per-frame work
    let calls = r#"
        function down(n) { if (n <= 0) { return 0; } return down(n - 1); }
        var r = 0;
        var i = 0;
        while (i < 50) { r = down(60); i = i + 1; }
    "#;
    let program = edgstr_lang::parse(calls).unwrap();
    g.bench_function("call_overhead/tree_walk", |b| {
        b.iter(|| {
            let mut host = EmptyHost;
            let mut interp = Interpreter::new(&mut host);
            interp.run_program(&program, &mut NoopInstrument).unwrap();
            interp.cycles()
        })
    });
    let compiled = Rc::new(edgstr_lang::compile(&program));
    g.bench_function("call_overhead/compiled", |b| {
        b.iter(|| {
            let mut host = EmptyHost;
            let mut vm = Vm::new(Rc::clone(&compiled), &[]);
            vm.run_top(&mut host, &mut NoopInstrument).unwrap()
        })
    });

    // cold compilation of a full subject app: FNV-hashed intern lookups
    // plus pre-sized pools (no rehash/regrow during the single pass)
    let subject = edgstr_lang::parse(edgstr_apps::medchem::SOURCE).unwrap();
    g.bench_function("compile_cold", |b| {
        b.iter(|| edgstr_lang::compile(&subject))
    });

    // per-request state isolation: deep snapshot/restore of all globals
    // versus the journaled checkpoint that clones only what was touched
    let stateful = r#"
        var counters = {};
        var log = [];
        var blob = [];
        var i = 0;
        while (i < 200) { blob.push(i); i = i + 1; }
        function bump(k) {
            counters[k] = (counters[k] || 0) + 1;
            log.push(k);
            return counters[k];
        }
        var seed = bump('a');
    "#;
    let program = edgstr_lang::parse(stateful).unwrap();
    let compiled = Rc::new(edgstr_lang::compile(&program));
    let mut host = EmptyHost;
    let mut vm = Vm::new(Rc::clone(&compiled), &[]);
    vm.run_top(&mut host, &mut NoopInstrument).unwrap();
    let bump = vm.get_global("bump").unwrap();
    g.bench_function("isolation/snapshot_restore", |b| {
        b.iter(|| {
            let snap = vm.snapshot_globals();
            let mut host = EmptyHost;
            vm.call_value(
                &bump,
                vec![edgstr_lang::Value::str("b")],
                &mut host,
                &mut NoopInstrument,
            )
            .unwrap();
            vm.restore_globals(&snap);
        })
    });
    g.bench_function("isolation/checkpoint_rollback", |b| {
        vm.begin_checkpoint();
        b.iter(|| {
            let mut host = EmptyHost;
            vm.call_value(
                &bump,
                vec![edgstr_lang::Value::str("b")],
                &mut host,
                &mut NoopInstrument,
            )
            .unwrap();
            vm.rollback_checkpoint();
        });
        vm.end_checkpoint();
    });
    g.finish();
}

/// The memoized sorted view of `LatencyStats`: repeated quantile queries
/// are O(1) after the first, and a query after k pushes costs a tail sort
/// plus an O(n) merge rather than a full O(n log n) re-sort.
fn bench_metrics(c: &mut Criterion) {
    use edgstr_sim::{LatencyStats, SimDuration};
    let mut g = c.benchmark_group("latency_stats");
    let filled = || {
        let mut s = LatencyStats::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.record(SimDuration(x >> 40));
        }
        s
    };
    g.bench_function("quantile_repeated_100k", |b| {
        let mut s = filled();
        s.median(); // warm the sorted view
        b.iter(|| (s.quantile(0.5), s.quantile(0.95), s.quantile(0.99)))
    });
    g.bench_function("quantile_after_push_100k", |b| {
        let mut s = filled();
        s.median();
        b.iter(|| {
            s.record(SimDuration(42));
            s.quantile(0.99)
        })
    });
    g.finish();
}

fn bench_template(c: &mut Criterion) {
    c.bench_function("template_render_replica", |b| {
        let ctx = json!({
            "app": "bench",
            "count": 3,
            "bindings": "1 table(s)",
            "support": ["function f(x) { return x; }\n"],
            "services": (0..3).map(|i| json!({
                "source": format!("function ftn_{i}(req, res) {{ res.send({i}); }}\n"),
                "method": "get",
                "path": format!("/s{i}"),
                "fname": format!("ftn_{i}"),
            })).collect::<Vec<_>>(),
        });
        b.iter(|| edgstr_template::render(edgstr_core::REPLICA_TEMPLATE, &ctx).unwrap())
    });
}

/// The wall-clock parallel executor's fixed costs: a whole run over a
/// cache-hot read stream (handling is a lookup, so thread setup, routing
/// and the phase signals dominate), and the
/// edge→cloud sync cadence at batch sizes 1/16/256 on a write-bearing
/// mix (every flush is a delta generate/receive round-trip).
fn bench_parallel(c: &mut Criterion) {
    use edgstr_runtime::{CachePolicy, ParallelOptions, ParallelSystem};
    let mut g = c.benchmark_group("parallel");

    let app = edgstr_apps::all_apps()
        .into_iter()
        .find(|a| a.name == "sensor-hub")
        .unwrap();
    let report = edgstr_bench::transform_app(&app);
    let replicated: Vec<HttpRequest> = report
        .services
        .iter()
        .filter(|s| s.replicated)
        .filter_map(|s| {
            app.service_requests
                .iter()
                .find(|r| r.verb == s.verb && r.path == s.path)
                .cloned()
        })
        .collect();
    let (reads, writes): (Vec<HttpRequest>, Vec<HttpRequest>) = replicated
        .into_iter()
        .partition(|r| r.verb == edgstr_net::Verb::Get);
    assert!(!reads.is_empty() && !writes.is_empty());

    // Cache-hot dispatch: the app's own example reads, repeated — after
    // each replica's first pass every request is a response-cache hit.
    let hot: Vec<HttpRequest> = (0..512).map(|i| reads[i % reads.len()].clone()).collect();
    let opts = |workers: usize, sync_batch: usize| ParallelOptions {
        replicas: 4,
        workers,
        sync_batch,
        cache: CachePolicy::All,
        ..ParallelOptions::default()
    };
    for workers in [1usize, 2] {
        g.bench_function(&format!("dispatch_512_cached/workers_{workers}"), |b| {
            b.iter(|| ParallelSystem::new(&app.source, &report, opts(workers, 16)).run(&hot))
        });
    }

    // Sync cadence: a write-bearing mix, flushed every 1 / 16 / 256
    // served requests per replica.
    let mixed: Vec<HttpRequest> = (0..512)
        .map(|i| {
            if i % 4 == 0 {
                edgstr_bench::unique_variant(&writes[0], 90_000 + i as i64)
            } else {
                reads[i % reads.len()].clone()
            }
        })
        .collect();
    for batch in [1usize, 16, 256] {
        g.bench_function(&format!("sync_batch_512_mixed/batch_{batch}"), |b| {
            b.iter(|| ParallelSystem::new(&app.source, &report, opts(2, batch)).run(&mixed))
        });
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    c.bench_function("profile_service_full", |b| {
        let src = r#"
            db.query("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
            var n = 0;
            app.post("/w", function (req, res) {
                n = n + 1;
                db.query("INSERT INTO t VALUES (" + n + ", " + req.body.v + ")");
                res.send({ n: n });
            });
        "#;
        let program = edgstr_lang::normalize(&edgstr_lang::parse(src).unwrap());
        let mut server = ServerProcess::from_program(program);
        server.init().unwrap();
        let init = InitState::capture(&server);
        let req = HttpRequest::post("/w", json!({"v": 9}), vec![]);
        b.iter(|| profile_service(&mut server, &init, &req, 3).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_crdt, bench_log_structure, bench_datalog, bench_sql, bench_sync, bench_row_write, bench_response, bench_json, bench_lang, bench_interp_dispatch, bench_metrics, bench_template, bench_parallel, bench_pipeline
}
criterion_main!(benches);
