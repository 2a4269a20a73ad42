//! The five named workloads and their seeded request generators.
//!
//! The seed is a CLI argument; the program under test only ever receives
//! the generated requests. Every stream is failure-free by construction:
//! writes use fresh or pre-seeded primary keys, and no service whose
//! primary key comes from a replicated LWW counter is used (under
//! multi-edge spreading those hit duplicate-key errors and take the
//! forward path, which the probe cannot mirror from outside).

use edgstr_net::{HttpRequest, Verb};
use edgstr_runtime::{TimedRequest, Workload};
use edgstr_sim::{DetRng, SimTime};
use serde_json::json;

/// Open-loop arrival rate in virtual time, shared by every virtual-time
/// workload: one background sync round per 400 requests, and with the
/// default LAN's ~4 ms round trip more than one request is in flight, so
/// least-connections balancing genuinely spreads load over the edges.
pub const ARRIVAL_RPS: u64 = 400;

/// `--smoke` divides every request count by this.
pub const SMOKE_DIVISOR: usize = 20;

/// Replica count of the threaded workload; prologue writes are emitted
/// this many times in a row so static routing `i % REPLICAS` seeds every
/// replica.
pub const THREADED_REPLICAS: usize = 4;

/// First id the prologue inserts (bookworm's init creates ids 1..=5).
const FIRST_BOOK_ID: i64 = 101;
/// First id of books inserted by the timed stream.
const FRESH_BOOK_ID: i64 = 1_000_000;
const ZIPF_S: f64 = 1.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Bookworm,
    TextAnalyzer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `ThreeTierSystem` under virtual time, one host thread.
    ThreeTier,
    /// `ParallelSystem`, real worker threads.
    Threaded,
}

/// Generates `n` timed requests over the catalog the prologue seeded.
type Mix = fn(&mut DetRng, &Catalog, usize) -> Vec<HttpRequest>;

/// One named workload: which app and executor, how many requests one rep
/// serves, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub app: App,
    pub executor: Executor,
    /// Timed requests per rep at full size.
    pub n: usize,
    /// Books the untimed prologue inserts.
    pub prologue_books: usize,
    mix: Mix,
    pub why: &'static str,
}

/// Request counts are sized so one timed rep takes 1–2 s on the 2-core
/// build host; a run repeats fresh reps until `--seconds` of timed work
/// has accumulated. The count per rep is fixed rather than the duration
/// because cost per request grows with replicated state.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "catalog-hot",
        app: App::Bookworm,
        executor: Executor::ThreeTier,
        n: 40_000,
        prologue_books: 512,
        mix: catalog_hot,
        why: "bookworm, 40000 req/rep, 98% reads, Zipf(1.1) over 512 ids: working set fits the cache, so cache lookup and per-request bookkeeping dominate",
    },
    Spec {
        name: "catalog-scan",
        app: App::Bookworm,
        executor: Executor::ThreeTier,
        n: 4_000,
        prologue_books: 4_096,
        mix: catalog_scan,
        why: "bookworm, 4000 req/rep, uniform reads over 4096 ids plus never-repeating scans: working set exceeds the cache, so SQL scans and cache fill/evict dominate",
    },
    Spec {
        name: "catalog-write",
        app: App::Bookworm,
        executor: Executor::ThreeTier,
        n: 4_000,
        prologue_books: 512,
        mix: catalog_write,
        why: "bookworm, 4000 req/rep, 90% writes: CRDT absorb, change generation, JSON wire sizing, sync apply and compaction dominate; cache and VM do little",
    },
    Spec {
        name: "text-compute",
        app: App::TextAnalyzer,
        executor: Executor::ThreeTier,
        n: 12_000,
        prologue_books: 0,
        mix: text_compute,
        why: "text-analyzer, 12000 req/rep, stateless CPU-bound services on never-repeating texts: the VM dominates, sync is idle, the cache is pure overhead",
    },
    Spec {
        name: "threaded-hot",
        app: App::Bookworm,
        executor: Executor::Threaded,
        n: 60_000,
        prologue_books: 512,
        mix: catalog_hot,
        why: "bookworm, 60000 req/rep, the catalog-hot mix on the threaded executor with 4 replicas: guards real-thread throughput and channel batching",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated inputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Untimed state-seeding writes (for the threaded executor these are
    /// already repeated [`THREADED_REPLICAS`] times and are served at the
    /// head of the one `run` call, which has no separate prologue).
    pub prologue: Vec<HttpRequest>,
    pub requests: Vec<HttpRequest>,
}

/// Open-loop arrivals at [`ARRIVAL_RPS`], the first one at `start`.
pub fn timed(requests: &[HttpRequest], start: SimTime) -> Workload {
    let gap = 1_000_000 / ARRIVAL_RPS;
    Workload {
        requests: requests
            .iter()
            .enumerate()
            .map(|(i, r)| TimedRequest {
                at: SimTime(start.0 + i as u64 * gap),
                request: r.clone(),
            })
            .collect(),
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

const WORDS: [&str; 48] = [
    "amber", "basin", "cedar", "delta", "ember", "fjord", "grove", "haven", "inlet", "jetty",
    "knoll", "larch", "marsh", "north", "oasis", "prism", "quartz", "ridge", "shoal", "thorn",
    "umbra", "vault", "wharf", "xenon", "yield", "zenith", "anchor", "beacon", "cipher", "drift",
    "engine", "fable", "garnet", "harbor", "island", "jungle", "kernel", "lantern", "meadow",
    "nectar", "orchard", "pebble", "quiver", "river", "signal", "timber", "update", "voyage",
];
const AUTHORS: [&str; 8] = [
    "Egan", "Gibson", "Herbert", "Stross", "Butler", "Jemisin", "Chiang", "Banks",
];

fn pick<'a>(rng: &mut DetRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

fn add_book(rng: &mut DetRng, id: i64) -> HttpRequest {
    let title = format!("{} {}", pick(rng, &WORDS), pick(rng, &WORDS));
    let price = 4.0 + rng.below(1600) as f64 / 100.0;
    HttpRequest::post(
        "/books",
        json!({"id": id, "title": title, "author": pick(rng, &AUTHORS), "price": price}),
        vec![],
    )
}

fn set_stock(id: i64, rng: &mut DetRng) -> HttpRequest {
    HttpRequest {
        verb: Verb::Put,
        path: "/stock".to_string(),
        params: json!({"id": id, "qty": rng.below(40)}),
        body: vec![],
    }
}

fn get_book(id: i64) -> HttpRequest {
    HttpRequest::get("/book", json!({"id": id}))
}

/// The catalog's id space: a seeded permutation of the prologue's ids, so
/// Zipf rank 0 is a different book under each seed.
struct Catalog {
    ids: Vec<i64>,
    zipf: Zipf,
}

impl Catalog {
    fn new(rng: &mut DetRng, books: usize) -> Catalog {
        let mut ids: Vec<i64> = (0..books as i64).map(|i| FIRST_BOOK_ID + i).collect();
        rng.shuffle(&mut ids);
        Catalog {
            ids,
            zipf: Zipf::new(books, ZIPF_S),
        }
    }

    fn popular(&self, rng: &mut DetRng) -> i64 {
        self.ids[self.zipf.sample(rng)]
    }

    fn uniform(&self, rng: &mut DetRng) -> i64 {
        self.ids[rng.below(self.ids.len() as u64) as usize]
    }
}

/// `n` request kinds in the exact proportions of `percent`, in seeded
/// order. Drawing each request's kind independently would let the share
/// of expensive kinds — and with it the work per rep — drift by a few
/// percent from seed to seed on the smaller workloads.
fn kinds(rng: &mut DetRng, n: usize, percent: &[usize]) -> Vec<usize> {
    debug_assert_eq!(percent.iter().sum::<usize>(), 100);
    let mut out = Vec::with_capacity(n);
    for (kind, share) in percent.iter().enumerate().skip(1) {
        out.extend(std::iter::repeat_n(kind, n * share / 100));
    }
    // kind 0 takes the rounding remainder
    out.resize(n, 0);
    rng.shuffle(&mut out);
    out
}

fn catalog_hot(rng: &mut DetRng, catalog: &Catalog, n: usize) -> Vec<HttpRequest> {
    let words: Vec<&str> = (0..16).map(|_| pick(rng, &WORDS)).collect();
    let budgets: Vec<u64> = (0..8).map(|_| 5 + rng.below(15)).collect();
    kinds(rng, n, &[76, 10, 10, 2, 2])
        .into_iter()
        .map(|kind| match kind {
            0 => get_book(catalog.popular(rng)),
            1 => HttpRequest::get("/search", json!({"q": pick(rng, &words)})),
            2 => HttpRequest::get(
                "/recommend",
                json!({"budget": budgets[rng.below(8) as usize]}),
            ),
            3 => HttpRequest::get("/books", json!({})),
            _ => set_stock(catalog.popular(rng), rng),
        })
        .collect()
}

fn catalog_scan(rng: &mut DetRng, catalog: &Catalog, n: usize) -> Vec<HttpRequest> {
    kinds(rng, n, &[70, 13, 12, 5])
        .into_iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            0 => get_book(catalog.uniform(rng)),
            // `nonce` is ignored by the service but part of the cache key,
            // so these never repeat while still matching rows
            1 => HttpRequest::get("/search", json!({"q": pick(rng, &WORDS), "nonce": i})),
            2 => HttpRequest::get(
                "/recommend",
                json!({"budget": 5 + rng.below(15), "nonce": i}),
            ),
            _ => set_stock(catalog.uniform(rng), rng),
        })
        .collect()
}

fn catalog_write(rng: &mut DetRng, catalog: &Catalog, n: usize) -> Vec<HttpRequest> {
    kinds(rng, n, &[60, 30, 10])
        .into_iter()
        .enumerate()
        .map(|(i, kind)| match kind {
            0 => add_book(rng, FRESH_BOOK_ID + i as i64),
            1 => set_stock(catalog.popular(rng), rng),
            _ => get_book(catalog.popular(rng)),
        })
        .collect()
}

fn text_compute(rng: &mut DetRng, _: &Catalog, n: usize) -> Vec<HttpRequest> {
    kinds(rng, n, &[50, 50])
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let len = 80 + rng.below(81) as usize;
            let mut text = String::with_capacity(len * 7);
            for w in 0..len {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(pick(rng, &WORDS));
                if rng.below(12) == 0 {
                    text.push('.');
                }
            }
            // the serial number makes every text unique
            text.push_str(&format!(" doc{i}."));
            if kind == 0 {
                HttpRequest::post("/analyze", json!({"text": text}), vec![])
            } else {
                HttpRequest::post(
                    "/summarize",
                    json!({"text": text, "sentences": 1 + rng.below(4)}),
                    vec![],
                )
            }
        })
        .collect()
}

/// Generate the inputs of `spec` from `seed`: equal seeds give byte-equal
/// streams. `divisor` shrinks the timed request count (`--smoke`).
pub fn generate(spec: &Spec, seed: u64, divisor: usize) -> Stream {
    // fork per workload so two workloads never share a stream
    let label = spec
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let mut rng = DetRng::new(seed).fork(label);
    let n = (spec.n / divisor.max(1)).max(1);
    let repeat = match spec.executor {
        Executor::ThreeTier => 1,
        Executor::Threaded => THREADED_REPLICAS,
    };
    let mut prologue = Vec::with_capacity(spec.prologue_books * repeat);
    for i in 0..spec.prologue_books {
        let write = add_book(&mut rng, FIRST_BOOK_ID + i as i64);
        for _ in 0..repeat {
            prologue.push(write.clone());
        }
    }
    let catalog = Catalog::new(&mut rng, spec.prologue_books.max(1));
    let requests = (spec.mix)(&mut rng, &catalog, n);
    Stream { prologue, requests }
}
