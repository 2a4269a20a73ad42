//! Bookworm's two scanning reads, pinned over a catalog large enough to
//! exercise every path of the table scan: `/search` (`title LIKE '%q%'`)
//! for each of the 48 words the benchmark's titles are made of, and
//! `/recommend` (`price <= B AND stock > 0 ORDER BY price DESC LIMIT 3`)
//! for every budget the benchmark asks for. Prices take 1,600 values over
//! 4,096 books, so equal prices are common and the order among them —
//! scan order — is pinned too.

use edgstr_analysis::ServerProcess;
use edgstr_net::HttpRequest;
use serde_json::json;

const WORDS: [&str; 48] = [
    "amber", "basin", "cedar", "delta", "ember", "fjord", "grove", "haven", "inlet", "jetty",
    "knoll", "larch", "marsh", "north", "oasis", "prism", "quartz", "ridge", "shoal", "thorn",
    "umbra", "vault", "wharf", "xenon", "yield", "zenith", "anchor", "beacon", "cipher", "drift",
    "engine", "fable", "garnet", "harbor", "island", "jungle", "kernel", "lantern", "meadow",
    "nectar", "orchard", "pebble", "quiver", "river", "signal", "timber", "update", "voyage",
];

/// SplitMix64: a seeded stream that needs nothing outside this file.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Bookworm after `init`, then 4,096 more books, a third of them in stock,
/// written in shuffled key order.
fn catalog() -> ServerProcess {
    let mut server = ServerProcess::from_source(edgstr_apps::bookworm::SOURCE).unwrap();
    server.init().unwrap();
    let mut rng = Rng(0x5ca7_0001);
    let mut ids: Vec<u64> = (1_000..1_000 + 4_096).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for id in ids {
        let title = format!(
            "{} {}",
            WORDS[rng.below(48) as usize],
            WORDS[rng.below(48) as usize]
        );
        let price = 4.0 + rng.below(1_600) as f64 / 100.0;
        let stock = if rng.below(3) == 0 {
            1 + rng.below(39)
        } else {
            0
        };
        server
            .db
            .exec(&format!(
                "INSERT INTO books VALUES ({id}, '{title}', 'Egan', {price:?}, {stock})"
            ))
            .unwrap();
    }
    server
}

fn get(server: &mut ServerProcess, path: &str, params: serde_json::Value) -> (String, u64) {
    let response = server
        .handle(&HttpRequest::get(path, params))
        .unwrap()
        .response;
    (response.body.text().to_string(), response.digest())
}

/// `(word, text length, digest)` of `/search?q=word`.
const SEARCH: [(&str, usize, u64); 48] = [
    ("amber", 6475, 0x27f9f8877e85229f),
    ("basin", 5340, 0xbb47cf7a4c1bd8e4),
    ("cedar", 6446, 0x3af84f73e986a05e),
    ("delta", 5407, 0xb54bae90ba884613),
    ("ember", 6157, 0xee535d8770ad1293),
    ("fjord", 5479, 0x655af1ca0cb39ae5),
    ("grove", 5332, 0x9134467ea26b35f7),
    ("haven", 6199, 0x4f4f00e8a308a3a1),
    ("inlet", 5342, 0x681c40821a3db96b),
    ("jetty", 5475, 0xe4f4e6a1003ac867),
    ("knoll", 5512, 0x9414964d6d73d052),
    ("larch", 5683, 0x4ab83cf806a11deb),
    ("marsh", 6616, 0x628d61b0a468ed53),
    ("north", 5475, 0xe44cc3cc4f5bbd1a),
    ("oasis", 5913, 0x2143eb0107da0487),
    ("prism", 5752, 0xb85fef710300ee7a),
    ("quartz", 6129, 0xe822b7c9870043ce),
    ("ridge", 5885, 0x2d93d6ce86dbe7b8),
    ("shoal", 5448, 0x6e4a65937f54ec8e),
    ("thorn", 4964, 0x794491a4e1c4555b),
    ("umbra", 5743, 0xf2382a35d48f5d9d),
    ("vault", 5233, 0x72cc819349c252b),
    ("wharf", 6294, 0xe6642db48cdd5ae8),
    ("xenon", 6367, 0x2c5555336eee5634),
    ("yield", 6308, 0xee7cbc928ea7ae05),
    ("zenith", 6500, 0x4b553d029f6ec787),
    ("anchor", 5573, 0xc20f6f7b6248ce0),
    ("beacon", 5717, 0xdbfabf733930a39),
    ("cipher", 6626, 0xdad07499dc076348),
    ("drift", 6264, 0xaeaa8a3779eb6628),
    ("engine", 5735, 0xda8e246fe0d1ff66),
    ("fable", 6365, 0xbd82ec3e64d93f7b),
    ("garnet", 5918, 0x285222a0a68409ec),
    ("harbor", 6239, 0xd3697e6b628867fe),
    ("island", 5887, 0x38d290840b7a2354),
    ("jungle", 6064, 0xe4fcf77e3b3b653a),
    ("kernel", 5515, 0xa6e37d291252dc8b),
    ("lantern", 6231, 0xdd02f898c261b1e9),
    ("meadow", 5880, 0x69645fc1e1d94237),
    ("nectar", 6479, 0xcf029d1d13eda197),
    ("orchard", 6842, 0x724e4ac0cad2c78d),
    ("pebble", 5633, 0x5041ee8b2f33b1a1),
    ("quiver", 5917, 0x8d838b6e3137b4bd),
    ("river", 5677, 0xcb9ff2dd01e58288),
    ("signal", 6230, 0xcdd063ad279593b2),
    ("timber", 5835, 0xd559d316de65ed9d),
    ("update", 5776, 0x740387e0fd809be6),
    ("voyage", 6382, 0xff7df5d4c798167a),
];

/// `(budget, text, digest)` of `/recommend?budget=B`.
const RECOMMEND: [(u64, &str, u64); 15] = [
    (
        5,
        r#"{"budget":5,"picks":[{"id":3247,"price":4.99,"title":"jetty wharf"},{"id":1224,"price":4.98,"title":"yield garnet"},{"id":3216,"price":4.98,"title":"zenith zenith"}]}"#,
        0xf9c4ef5a7fc12b76,
    ),
    (
        6,
        r#"{"budget":6,"picks":[{"id":2730,"price":6,"title":"basin voyage"},{"id":4002,"price":6,"title":"thorn kernel"},{"id":4311,"price":6,"title":"quiver umbra"}]}"#,
        0xc585f907ae8e2f84,
    ),
    (
        7,
        r#"{"budget":7,"picks":[{"id":2325,"price":7,"title":"garnet voyage"},{"id":3781,"price":7,"title":"anchor oasis"},{"id":4105,"price":7,"title":"delta kernel"}]}"#,
        0xea76756010e12c7a,
    ),
    (
        8,
        r#"{"budget":8,"picks":[{"id":4472,"price":8,"title":"jetty cedar"},{"id":1989,"price":7.99,"title":"beacon update"},{"id":4182,"price":7.99,"title":"cedar lantern"}]}"#,
        0x16e77f8c89219400,
    ),
    (
        9,
        r#"{"budget":9,"picks":[{"id":2483,"price":9,"title":"inlet drift"},{"id":4469,"price":9,"title":"beacon jetty"},{"id":3549,"price":8.99,"title":"fable meadow"}]}"#,
        0xf800a3c80d5e4d78,
    ),
    (
        10,
        r#"{"budget":10,"picks":[{"id":2485,"price":10,"title":"drift jetty"},{"id":2752,"price":10,"title":"cedar ember"},{"id":3693,"price":10,"title":"umbra wharf"}]}"#,
        0x1ffb7169f3f0ab00,
    ),
    (
        11,
        r#"{"budget":11,"picks":[{"id":1419,"price":11,"title":"amber lantern"},{"id":3158,"price":10.969999999999999,"title":"kernel amber"},{"id":3630,"price":10.969999999999999,"title":"zenith cipher"}]}"#,
        0x43213819d6de1244,
    ),
    (
        12,
        r#"{"budget":12,"picks":[{"id":3,"price":12,"title":"Accelerando"},{"id":1710,"price":11.99,"title":"zenith shoal"},{"id":4463,"price":11.969999999999999,"title":"prism xenon"}]}"#,
        0xaa3dce915884c254,
    ),
    (
        13,
        r#"{"budget":13,"picks":[{"id":2943,"price":13,"title":"vault fjord"},{"id":2674,"price":12.96,"title":"meadow island"},{"id":3356,"price":12.96,"title":"inlet kernel"}]}"#,
        0x257e14c586b3aeaa,
    ),
    (
        14,
        r#"{"budget":14,"picks":[{"id":4785,"price":13.99,"title":"oasis jetty"},{"id":2999,"price":13.96,"title":"voyage beacon"},{"id":5080,"price":13.96,"title":"larch fable"}]}"#,
        0xf2ad62df2a51746d,
    ),
    (
        15,
        r#"{"budget":15,"picks":[{"id":1423,"price":15,"title":"cedar meadow"},{"id":3092,"price":15,"title":"anchor orchard"},{"id":3828,"price":15,"title":"prism haven"}]}"#,
        0xa761ad20dc05c458,
    ),
    (
        16,
        r#"{"budget":16,"picks":[{"id":2969,"price":15.97,"title":"amber amber"},{"id":2628,"price":15.96,"title":"fjord garnet"},{"id":3839,"price":15.96,"title":"nectar grove"}]}"#,
        0x31c3943c198557de,
    ),
    (
        17,
        r#"{"budget":17,"picks":[{"id":1678,"price":16.98,"title":"engine prism"},{"id":3879,"price":16.96,"title":"lantern quartz"},{"id":2130,"price":16.95,"title":"yield prism"}]}"#,
        0xdbee00db5d895d84,
    ),
    (
        18,
        r#"{"budget":18,"picks":[{"id":2149,"price":18,"title":"xenon harbor"},{"id":4737,"price":18,"title":"prism vault"},{"id":2134,"price":17.98,"title":"cipher ember"}]}"#,
        0x1e25aef2904ab8d8,
    ),
    (
        19,
        r#"{"budget":19,"picks":[{"id":1602,"price":19,"title":"knoll orchard"},{"id":1966,"price":19,"title":"quartz delta"},{"id":4698,"price":18.990000000000002,"title":"ridge quartz"}]}"#,
        0xf7b83d166014d6a5,
    ),
];

#[test]
fn search_and_recommend_are_pinned() {
    let mut server = catalog();
    for (word, len, digest) in SEARCH {
        let got = get(&mut server, "/search", json!({ "q": word }));
        assert_eq!((got.0.len(), got.1), (len, digest), "/search?q={word}");
    }
    for (budget, text, digest) in RECOMMEND {
        let got = get(&mut server, "/recommend", json!({ "budget": budget }));
        assert_eq!(
            (got.0.as_str(), got.1),
            (text, digest),
            "/recommend?budget={budget}"
        );
    }
}
