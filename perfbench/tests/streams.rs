//! The seeded request streams are deterministic, seed-sensitive, and
//! have the shapes the workloads promise.

use std::collections::HashSet;

use qarith_datagen::sales::{sales_database, SalesScale};
use qarith_perfbench::streams::{
    fingerprint_repeat_rate, hot_texts, spellings, stream_digest, templates, ColdStream,
    WriteSchedule, COLD_ROTATION, OPS_PER_BATCH, SPELLINGS_PER_TEMPLATE,
};

fn schedule(seed: u64) -> WriteSchedule {
    WriteSchedule::new(&sales_database(&SalesScale::tiny(), seed), seed, 12)
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let a = stream_digest(7, 500, &schedule(7));
    let b = stream_digest(7, 500, &schedule(7));
    let c = stream_digest(8, 500, &schedule(8));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn cold_read_rarely_repeats_a_fingerprint() {
    // Two timed clients plus the two warm-up streams, each longer than
    // a 20-second run sends at the measured rate.
    let mut texts = Vec::new();
    for client in [0, 1, 100, 101] {
        let mut stream = ColdStream::new(2020, client);
        texts.extend((0..3000).map(|_| stream.next_request().1));
    }
    let rate = fingerprint_repeat_rate(texts.iter().map(String::as_str));
    assert!(rate < 0.05, "cold_read repeats {rate:.4} of its fingerprints");
}

#[test]
fn cold_read_follows_its_rotation_from_its_client_offset() {
    let n = COLD_ROTATION.len();
    let mut stream = ColdStream::new(11, 1);
    let sent: Vec<usize> = (0..2 * n).map(|_| stream.next_request().0).collect();
    let expected: Vec<usize> = (1..=2 * n).map(|i| COLD_ROTATION[i % n]).collect();
    assert_eq!(sent, expected);
}

#[test]
fn hot_read_spellings_share_their_template_fingerprint() {
    let templates = templates();
    assert_eq!(templates.len(), 9, "sales, range and division have 9 distinct templates");
    let mut distinct = HashSet::new();
    for t in &templates {
        let fp = qarith_sql::sql_fingerprint(&t.sql).expect("template parses");
        assert!(distinct.insert(fp.clone()), "{} repeats a fingerprint", t.name);
        let texts = spellings(&t.sql);
        assert_eq!(texts.len(), SPELLINGS_PER_TEMPLATE);
        assert_eq!(texts.iter().collect::<HashSet<_>>().len(), texts.len(), "{}", t.name);
        for text in &texts {
            assert_eq!(qarith_sql::sql_fingerprint(text).ok(), Some(fp.clone()), "{text}");
        }
    }
    assert_eq!(hot_texts().len(), templates.len() * SPELLINGS_PER_TEMPLATE);
}

#[test]
fn write_schedule_has_the_requested_batches() {
    let s = schedule(3);
    assert_eq!(s.batches.len(), 12);
    assert!(s.batches.iter().all(|b| b.ops.len() == OPS_PER_BATCH));
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for name in [
        "read_p50_ms",
        "read_p99_ms",
        "read_qps",
        "write_p50_ms",
        "write_p95_ms",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(listed(name), "{name}");
    }
    use qarith_perfbench::spans::Layer;
    for root in [Layer::Request, Layer::Write] {
        for suffix in ["calls", "p50_us", "p99_us", "self_share"] {
            assert!(listed(&format!("{}.{suffix}", root.name())), "{}.{suffix}", root.name());
        }
    }
    for layer in Layer::CHILDREN {
        for suffix in ["calls_per_op", "p50_us", "p99_us", "share"] {
            assert!(listed(&format!("{}.{suffix}", layer.name())), "{}.{suffix}", layer.name());
        }
    }
}
