//! Corpus tests: every lint has a seeded-bad fixture that must produce
//! *exactly* its expected finding, and a clean fixture that must
//! produce none. The fixtures live under `tests/corpus/` (a
//! subdirectory, so cargo never compiles them as tests) and are
//! analyzed with the corpus-local `analyze.toml`, whose scoping mirrors
//! the real policy: `pinned/` is bit-pinned, `request/` is the request
//! path, and the lock hierarchy has the workspace's four classes.
//!
//! The CLI is exercised too: `--deny-all` must exit non-zero on every
//! seeded-bad fixture and zero on the clean ones — the exact contract
//! the CI gate relies on. Policy paths that match no fixture are
//! `stale-scope` findings.

use std::path::{Path, PathBuf};
use std::process::Command;

use qarith_analyze::{analyze_files, config, stale_scopes, Config};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_config() -> Config {
    let text = std::fs::read_to_string(corpus_root().join("analyze.toml"))
        .expect("corpus analyze.toml exists");
    config::parse(&text).expect("corpus analyze.toml parses")
}

/// Every seeded-bad fixture with the single lint it must trigger.
const SEEDED_BAD: [(&str, &str); 9] = [
    ("pinned/hash_iteration.rs", "hash-iteration"),
    ("pinned/nondet_source.rs", "nondet-source"),
    ("pinned/trace_flow.rs", "trace-flow"),
    ("request/panic_unwrap.rs", "panic-unwrap"),
    ("request/panic_expect.rs", "panic-expect"),
    ("request/panic_macro.rs", "panic-macro"),
    ("request/panic_index.rs", "panic-index"),
    ("locks/lock_order.rs", "lock-order"),
    ("locks/lock_wait.rs", "lock-wait"),
];

const CLEAN: [&str; 3] = ["pinned/clean.rs", "request/clean.rs", "locks/clean.rs"];

#[test]
fn each_seeded_fixture_produces_exactly_its_finding() {
    let root = corpus_root();
    let cfg = corpus_config();
    for (fixture, lint) in SEEDED_BAD {
        let found = analyze_files(&root, &[root.join(fixture)], &cfg).expect("fixture readable");
        assert_eq!(found.len(), 1, "{fixture}: expected exactly one finding, got {found:?}");
        assert_eq!(found[0].lint, lint, "{fixture}: {found:?}");
        assert_eq!(found[0].file, fixture, "findings report corpus-relative paths");
        assert!(found[0].line > 0);
    }
}

#[test]
fn reentry_and_pragma_fixtures() {
    // Separate from the table only because their lints live outside the
    // (fixture ↔ lint) pattern above: lock-reentry needs `drop` in the
    // same body, and the pragma fixture is scope-independent.
    let root = corpus_root();
    let cfg = corpus_config();
    for (fixture, lint) in
        [("locks/lock_reentry.rs", "lock-reentry"), ("pragma/malformed.rs", "pragma")]
    {
        let found = analyze_files(&root, &[root.join(fixture)], &cfg).expect("fixture readable");
        assert_eq!(found.len(), 1, "{fixture}: {found:?}");
        assert_eq!(found[0].lint, lint, "{fixture}: {found:?}");
    }
}

#[test]
fn clean_fixtures_produce_no_findings() {
    let root = corpus_root();
    let cfg = corpus_config();
    for fixture in CLEAN {
        let found = analyze_files(&root, &[root.join(fixture)], &cfg).expect("fixture readable");
        assert!(found.is_empty(), "{fixture}: {found:?}");
    }
}

#[test]
fn policy_paths_that_match_no_file_are_stale_scope_findings() {
    let root = corpus_root();
    let fixtures: Vec<PathBuf> = SEEDED_BAD
        .iter()
        .map(|(fixture, _)| *fixture)
        .chain(CLEAN)
        .chain(["locks/lock_reentry.rs", "pragma/malformed.rs"])
        .map(|fixture| root.join(fixture))
        .collect();
    assert!(stale_scopes(&root, &fixtures, &corpus_config()).is_empty());

    // A module moved away from a request-path entry, and a bit-pinned
    // directory that no longer exists: both must be reported, even
    // though every file still analyzes clean.
    let text = std::fs::read_to_string(root.join("analyze.toml"))
        .expect("corpus analyze.toml")
        .replace(
            r#"request_path = ["request"]"#,
            r#"request_path = ["request", "request/shard.rs"]"#,
        )
        .replace(r#"bit_pinned = ["pinned"]"#, r#"bit_pinned = ["pinned", "gone"]"#);
    let stale = stale_scopes(&root, &fixtures, &config::parse(&text).expect("parses"));
    let messages: Vec<&str> = stale.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(stale.len(), 2, "{messages:?}");
    assert!(stale.iter().all(|f| f.lint == "stale-scope" && f.file == "analyze.toml"));
    assert!(messages[0].contains("bit_pinned entry `gone`"), "{messages:?}");
    assert!(messages[1].contains("request_path entry `request/shard.rs`"), "{messages:?}");
}

#[test]
fn deny_all_workspace_walk_fails_on_stale_scopes() {
    // The corpus root has no `src/` or `crates/*/src` tree, so the
    // walk scans nothing and every policy path is stale.
    let out = run_cli(&[], true);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("analyze.toml:1: [stale-scope]"), "{stdout}");
}

fn run_cli(files: &[&str], deny_all: bool) -> std::process::Output {
    let root = corpus_root();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qarith-analyze"));
    cmd.arg("--root").arg(&root);
    cmd.arg("--config").arg(root.join("analyze.toml"));
    if deny_all {
        cmd.arg("--deny-all");
    }
    for f in files {
        cmd.arg(root.join(f));
    }
    cmd.output().expect("qarith-analyze runs")
}

#[test]
fn deny_all_exits_nonzero_on_every_seeded_fixture() {
    for (fixture, lint) in SEEDED_BAD {
        let out = run_cli(&[fixture], true);
        assert_eq!(out.status.code(), Some(1), "{fixture}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("[{lint}]")), "{fixture}: {stdout}");
    }
}

#[test]
fn deny_all_exits_zero_on_clean_fixtures() {
    let out = run_cli(&CLEAN, true);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn without_deny_all_findings_report_but_exit_zero() {
    let out = run_cli(&["request/panic_unwrap.rs"], false);
    assert_eq!(out.status.code(), Some(0), "report-only mode never gates: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[panic-unwrap]"));
}

#[test]
fn json_export_lists_every_finding() {
    let root = corpus_root();
    let json_path = root.join("../corpus_findings.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qarith-analyze"));
    cmd.arg("--root").arg(&root);
    cmd.arg("--config").arg(root.join("analyze.toml"));
    cmd.arg("--json").arg(&json_path);
    for (fixture, _) in SEEDED_BAD {
        cmd.arg(root.join(fixture));
    }
    let out = cmd.output().expect("qarith-analyze runs");
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&json_path).expect("JSON written");
    std::fs::remove_file(&json_path).ok();
    assert!(doc.contains("\"schema\": \"qarith-analyze-findings\""), "{doc}");
    for (_, lint) in SEEDED_BAD {
        assert!(doc.contains(&format!("\"{lint}\"")), "missing {lint} in {doc}");
    }
}
