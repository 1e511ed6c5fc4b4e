//! The self-run gate, as a plain test: the analyzer over the real
//! workspace with the real checked-in policy must report zero findings
//! (stale policy paths included).
//! This is the same run CI's `analyze` job performs with `--deny-all`;
//! having it in `cargo test` means a violation fails tier-1 locally
//! before CI ever sees it.

use std::path::Path;

use qarith_analyze::{analyze_workspace, config};

#[test]
fn workspace_is_clean_under_the_checked_in_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("checked-in analyze.toml");
    let cfg = config::parse(&text).expect("checked-in analyze.toml parses");
    let (files, found) = analyze_workspace(&root, &cfg).expect("workspace readable");
    assert!(files > 50, "walk found {files} files — scope regressed?");
    assert!(
        found.is_empty(),
        "the workspace must stay clean under analyze.toml; fix the code or add a reviewed \
         pragma:\n{}",
        found.iter().map(qarith_analyze::Finding::render).collect::<Vec<_>>().join("\n")
    );
}
