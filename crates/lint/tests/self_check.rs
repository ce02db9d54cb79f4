//! The workspace must pass its own linter with zero findings — the test
//! form of the `jouppi-lint --workspace` gate ci.sh enforces — and every
//! crate must opt into the root manifest's `[workspace.lints]`, which
//! carry the invariants rustc and clippy check from configuration.

use std::fs;
use std::path::{Path, PathBuf};

use jouppi_lint::find_root;
use jouppi_serve::json::Json;

fn root() -> PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn root_args(extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--root".to_owned(),
        root().to_string_lossy().into_owned(),
        "--workspace".to_owned(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    args
}

#[test]
fn workspace_is_clean() {
    let r = jouppi_lint::cli::run(root_args(&[]));
    assert_eq!(
        r.code, 0,
        "jouppi-lint found violations:\n{}{}",
        r.stdout, r.stderr
    );
    assert!(r.stdout.contains(", 0 findings"), "{}", r.stdout);
}

#[test]
fn workspace_json_report_is_clean_and_covers_the_tree() {
    let r = jouppi_lint::cli::run(root_args(&["--json"]));
    assert_eq!(r.code, 0, "{}{}", r.stdout, r.stderr);
    let doc = Json::parse(r.stdout.trim()).expect("valid JSON");
    assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("findings").and_then(Json::as_arr), Some(&[][..]));
    match doc.get("files_scanned") {
        Some(Json::Int(n)) => {
            assert!(*n > 50, "only {n} files scanned — walker regression?");
        }
        other => panic!("files_scanned missing or mistyped: {other:?}"),
    }
}

/// Whether a manifest carries a `[lints]` table whose only entry is
/// `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    let mut entries = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && !line.is_empty() && !line.starts_with('#') {
            entries.push(line.replace(' ', ""));
        }
    }
    entries == ["workspace=true"]
}

/// A crate that skips `[lints] workspace = true` silently escapes the
/// unsafe-code, debug-print, discarded-result and allow-attribute
/// checks, so every manifest in the workspace must declare it.
#[test]
fn every_manifest_inherits_workspace_lints() {
    let root = root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "only {} manifests", manifests.len());
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("read manifest");
        assert!(
            inherits_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("read root manifest");
    assert!(workspace.contains("[workspace.lints.rust]"));
    assert!(workspace.contains("unsafe_code = \"forbid\""));
}
