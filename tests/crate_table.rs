//! README's "What's inside" table is the one crate table: every package
//! under `crates/` must have a row in it.

use std::path::Path;

/// The `[package]` name of a manifest: its first `name = "..."` line.
fn package_name(manifest: &str) -> Option<String> {
    manifest.lines().find_map(|line| {
        let value = line.trim().strip_prefix("name")?.trim().strip_prefix('=')?;
        Some(value.trim().trim_matches('"').to_string())
    })
}

#[test]
fn readme_crate_table_lists_every_workspace_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("a crates/ entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let name = package_name(&text).expect("a package manifest names its package");
        if !readme.contains(&format!("| `{name}` |")) {
            missing.push(name);
        }
    }
    missing.sort();
    assert!(
        missing.is_empty(),
        "README's crate table has no row for {missing:?}"
    );
}
