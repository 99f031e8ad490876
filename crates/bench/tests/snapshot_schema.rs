//! Guards the committed `BENCH_*.json` snapshots at the workspace root:
//! every one must carry the `schema_version`/`meta` provenance envelope
//! that [`ppm_bench::write_bench_json`] stamps, so a snapshot written by
//! hand (or by a pre-envelope build) fails CI instead of silently
//! shipping without provenance. The workspace has no JSON dependency,
//! so the check hand-parses: an exact envelope prefix, the meta fields,
//! and a string-aware brace balance over the whole document.

use ppm_bench::BENCH_SCHEMA_VERSION;
use std::fs;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Scans `text` as a JSON document: braces/brackets must balance with
/// string literals (and their escapes) skipped, and nothing may follow
/// the closing root brace. Not a validator — enough to catch truncated
/// or concatenated snapshots without serde.
fn balanced_object(text: &str) -> Result<(), String> {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    let mut closed_root = false;
    for (i, c) in text.char_indices() {
        if closed_root && !c.is_whitespace() {
            return Err(format!("trailing content after root object at byte {i}"));
        }
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err(format!("unbalanced close at byte {i}"));
                }
                if depth == 0 {
                    closed_root = true;
                }
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if depth != 0 || !closed_root {
        return Err(format!("unbalanced document (depth {depth} at EOF)"));
    }
    Ok(())
}

#[test]
fn every_committed_snapshot_carries_the_envelope() {
    let root = workspace_root();
    let expected_prefix = format!("{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"meta\":{{");
    let mut checked = Vec::new();
    for entry in fs::read_dir(&root).expect("workspace root readable") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let head = text.trim_start();
        assert!(
            head.starts_with(&expected_prefix),
            "{name}: missing or outdated envelope — regenerate through \
             ppm_bench::write_bench_json (head: {:?})",
            &head[..head.len().min(64)]
        );
        let bench = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
            .expect("matched prefix/suffix");
        assert!(
            head.contains(&format!("\"bench\":\"{bench}\"")),
            "{name}: meta.bench does not name this snapshot"
        );
        for field in ["\"git_sha\":\"", "\"crate_version\":\"", "\"profile\":\""] {
            assert!(head.contains(field), "{name}: meta missing {field}");
        }
        assert!(text.ends_with('\n'), "{name}: missing trailing newline");
        balanced_object(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        checked.push(name.to_string());
    }
    assert!(
        checked.len() >= 4,
        "expected the committed snapshots at the workspace root, found only {checked:?}"
    );
}

#[test]
fn balance_scanner_rejects_truncation_and_trailers() {
    assert!(balanced_object("{\"a\":[1,{\"b\":\"}\"}]}\n").is_ok());
    assert!(balanced_object("{\"a\":1").is_err());
    assert!(balanced_object("{\"a\":1}}").is_err());
    assert!(balanced_object("{\"a\":1}{\"b\":2}").is_err());
    assert!(balanced_object("{\"a\":\"unterminated}").is_err());
}
