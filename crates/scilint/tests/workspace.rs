//! Tier-1 guard: the workspace itself must lint clean under `--deny all`
//! with the committed baseline, the hot paths must carry no baselined
//! P-rule debt, and the CLI must exit nonzero with rule ids in `--json`
//! when violations exist.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_lints_clean_under_deny_all() {
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_scilint"))
        .args(["--workspace", "--deny", "all", "--root"])
        .arg(&root)
        .output()
        .expect("run scilint");
    assert!(
        out.status.success(),
        "scilint --workspace --deny all must exit 0:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn hot_paths_carry_no_baselined_p_rule_debt() {
    let root = repo_root();
    let text =
        std::fs::read_to_string(root.join("scilint.baseline")).expect("scilint.baseline present");
    let hot = [
        "crates/scifmt/src/snc.rs",
        "crates/scifmt/src/par.rs",
        "crates/hdfs/",
        "crates/rframe/src/sql.rs",
        "crates/mapreduce/",
        "crates/baselines/src/scihadoop.rs",
        "crates/pfs/",
        "crates/scidp/",
        "crates/simnet/",
    ];
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let _count = it.next();
        let rule = it.next().unwrap_or("");
        let file = it.next().unwrap_or("");
        if rule.starts_with("p-") {
            assert!(
                !hot.iter().any(|h| file.starts_with(h)),
                "hot path {file} still has baselined {rule} debt"
            );
        }
    }
}

#[test]
fn json_reports_rule_ids_and_nonzero_exit_on_violations() {
    // A tiny throwaway workspace with one dirty "simnet" crate.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scilint-json-fixture");
    let src_dir = tmp.join("crates/simnet/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture workspace");
    std::fs::write(tmp.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn f(v: &[u32]) -> u32 {\n    v.first().copied().unwrap()\n}\n\
         pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("write dirty lib.rs");

    let out = Command::new(env!("CARGO_BIN_EXE_scilint"))
        .args([
            "--workspace",
            "--deny",
            "all",
            "--json",
            "--no-baseline",
            "--root",
        ])
        .arg(&tmp)
        .output()
        .expect("run scilint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "violations must exit 1:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"p-unwrap\""), "{json}");
    assert!(json.contains("\"d-wallclock\""), "{json}");
    assert!(json.contains("\"violations_by_rule\""), "{json}");
}

#[test]
fn modules_declared_by_main_rs_are_binary_code() {
    let files = scilint::walk_workspace(&repo_root()).expect("walk workspace");
    let is_bin = |rel: &str| {
        let f = files.iter().find(|f| f.rel == rel);
        f.unwrap_or_else(|| panic!("{rel} is walked")).is_bin
    };
    // The bench runner's experiments hang off `main.rs`; its library does not.
    assert!(is_bin("crates/bench/src/main.rs"));
    assert!(is_bin("crates/bench/src/exp/mod.rs"));
    assert!(is_bin("crates/bench/src/exp/fig5.rs"));
    assert!(!is_bin("crates/bench/src/lib.rs"));
    // scilint's own `main.rs` declares no modules: its library stays in scope.
    assert!(!is_bin("crates/scilint/src/engine.rs"));
}
