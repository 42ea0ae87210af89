//! `scilint` — workspace-native static analysis for the SciDP repo.
//!
//! Three rule families guard the invariants the whole reproduction rests
//! on (see DESIGN.md §3.5):
//!
//! * **D — determinism.** The discrete-event simulator must be
//!   bit-reproducible: no wall-clock (`Instant`/`SystemTime`), no OS
//!   threads outside `scifmt::par`, no iteration over hash-ordered
//!   collections in simulator crates.
//! * **P — panic-freedom.** Library data paths return the crate's typed
//!   error instead of `unwrap`/`expect`/`panic!`/bare indexing.
//! * **C — completeness.** Every declared counter key is recorded
//!   somewhere; every `*Error` enum variant is constructed somewhere.
//!
//! Violations can be suppressed with a justification pragma on (or above)
//! the offending line, e.g. `allow(p-index, reason = "...")` addressed to
//! this tool, or absorbed by the committed baseline ratchet
//! (`scilint.baseline`), which only ever clicks down.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod cross;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use rules::{Family, RuleInfo, Severity, RULES};

/// One source file queued for analysis.
#[derive(Clone, Debug)]
pub struct InputFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Crate the file belongs to (directory name under `crates/`).
    pub crate_name: String,
    /// Binary-target code (`src/bin/**`, `main.rs` and the modules it
    /// declares): P-rules do not apply.
    pub is_bin: bool,
    pub src: String,
}

/// One rule hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Analysis configuration: which crates are in scope for which D-rules,
/// where the counter declarations live.
#[derive(Clone, Debug)]
pub struct Config {
    pub root: PathBuf,
    /// Crates where wall-clock time is forbidden.
    pub wallclock_crates: BTreeSet<String>,
    /// Crates where hash-ordered iteration is forbidden.
    pub hash_iter_crates: BTreeSet<String>,
    /// Files (rel paths) allowed to create OS threads.
    pub thread_allow_files: BTreeSet<String>,
    /// Rel path of the counter-key declarations.
    pub counters_file: String,
    /// Hot entry points for `g-panic-reachable`, as `crate::fn` or
    /// `crate::Type::fn` specs.
    pub hot_entries: Vec<String>,
}

impl Config {
    pub fn default_for_root(root: &Path) -> Config {
        let sim: &[&str] = &["simnet", "mapreduce", "hdfs", "pfs", "scidp", "scifmt"];
        let hash: &[&str] = &["simnet", "mapreduce", "hdfs", "pfs", "scidp"];
        Config {
            root: root.to_path_buf(),
            wallclock_crates: sim.iter().map(|s| s.to_string()).collect(),
            hash_iter_crates: hash.iter().map(|s| s.to_string()).collect(),
            thread_allow_files: ["crates/scifmt/src/par.rs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            counters_file: "crates/mapreduce/src/counters.rs".to_string(),
            hot_entries: [
                "mapreduce::run_job",
                "mapreduce::submit_dag",
                "mapreduce::run_dag",
                "mapreduce::HdfsBlockFetcher::fetch",
                "mapreduce::FlatPfsFetcher::fetch",
                "scidp::run_scidp",
                "scidp::run_sql_scan",
                "scidp::run_stats_dag",
                "scidp::SciSlabFetcher::fetch",
                "simnet::ClusterCache::lookup",
                "simnet::ClusterCache::insert",
                "simnet::ClusterCache::invalidate_node",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

/// Result of running every rule over a set of files (baseline not yet
/// applied).
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings that survived pragma suppression, sorted by (file, line,
    /// rule).
    pub findings: Vec<Finding>,
    /// Number of pragma-suppressed findings.
    pub suppressed: usize,
}

/// Run the full pipeline (lex → per-file rules → cross-file rules →
/// pragma suppression) over in-memory files.
pub fn analyze(files: &[InputFile], cfg: &Config) -> Analysis {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(&f.src)).collect();
    let mut per_file: std::collections::BTreeMap<String, Vec<Finding>> =
        std::collections::BTreeMap::new();
    for (f, lx) in files.iter().zip(lexed.iter()) {
        per_file
            .entry(f.rel.clone())
            .or_default()
            .extend(engine::scan_file(f, lx, cfg));
    }
    let lexed_files: Vec<cross::LexedFile<'_>> = files
        .iter()
        .zip(lexed.iter())
        .map(|(file, lexed)| cross::LexedFile { file, lexed })
        .collect();
    for f in cross::counter_rule(&lexed_files, cfg) {
        per_file.entry(f.file.clone()).or_default().push(f);
    }
    for f in cross::variant_rule(&lexed_files) {
        per_file.entry(f.file.clone()).or_default().push(f);
    }
    let g = graph::build(&lexed_files, cfg);
    for f in graph::graph_rules(&lexed_files, cfg, &g) {
        per_file.entry(f.file.clone()).or_default().push(f);
    }
    let mut out = Analysis::default();
    for (f, lx) in files.iter().zip(lexed.iter()) {
        let raw = per_file.remove(&f.rel).unwrap_or_default();
        let (kept, sup, bad) = engine::apply_pragmas(raw, &lx.pragmas, &f.rel);
        out.findings.extend(kept);
        out.findings.extend(bad);
        out.suppressed += sup;
    }
    // Findings attributed to files not in the input set (cannot happen in
    // practice, but do not lose them).
    for (_, rest) in per_file {
        out.findings.extend(rest);
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Walk the workspace on disk and collect `InputFile`s: `crates/*/src`
/// plus the root facade `src/`, skipping tests/fixtures/benches/examples.
pub fn walk_workspace(root: &Path) -> Result<Vec<InputFile>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for ent in entries.flatten() {
        let p = ent.path();
        if p.join("src").is_dir() {
            crate_dirs.push(p);
        }
    }
    crate_dirs.sort();
    for cdir in crate_dirs {
        let crate_name = cdir
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("unknown")
            .to_string();
        let first = out.len();
        collect_rs(&cdir.join("src"), root, &crate_name, &mut out)?;
        mark_main_modules(out.get_mut(first..).unwrap_or_default());
    }
    if root.join("src").is_dir() {
        collect_rs(&root.join("src"), root, "scidp-suite", &mut out)?;
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// A crate's `main.rs` is the root of a binary target: every module it
/// declares (`mod x;` → `src/x.rs`, `src/x/**`) is binary-target code too.
fn mark_main_modules(files: &mut [InputFile]) {
    let Some(main) = files.iter().find(|f| f.rel.ends_with("/src/main.rs")) else {
        return;
    };
    let src_dir = main.rel.trim_end_matches("main.rs").to_string();
    let modules: Vec<String> = main
        .src
        .lines()
        .filter_map(|l| l.trim().strip_prefix("mod ")?.strip_suffix(';'))
        .map(|m| format!("{src_dir}{}", m.trim()))
        .collect();
    for f in files.iter_mut() {
        let stem = f.rel.trim_end_matches(".rs");
        if modules
            .iter()
            .any(|m| stem == m || stem.starts_with(&format!("{m}/")))
        {
            f.is_bin = true;
        }
    }
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<InputFile>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if matches!(
                name,
                "target" | "tests" | "fixtures" | "benches" | "examples"
            ) {
                continue;
            }
            collect_rs(&p, root, crate_name, out)?;
        } else if p.extension().and_then(|s| s.to_str()) == Some("rs") {
            let rel = p
                .strip_prefix(root)
                .map_err(|e| format!("strip {}: {e}", p.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs");
            let src =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            out.push(InputFile {
                rel,
                crate_name: crate_name.to_string(),
                is_bin,
                src,
            });
        }
    }
    Ok(())
}
