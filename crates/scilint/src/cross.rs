//! Workspace-level completeness rules (C-family).
//!
//! These need every file's token stream at once:
//!
//! * `c-counter-dead` — a counter key declared in
//!   `mapreduce::counters::keys` that no non-test code ever records. The
//!   `Counters` type merges and serialises generically over its sorted
//!   map, so the one way a counter can silently rot is to be declared and
//!   then never added anywhere.
//! * `c-variant-dead` — an `*Error` enum variant never *constructed* in
//!   non-test code. A variant that only ever appears in its own `Display`
//!   match arm is an error path the system cannot actually take.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::test_mask;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::{Config, Finding, InputFile};

/// A lexed file paired with its metadata, as the analysis pipeline holds
/// them in memory.
pub struct LexedFile<'a> {
    pub file: &'a InputFile,
    pub lexed: &'a Lexed,
}

// ---------------------------------------------------------------------------
// c-counter-dead
// ---------------------------------------------------------------------------

/// Counter-key consts declared inside `pub mod keys { ... }` of the
/// counters file: (const name, line).
fn declared_counter_keys(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    // Locate `mod keys {`.
    let mut body_start = None;
    while let Some(t) = toks.get(i) {
        if t.is_ident("mod") && toks.get(i + 1).map(|n| n.is_ident("keys")) == Some(true) {
            // Skip to the opening brace.
            let mut j = i + 2;
            while let Some(b) = toks.get(j) {
                if b.is_punct("{") {
                    body_start = Some(j);
                    break;
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    let start = match body_start {
        Some(s) => s,
        None => return out,
    };
    let mut depth = 0i32;
    let mut j = start;
    while let Some(t) = toks.get(j) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("const") {
            if let Some(n) = toks.get(j + 1) {
                if n.kind == TokKind::Ident {
                    out.push((n.text.clone(), n.line));
                }
            }
        }
        j += 1;
    }
    out
}

/// `c-counter-dead` over the whole workspace.
pub fn counter_rule(files: &[LexedFile<'_>], cfg: &Config) -> Vec<Finding> {
    let decl_file = files.iter().find(|f| f.file.rel == cfg.counters_file);
    let decl_file = match decl_file {
        Some(f) => f,
        None => return Vec::new(),
    };
    let declared = declared_counter_keys(&decl_file.lexed.toks);
    if declared.is_empty() {
        return Vec::new();
    }
    let names: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for lf in files {
        if lf.file.rel == cfg.counters_file {
            continue;
        }
        let toks = &lf.lexed.toks;
        let mask = test_mask(toks);
        for (i, t) in toks.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            // `keys::NAME` (or the bench crates' `counter_keys::NAME`).
            if t.kind == TokKind::Ident
                && names.contains(t.text.as_str())
                && toks.get(i.wrapping_sub(1)).map(|p| p.is_punct("::")) == Some(true)
            {
                let q = toks.get(i.wrapping_sub(2));
                if q.map(|q| q.is_ident("keys") || q.is_ident("counter_keys")) == Some(true) {
                    used.insert(t.text.clone());
                }
            }
        }
    }
    declared
        .into_iter()
        .filter(|(n, _)| !used.contains(n))
        .map(|(n, line)| Finding {
            rule: "c-counter-dead",
            file: cfg.counters_file.clone(),
            line,
            message: format!(
                "counter key `{n}` is declared but never recorded by any non-test code"
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// c-variant-dead
// ---------------------------------------------------------------------------

struct EnumDef {
    name: String,
    file: String,
    /// variant name -> declaration line.
    variants: BTreeMap<String, u32>,
}

/// Collect `enum <X>Error { ... }` definitions in one file.
fn enum_defs(file: &InputFile, toks: &[Tok]) -> Vec<EnumDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        if !t.is_ident("enum") {
            i += 1;
            continue;
        }
        let name = match toks.get(i + 1) {
            Some(n) if n.kind == TokKind::Ident && n.text.ends_with("Error") => n.text.clone(),
            _ => {
                i += 1;
                continue;
            }
        };
        // Skip generics to the opening brace.
        let mut j = i + 2;
        let mut guard = 0;
        let open = loop {
            match toks.get(j) {
                Some(b) if b.is_punct("{") => break Some(j),
                Some(b) if b.is_punct(";") => break None,
                Some(_) if guard < 32 => {
                    j += 1;
                    guard += 1;
                }
                _ => break None,
            }
        };
        let open = match open {
            Some(o) => o,
            None => {
                i += 1;
                continue;
            }
        };
        let mut variants = BTreeMap::new();
        let mut depth = 0i32;
        let mut expecting = true;
        let mut k = open;
        while let Some(t) = toks.get(k) {
            match t.text.as_str() {
                "{" | "(" | "[" if t.kind == TokKind::Punct => {
                    if t.text == "{" {
                        depth += 1;
                        if depth == 1 {
                            k += 1;
                            continue;
                        }
                    } else {
                        depth += 1;
                    }
                }
                "}" | ")" | "]" if t.kind == TokKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if t.kind == TokKind::Punct && depth == 1 => expecting = true,
                "#" if t.kind == TokKind::Punct && depth == 1 => {
                    // Variant attribute: skip the balanced [..].
                    if toks.get(k + 1).map(|b| b.is_punct("[")) == Some(true) {
                        let mut d2 = 0i32;
                        let mut m = k + 1;
                        while let Some(b) = toks.get(m) {
                            if b.is_punct("[") {
                                d2 += 1;
                            } else if b.is_punct("]") {
                                d2 -= 1;
                                if d2 == 0 {
                                    break;
                                }
                            }
                            m += 1;
                        }
                        k = m;
                    }
                }
                _ => {
                    if expecting && depth == 1 && t.kind == TokKind::Ident {
                        variants.insert(t.text.clone(), t.line);
                        expecting = false;
                    }
                }
            }
            k += 1;
        }
        if !variants.is_empty() {
            out.push(EnumDef {
                name,
                file: file.rel.clone(),
                variants,
            });
        }
        i = k;
    }
    out
}

/// Is the `Enum::Variant` mention at `i..i+3` a construction (an
/// expression producing the value) rather than a match/let pattern?
fn is_construction(toks: &[Tok], variant_idx: usize) -> bool {
    let mut j = variant_idx + 1;
    // Skip a payload group, if any.
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("(") | Some("{") => {
            let mut depth = 0i32;
            let (o, c) = if toks.get(j).map(|t| t.text.as_str()) == Some("(") {
                ("(", ")")
            } else {
                ("{", "}")
            };
            while let Some(t) = toks.get(j) {
                if t.kind == TokKind::Punct && t.text == o {
                    depth += 1;
                } else if t.kind == TokKind::Punct && t.text == c {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        _ => {}
    }
    match toks.get(j) {
        // Match arm, or-pattern, if-let/while-let destructure, guard,
        // comparison: all pattern/assertion positions, not constructions.
        Some(t)
            if t.is_punct("=>")
                || t.is_punct("|")
                || t.is_punct("=")
                || t.is_punct("==")
                || t.is_punct("!=")
                || t.is_ident("if") =>
        {
            false
        }
        _ => true,
    }
}

/// `c-variant-dead` over the whole workspace.
pub fn variant_rule(files: &[LexedFile<'_>]) -> Vec<Finding> {
    let mut defs: Vec<EnumDef> = Vec::new();
    for lf in files {
        defs.extend(enum_defs(lf.file, &lf.lexed.toks));
    }
    if defs.is_empty() {
        return Vec::new();
    }
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    let by_name: BTreeMap<&str, &EnumDef> = defs.iter().map(|d| (d.name.as_str(), d)).collect();
    for lf in files {
        let toks = &lf.lexed.toks;
        let mask = test_mask(toks);
        for (i, t) in toks.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let def = match by_name.get(t.text.as_str()) {
                Some(d) if t.kind == TokKind::Ident => d,
                _ => continue,
            };
            if toks.get(i + 1).map(|p| p.is_punct("::")) != Some(true) {
                continue;
            }
            let v = match toks.get(i + 2) {
                Some(v) if v.kind == TokKind::Ident && def.variants.contains_key(&v.text) => v,
                _ => continue,
            };
            if is_construction(toks, i + 2) {
                constructed.insert((def.name.clone(), v.text.clone()));
            }
        }
    }
    let mut out = Vec::new();
    for d in &defs {
        for (v, line) in &d.variants {
            if !constructed.contains(&(d.name.clone(), v.clone())) {
                out.push(Finding {
                    rule: "c-variant-dead",
                    file: d.file.clone(),
                    line: *line,
                    message: format!(
                        "variant `{}::{}` is never constructed in non-test code",
                        d.name, v
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn input(rel: &str, crate_name: &str, src: &str) -> InputFile {
        InputFile {
            rel: rel.into(),
            crate_name: crate_name.into(),
            is_bin: false,
            src: src.into(),
        }
    }

    #[test]
    fn dead_variant_detected() {
        let def = input(
            "crates/x/src/error.rs",
            "x",
            "pub enum XError { Used(String), Dead(u32) }\n\
             impl std::fmt::Display for XError {\n\
               fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {\n\
                 match self { XError::Used(m) => write!(f, \"{m}\"),\n\
                              XError::Dead(c) => write!(f, \"{c}\") } } }\n",
        );
        let user = input(
            "crates/x/src/lib.rs",
            "x",
            "fn f() -> Result<(), XError> { Err(XError::Used(\"x\".into())) }\n",
        );
        let l1 = lex(&def.src);
        let l2 = lex(&user.src);
        let files = vec![
            LexedFile {
                file: &def,
                lexed: &l1,
            },
            LexedFile {
                file: &user,
                lexed: &l2,
            },
        ];
        let hits = variant_rule(&files);
        assert_eq!(hits.len(), 1);
        assert!(hits.first().map(|f| f.message.contains("XError::Dead")) == Some(true));
    }

    #[test]
    fn counter_key_liveness() {
        let cfg = Config::default_for_root(std::path::Path::new("."));
        let decl = input(
            &cfg.counters_file.clone(),
            "mapreduce",
            "pub mod keys {\n  pub const LIVE: &str = \"live\";\n  pub const DEAD: &str = \"dead\";\n}\n",
        );
        let user = input(
            "crates/scidp/src/reader.rs",
            "scidp",
            "fn f(c: &mut Counters) { c.add(keys::LIVE, 1.0); }\n",
        );
        let l1 = lex(&decl.src);
        let l2 = lex(&user.src);
        let files = vec![
            LexedFile {
                file: &decl,
                lexed: &l1,
            },
            LexedFile {
                file: &user,
                lexed: &l2,
            },
        ];
        let hits = counter_rule(&files, &cfg);
        assert_eq!(hits.len(), 1);
        assert!(hits.first().map(|f| f.message.contains("DEAD")) == Some(true));
    }

    #[test]
    fn cluster_cache_counter_keys_covered() {
        // The rule must track the cache-tier keys like any other: keys
        // recorded through the reader (`keys::`) or a bench's
        // `counter_keys::` alias are live; a declared-but-never-recorded
        // cache key is flagged. Likewise the reduce slow-start keys, one
        // recorded by the driver itself, one on an attempt's ledger.
        let cfg = Config::default_for_root(std::path::Path::new("."));
        let decl = input(
            &cfg.counters_file.clone(),
            "mapreduce",
            "pub mod keys {\n\
               pub const CLUSTER_CACHE_HITS: &str = \"cluster_cache_hits\";\n\
               pub const CLUSTER_CACHE_MISSES: &str = \"cluster_cache_misses\";\n\
               pub const CLUSTER_CACHE_EVICTIONS: &str = \"cluster_cache_evictions\";\n\
               pub const CACHE_LOCALITY_MAPS: &str = \"cache_locality_maps\";\n\
               pub const PFS_BYTES_AVOIDED: &str = \"pfs_bytes_avoided\";\n\
               pub const CLUSTER_CACHE_GHOSTS: &str = \"cluster_cache_ghosts\";\n\
               pub const REDUCES_PREEMPTED: &str = \"reduces_preempted\";\n\
               pub const SHUFFLE_OVERLAP_SAVED_S: &str = \"shuffle_overlap_saved_s\";\n\
             }\n",
        );
        let driver = input(
            "crates/mapreduce/src/job/pull.rs",
            "mapreduce",
            "fn f(d: &mut Driver, att: &Attempt) {\n\
               d.counters.add(keys::REDUCES_PREEMPTED, 1.0);\n\
               att.count(keys::SHUFFLE_OVERLAP_SAVED_S, 1.5);\n\
             }\n",
        );
        let reader = input(
            "crates/scidp/src/reader.rs",
            "scidp",
            "fn f(c: &mut Counters) {\n\
               c.add(keys::CLUSTER_CACHE_HITS, 1.0);\n\
               c.add(keys::CLUSTER_CACHE_MISSES, 1.0);\n\
               c.add(keys::CLUSTER_CACHE_EVICTIONS, 1.0);\n\
               c.add(keys::CACHE_LOCALITY_MAPS, 1.0);\n\
             }\n",
        );
        let bench = input(
            "crates/bench/src/exp/cache.rs",
            "scidp-bench",
            "fn g(c: &Counters) -> f64 { c.get(counter_keys::PFS_BYTES_AVOIDED) }\n",
        );
        let l1 = lex(&decl.src);
        let l2 = lex(&reader.src);
        let l3 = lex(&bench.src);
        let l4 = lex(&driver.src);
        let files = vec![
            LexedFile {
                file: &decl,
                lexed: &l1,
            },
            LexedFile {
                file: &reader,
                lexed: &l2,
            },
            LexedFile {
                file: &bench,
                lexed: &l3,
            },
            LexedFile {
                file: &driver,
                lexed: &l4,
            },
        ];
        let hits = counter_rule(&files, &cfg);
        assert_eq!(hits.len(), 1, "only the unrecorded cache key is dead");
        assert!(
            hits.first()
                .map(|f| f.message.contains("CLUSTER_CACHE_GHOSTS"))
                == Some(true)
        );
    }
}
