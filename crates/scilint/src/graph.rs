//! Workspace symbol table + call graph powering the G/R rule families.
//!
//! Built from the same token streams the per-file rules use — no `syn`,
//! no type inference. A single pass over every file collects `fn` items
//! (free functions and `impl` methods, keyed by crate, file-stem module
//! and optional impl type), a second pass collects call sites inside
//! known bodies, and a name-based resolver turns sites into edges:
//!
//! * `foo(..)` — resolves against free functions named `foo` (union of
//!   all matches across crates; ambiguity is unioned, which is sound for
//!   reachability).
//! * `qual::foo(..)` — resolves against methods of impl type `qual`, or
//!   free functions in crate/module `qual`; `Self::foo` uses the caller's
//!   enclosing impl type.
//! * `recv.foo(..)` — receiver types are unknown, so this resolves to the
//!   union of *all* workspace methods named `foo` (sound for dyn-dispatch
//!   call sites like `fetcher.fetch(..)`), **except** names on the
//!   `STD_METHODS` deny list (`get`, `insert`, `clone`, ...) which
//!   would otherwise mis-bind ordinary std calls to unrelated workspace
//!   methods — those go to the explicit unresolved bucket instead.
//!
//! Everything that fails to match lands in [`Graph::unresolved`] so the
//! soundness gap is observable, not silent (`scilint` reports the bucket
//! size under `--json`).
//!
//! On top of the graph sit the transitive rules (DESIGN.md §3.10):
//! `g-wallclock-transitive`, `g-sleep-transitive`, `g-panic-reachable`,
//! and the Result-hygiene rule `r-unchecked-result`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::cross::LexedFile;
use crate::engine::{index_site, panic_macro_site, skip_group, test_mask};
use crate::lexer::{Tok, TokKind};
use crate::{Config, Finding};

/// One `fn` item found anywhere in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl` type name (`None` for free functions).
    pub impl_type: Option<String>,
    pub crate_name: String,
    /// Rel path of the defining file.
    pub file: String,
    /// File stem (or directory name for `mod.rs`), usable as a path
    /// qualifier: `client::read_block`.
    pub module: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Index of the defining file in the input slice.
    pub file_idx: usize,
    /// Token range of the body braces (open ..= close); `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    pub is_test: bool,
    pub is_bin: bool,
    /// The declared return type mentions `Result`.
    pub returns_result: bool,
}

impl FnDef {
    /// `crate::Type::name` / `crate::name` display path.
    pub fn path(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)`
    Free,
    /// `qual::foo(..)` — `qual` is the last path segment before the name.
    Qualified(String),
    /// `recv.foo(..)`
    Method,
}

/// One syntactic call site inside a known fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index into [`Graph::defs`] of the innermost enclosing fn.
    pub caller: usize,
    pub name: String,
    pub kind: CallKind,
    pub line: u32,
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
}

/// Direct hazard classes a fn body can contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    Wallclock,
    Sleep,
    Panic,
}

/// One direct sink occurrence.
#[derive(Clone, Debug)]
pub struct Sink {
    pub def: usize,
    pub kind: SinkKind,
    pub line: u32,
    /// Human label (`Instant`, `thread::sleep`, `.unwrap()`, ...).
    pub what: &'static str,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub defs: Vec<FnDef>,
    /// Resolved adjacency: `edges[caller]` → (callee def, call line).
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Every resolved call site with its candidate target set (kept for
    /// the R-rules, which need per-site usage context).
    pub resolved: Vec<(CallSite, Vec<usize>)>,
    /// Call sites that matched no workspace definition, or were sent here
    /// by the `STD_METHODS` ambiguity deny list.
    pub unresolved: Vec<CallSite>,
    /// Direct sinks per def (pragma-suppressed sites already excluded).
    pub sinks: Vec<Sink>,
}

/// Method names that collide with std/core inherent or trait methods.
/// A `recv.name(..)` site with one of these names is *far* more likely a
/// std call than a workspace method, so resolving it by bare name would
/// wire HashMap lookups into the call graph. Such sites go to the
/// unresolved bucket instead. Workspace methods deliberately named like
/// these (there are a few `get`/`insert` impls) lose incoming method
/// edges — a documented soundness caveat (DESIGN.md §3.10).
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_sub",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "insert_str",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "ln",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "remove",
    "repeat",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "set",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_off",
    "sqrt",
    "starts_with",
    "ends_with",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trunc",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "wrapping_add",
    "wrapping_sub",
    "write",
    "write_all",
    "zip",
];

/// Keywords that read like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "loop", "move", "fn", "as", "let", "unsafe",
    "await", "else", "yield", "box", "ref", "mut", "where", "impl", "dyn", "pub", "use", "crate",
    "super", "self", "Self", "const", "static", "type", "enum", "struct", "trait", "mod", "extern",
    "async", "break", "continue",
];

// ---------------------------------------------------------------------------
// construction
// ---------------------------------------------------------------------------

/// Skip a generic-argument group `<...>` starting at `j`; returns the
/// index past the matching `>`, or `j` unchanged when not at `<`. Bounded
/// so a stray `<` (comparison) cannot swallow the file.
fn skip_angles(toks: &[Tok], j: usize) -> usize {
    if toks.get(j).map(|t| t.is_punct("<")) != Some(true) {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    let mut steps = 0usize;
    while let Some(t) = toks.get(k) {
        if steps > 300 {
            return j;
        }
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        } else if t.is_punct(";") || t.is_punct("{") {
            // Not generics after all.
            return j;
        }
        k += 1;
        steps += 1;
    }
    j
}

/// Read a type path starting at `j` (`&mut pkg::Foo<T>` → `Foo`); returns
/// (last path-segment ident, index past the path).
fn read_type_path(toks: &[Tok], mut j: usize) -> (Option<String>, usize) {
    // Skip reference/pointer noise.
    let mut steps = 0usize;
    while let Some(t) = toks.get(j) {
        if steps > 16 {
            break;
        }
        let skip = t.is_punct("&")
            || t.kind == TokKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn");
        if !skip {
            break;
        }
        j += 1;
        steps += 1;
    }
    let mut last: Option<String> = None;
    while let Some(t) = toks.get(j) {
        if t.kind != TokKind::Ident {
            break;
        }
        last = Some(t.text.clone());
        j += 1;
        j = skip_angles(toks, j);
        if toks.get(j).map(|t| t.is_punct("::")) == Some(true) {
            j += 1;
        } else {
            break;
        }
    }
    (last, j)
}

/// Module qualifier for a rel path: file stem, or the directory name for
/// `mod.rs` files.
fn module_of(rel: &str) -> String {
    let mut parts = rel.rsplit('/');
    let stem = parts
        .next()
        .unwrap_or("")
        .trim_end_matches(".rs")
        .to_string();
    if stem == "mod" || stem == "lib" || stem == "main" {
        parts.next().unwrap_or("").to_string()
    } else {
        stem
    }
}

/// Collect every `fn` item in one file, tracking enclosing `impl` blocks.
fn collect_defs(file_idx: usize, lf: &LexedFile<'_>, mask: &[bool], out: &mut Vec<FnDef>) {
    let toks = &lf.lexed.toks;
    let module = module_of(&lf.file.rel);
    // Stack of (last token index of impl body, impl type name).
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        while impl_stack.last().map(|(c, _)| *c < i) == Some(true) {
            impl_stack.pop();
        }
        if t.is_ident("impl") {
            let j = skip_angles(toks, i + 1);
            let (first_ty, mut k) = read_type_path(toks, j);
            let mut ty = first_ty;
            if toks.get(k).map(|t| t.is_ident("for")) == Some(true) {
                let (self_ty, k2) = read_type_path(toks, k + 1);
                ty = self_ty;
                k = k2;
            }
            // Advance over the where-clause to the body brace.
            let mut steps = 0usize;
            while let Some(t2) = toks.get(k) {
                if t2.is_punct("{") || t2.is_punct(";") || steps > 400 {
                    break;
                }
                k += 1;
                steps += 1;
            }
            if toks.get(k).map(|t| t.is_punct("{")) == Some(true) {
                let past = skip_group(toks, k);
                impl_stack.push((past.saturating_sub(1), ty));
                i = k + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            let def_line = t.line;
            let name = match toks.get(i + 1) {
                Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            let j = skip_angles(toks, i + 2);
            if toks.get(j).map(|t| t.is_punct("(")) != Some(true) {
                i += 2;
                continue;
            }
            let params_end = skip_group(toks, j);
            let mut k = params_end;
            let mut returns_result = false;
            let mut in_where = false;
            let mut body = None;
            let mut steps = 0usize;
            while let Some(t2) = toks.get(k) {
                if t2.is_punct("{") {
                    let past = skip_group(toks, k);
                    body = Some((k, past.saturating_sub(1)));
                    break;
                }
                if t2.is_punct(";") || steps > 400 {
                    break;
                }
                if t2.is_ident("where") {
                    in_where = true;
                }
                if !in_where && t2.is_ident("Result") {
                    returns_result = true;
                }
                k += 1;
                steps += 1;
            }
            out.push(FnDef {
                name,
                impl_type: impl_stack.last().and_then(|(_, t)| t.clone()),
                crate_name: lf.file.crate_name.clone(),
                file: lf.file.rel.clone(),
                module: module.clone(),
                line: def_line,
                file_idx,
                body,
                is_test: mask.get(i).copied().unwrap_or(false),
                is_bin: lf.file.is_bin,
                returns_result,
            });
            // Keep scanning from the name so nested fns and methods are
            // still discovered.
            i += 2;
            continue;
        }
        i += 1;
    }
}

/// The innermost def whose body encloses token `tok` in file `file_idx`.
fn innermost_def(defs: &[FnDef], file_defs: &[usize], tok: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (body start, def idx)
    for &di in file_defs {
        let Some(d) = defs.get(di) else { continue };
        let Some((lo, hi)) = d.body else { continue };
        if lo < tok && tok <= hi {
            let better = best.map(|(blo, _)| lo > blo) != Some(false);
            if better {
                best = Some((lo, di));
            }
        }
    }
    best.map(|(_, di)| di)
}

/// Per-file suppression check: is `rule` validly allowed at `line`?
fn line_suppressed(lf: &LexedFile<'_>, rule: &str, line: u32) -> bool {
    lf.lexed.pragmas.iter().any(|p| {
        let valid = !p.malformed && p.has_reason;
        let names = p.rule == "all" || p.rule == rule;
        valid && names && (p.file_level || p.target_line == line)
    })
}

/// Build the full workspace graph from lexed files.
pub fn build(files: &[LexedFile<'_>], _cfg: &Config) -> Graph {
    let masks: Vec<Vec<bool>> = files.iter().map(|lf| test_mask(&lf.lexed.toks)).collect();
    let mut defs: Vec<FnDef> = Vec::new();
    for (fi, lf) in files.iter().enumerate() {
        let mask = masks.get(fi).cloned().unwrap_or_default();
        collect_defs(fi, lf, &mask, &mut defs);
    }

    // Per-file def index for innermost-enclosing lookups.
    let mut by_file: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (di, d) in defs.iter().enumerate() {
        by_file.entry(d.file_idx).or_default().push(di);
    }

    // Name indices for resolution. Test and bin defs are excluded as
    // *targets*: nothing in library code can call into them.
    let mut free_idx: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut method_idx: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (di, d) in defs.iter().enumerate() {
        if d.is_test || d.is_bin {
            continue;
        }
        if d.impl_type.is_some() {
            method_idx.entry(d.name.as_str()).or_default().push(di);
        } else {
            free_idx.entry(d.name.as_str()).or_default().push(di);
        }
    }

    // Collect call sites + direct sinks in one pass per file.
    let mut sites: Vec<CallSite> = Vec::new();
    let mut sinks: Vec<Sink> = Vec::new();
    for (fi, lf) in files.iter().enumerate() {
        let toks = &lf.lexed.toks;
        let empty = Vec::new();
        let file_defs = by_file.get(&fi).unwrap_or(&empty);
        let mask = masks.get(fi).cloned().unwrap_or_default();
        for (j, t) in toks.iter().enumerate() {
            if mask.get(j).copied().unwrap_or(false) {
                continue;
            }
            // ---- direct sinks -------------------------------------------
            let sink = direct_sink(lf, toks, j, t);
            if let Some((kind, what)) = sink {
                if let Some(di) = innermost_def(&defs, file_defs, j) {
                    sinks.push(Sink {
                        def: di,
                        kind,
                        line: t.line,
                        what,
                    });
                }
            }
            // ---- call sites ---------------------------------------------
            if t.kind != TokKind::Ident
                || toks.get(j + 1).map(|p| p.is_punct("(")) != Some(true)
                || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                || t.text.chars().next().map(|c| c.is_uppercase()) == Some(true)
            {
                continue;
            }
            let prev = j.checked_sub(1).and_then(|p| toks.get(p));
            let prev2 = j.checked_sub(2).and_then(|p| toks.get(p));
            let kind = match prev {
                Some(p) if p.is_punct(".") => {
                    // `1..foo()` is a range bound, not a method call.
                    if prev2.map(|q| q.is_punct(".")) == Some(true) {
                        CallKind::Free
                    } else {
                        CallKind::Method
                    }
                }
                Some(p) if p.is_punct("::") => match prev2 {
                    Some(q) if q.kind == TokKind::Ident => CallKind::Qualified(q.text.clone()),
                    // Turbofish or `<T as Tr>::f` — unknowable by name.
                    _ => CallKind::Qualified(String::new()),
                },
                _ => CallKind::Free,
            };
            let Some(di) = innermost_def(&defs, file_defs, j) else {
                continue;
            };
            if defs.get(di).map(|d| d.is_test) == Some(true) {
                continue;
            }
            sites.push(CallSite {
                caller: di,
                name: t.text.clone(),
                kind,
                line: t.line,
                tok: j,
            });
        }
    }

    // Resolve.
    let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); defs.len()];
    let mut resolved = Vec::new();
    let mut unresolved = Vec::new();
    for site in sites {
        let caller = defs.get(site.caller);
        let targets: Vec<usize> = match &site.kind {
            CallKind::Free => free_idx
                .get(site.name.as_str())
                .cloned()
                .unwrap_or_default(),
            CallKind::Method => {
                if STD_METHODS.contains(&site.name.as_str()) {
                    Vec::new()
                } else {
                    method_idx
                        .get(site.name.as_str())
                        .cloned()
                        .unwrap_or_default()
                }
            }
            CallKind::Qualified(q) => {
                let q = if q == "Self" {
                    caller.and_then(|c| c.impl_type.clone()).unwrap_or_default()
                } else {
                    q.clone()
                };
                let mut v: Vec<usize> = method_idx
                    .get(site.name.as_str())
                    .map(|c| {
                        c.iter()
                            .filter(|&&di| {
                                defs.get(di).map(|d| d.impl_type.as_deref()) == Some(Some(&q))
                            })
                            .copied()
                            .collect()
                    })
                    .unwrap_or_default();
                if v.is_empty() {
                    let same_crate = matches!(q.as_str(), "crate" | "self" | "super");
                    v = free_idx
                        .get(site.name.as_str())
                        .map(|c| {
                            c.iter()
                                .filter(|&&di| {
                                    defs.get(di).map(|d| {
                                        d.crate_name == q
                                            || d.module == q
                                            || (same_crate
                                                && Some(d.crate_name.as_str())
                                                    == caller.map(|cd| cd.crate_name.as_str()))
                                    }) == Some(true)
                                })
                                .copied()
                                .collect()
                        })
                        .unwrap_or_default();
                }
                v
            }
        };
        if targets.is_empty() {
            unresolved.push(site);
        } else {
            for &tgt in &targets {
                if let Some(adj) = edges.get_mut(site.caller) {
                    adj.push((tgt, site.line));
                }
            }
            resolved.push((site, targets));
        }
    }

    Graph {
        defs,
        edges,
        resolved,
        unresolved,
        sinks,
    }
}

/// Classify a direct sink at token `j`, honouring line/file pragmas for
/// the corresponding per-file rule (a *reasoned* `d-wallclock` allow also
/// removes the site from the transitive graph — otherwise one justified
/// diagnostic timer would poison every caller).
fn direct_sink(
    lf: &LexedFile<'_>,
    toks: &[Tok],
    j: usize,
    t: &Tok,
) -> Option<(SinkKind, &'static str)> {
    if t.is_ident("Instant") || t.is_ident("SystemTime") {
        if line_suppressed(lf, "d-wallclock", t.line) {
            return None;
        }
        return Some((
            SinkKind::Wallclock,
            if t.text == "Instant" {
                "Instant"
            } else {
                "SystemTime"
            },
        ));
    }
    if t.is_ident("sleep")
        && j >= 2
        && toks.get(j - 1).map(|p| p.is_punct("::")) == Some(true)
        && toks.get(j - 2).map(|p| p.is_ident("thread")) == Some(true)
    {
        if line_suppressed(lf, "d-sleep", t.line) {
            return None;
        }
        return Some((SinkKind::Sleep, "thread::sleep"));
    }
    // Panic sinks only count in library code (bins may panic by design)
    // and only the explicit family — `p-index` debt is dense-math heavy
    // and baselined per file, so indexing does not poison reachability
    // (DESIGN.md §3.10 records this deviation).
    if lf.file.is_bin {
        return None;
    }
    if panic_macro_site(toks, j) {
        if line_suppressed(lf, "p-panic", t.line) {
            return None;
        }
        return Some((SinkKind::Panic, "panic!"));
    }
    if t.is_punct(".") {
        if let (Some(m), Some(o)) = (toks.get(j + 1), toks.get(j + 2)) {
            if m.is_ident("unwrap")
                && o.is_punct("(")
                && toks.get(j + 3).map(|t| t.is_punct(")")) == Some(true)
            {
                if line_suppressed(lf, "p-unwrap", m.line) {
                    return None;
                }
                return Some((SinkKind::Panic, ".unwrap()"));
            }
            if m.is_ident("expect") && o.is_punct("(") {
                if line_suppressed(lf, "p-expect", m.line) {
                    return None;
                }
                return Some((SinkKind::Panic, ".expect(..)"));
            }
        }
    }
    // Keep the index heuristic available to the graph but do not use it
    // as a panic sink (see above); referenced here so the shared helper
    // stays exercised from one place.
    let _ = index_site;
    None
}

// ---------------------------------------------------------------------------
// reachability
// ---------------------------------------------------------------------------

/// One step of a sink-reaching path, for diagnostics.
#[derive(Clone, Debug)]
enum Step {
    /// The def itself contains the sink.
    Direct { line: u32, what: &'static str },
    /// The def calls `next`, which reaches the sink.
    Via { next: usize },
}

/// For each def: does it contain-or-reach a sink of `kind`? Reverse BFS
/// from the sink set; `Step` pointers reconstruct a witness path.
fn reach_map(g: &Graph, kind: SinkKind, rev: &[Vec<(usize, u32)>]) -> Vec<Option<Step>> {
    let mut reach: Vec<Option<Step>> = vec![None; g.defs.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for s in &g.sinks {
        if s.kind != kind {
            continue;
        }
        if let Some(slot) = reach.get_mut(s.def) {
            if slot.is_none() {
                *slot = Some(Step::Direct {
                    line: s.line,
                    what: s.what,
                });
                queue.push_back(s.def);
            }
        }
    }
    while let Some(d) = queue.pop_front() {
        let callers = rev.get(d).cloned().unwrap_or_default();
        for (c, _line) in callers {
            if let Some(slot) = reach.get_mut(c) {
                if slot.is_none() {
                    *slot = Some(Step::Via { next: d });
                    queue.push_back(c);
                }
            }
        }
    }
    reach
}

/// Render a witness path `start -> a -> b (sink at file:line)`.
fn witness(g: &Graph, reach: &[Option<Step>], start: usize, max_hops: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut cur = start;
    let mut hops = 0usize;
    loop {
        let name = g.defs.get(cur).map(|d| d.path()).unwrap_or_default();
        parts.push(name);
        match reach.get(cur).and_then(|s| s.as_ref()) {
            Some(Step::Via { next, .. }) => {
                if hops >= max_hops {
                    parts.push("...".into());
                    break;
                }
                cur = *next;
                hops += 1;
            }
            Some(Step::Direct { line, what }) => {
                let file = g.defs.get(cur).map(|d| d.file.as_str()).unwrap_or("?");
                parts.push(format!("[`{what}` at {file}:{line}]"));
                break;
            }
            None => break,
        }
    }
    parts.join(" -> ")
}

fn reverse_edges(g: &Graph) -> Vec<Vec<(usize, u32)>> {
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); g.defs.len()];
    for (caller, adj) in g.edges.iter().enumerate() {
        for &(callee, line) in adj {
            if let Some(r) = rev.get_mut(callee) {
                r.push((caller, line));
            }
        }
    }
    rev
}

// ---------------------------------------------------------------------------
// rules
// ---------------------------------------------------------------------------

/// Parse a `crate::fn` / `crate::Type::fn` hot-entry spec against a def.
fn entry_matches(spec: &str, d: &FnDef) -> bool {
    let mut parts = spec.split("::");
    let (Some(krate), Some(second)) = (parts.next(), parts.next()) else {
        return false;
    };
    if d.crate_name != krate {
        return false;
    }
    match parts.next() {
        Some(fname) => d.impl_type.as_deref() == Some(second) && d.name == fname,
        None => d.impl_type.is_none() && d.name == second,
    }
}

/// Run every graph-powered rule. Findings flow through the normal
/// per-file pragma pass afterwards, so line pragmas work unchanged.
pub fn graph_rules(files: &[LexedFile<'_>], cfg: &Config, g: &Graph) -> Vec<Finding> {
    let mut out = Vec::new();
    let rev = reverse_edges(g);

    // ---- g-wallclock-transitive / g-sleep-transitive ---------------------
    // Flag the *crossing edge*: a sim-crate fn calling a non-sim-crate fn
    // that contains-or-reaches the sink. Direct sinks inside sim crates
    // are already d-wallclock/d-sleep per-file findings.
    for (kind, rule, label) in [
        (SinkKind::Wallclock, "g-wallclock-transitive", "wall-clock"),
        (SinkKind::Sleep, "g-sleep-transitive", "thread::sleep"),
    ] {
        let reach = reach_map(g, kind, &rev);
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (site, targets) in &g.resolved {
            let Some(caller) = g.defs.get(site.caller) else {
                continue;
            };
            if !cfg.wallclock_crates.contains(&caller.crate_name) {
                continue;
            }
            for &tgt in targets {
                let Some(callee) = g.defs.get(tgt) else {
                    continue;
                };
                if cfg.wallclock_crates.contains(&callee.crate_name) {
                    continue;
                }
                if reach.get(tgt).map(|s| s.is_some()) != Some(true) {
                    continue;
                }
                if !seen.insert((site.caller, tgt)) {
                    continue;
                }
                let rule_id: &'static str = rule;
                out.push(Finding {
                    rule: rule_id,
                    file: caller.file.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` (simulator crate) transitively reaches {} outside the \
                         determinism fence: {}",
                        caller.path(),
                        label,
                        witness(g, &reach, tgt, 6)
                    ),
                });
            }
        }
    }

    // ---- g-panic-reachable ------------------------------------------------
    // Hot entry points must not reach unwrap/expect/panic! in *other*
    // files' library code (same-file debt is owned by the per-file
    // P-rules + baseline). One finding per (entry, sink file), anchored
    // at the entry's `fn` line so a single pragma covers the entry.
    {
        // Per-def panic info: first sink.
        let mut panic_in: BTreeMap<usize, (u32, &'static str)> = BTreeMap::new();
        for s in &g.sinks {
            if s.kind == SinkKind::Panic {
                panic_in.entry(s.def).or_insert((s.line, s.what));
            }
        }
        for spec in &cfg.hot_entries {
            let entries: Vec<usize> = g
                .defs
                .iter()
                .enumerate()
                .filter(|(_, d)| !d.is_test && entry_matches(spec, d))
                .map(|(i, _)| i)
                .collect();
            for e in entries {
                let Some(entry) = g.defs.get(e) else { continue };
                // Forward BFS with parent pointers for the witness path.
                let mut parent: Vec<Option<(usize, u32)>> = vec![None; g.defs.len()];
                let mut visited: Vec<bool> = vec![false; g.defs.len()];
                let mut queue: VecDeque<usize> = VecDeque::new();
                if let Some(v) = visited.get_mut(e) {
                    *v = true;
                }
                queue.push_back(e);
                while let Some(d) = queue.pop_front() {
                    let adj = g.edges.get(d).cloned().unwrap_or_default();
                    for (callee, line) in adj {
                        if visited.get(callee).copied().unwrap_or(true) {
                            continue;
                        }
                        if let Some(v) = visited.get_mut(callee) {
                            *v = true;
                        }
                        if let Some(p) = parent.get_mut(callee) {
                            *p = Some((d, line));
                        }
                        queue.push_back(callee);
                    }
                }
                // Group reachable panic defs by file; report one per file.
                let mut by_sink_file: BTreeMap<&str, usize> = BTreeMap::new();
                for &d in panic_in.keys() {
                    if d == e || !visited.get(d).copied().unwrap_or(false) {
                        continue;
                    }
                    let Some(dd) = g.defs.get(d) else { continue };
                    if dd.file == entry.file {
                        continue;
                    }
                    by_sink_file.entry(dd.file.as_str()).or_insert(d);
                }
                for (sink_file, d) in by_sink_file {
                    // Rebuild the forward path entry -> ... -> d.
                    let mut chain: Vec<usize> = vec![d];
                    let mut cur = d;
                    let mut hops = 0usize;
                    while let Some(&Some((p, _))) = parent.get(cur) {
                        chain.push(p);
                        cur = p;
                        hops += 1;
                        if hops > 64 {
                            break;
                        }
                    }
                    chain.reverse();
                    let shown: Vec<String> = chain
                        .iter()
                        .take(7)
                        .filter_map(|&i| g.defs.get(i).map(|dd| dd.path()))
                        .collect();
                    let (sline, what) = panic_in.get(&d).copied().unwrap_or((0, "panic site"));
                    out.push(Finding {
                        rule: "g-panic-reachable",
                        file: entry.file.clone(),
                        line: entry.line,
                        message: format!(
                            "hot entry `{}` reaches `{}` in {}:{} via {}",
                            entry.path(),
                            what,
                            sink_file,
                            sline,
                            shown.join(" -> ")
                        ),
                    });
                }
            }
        }
    }

    // ---- r-unchecked-result ----------------------------------------------
    // A call whose every candidate returns Result, used as a bare
    // statement or bound to `_`, silently drops the error.
    for (site, targets) in &g.resolved {
        let all_result = !targets.is_empty()
            && targets
                .iter()
                .all(|&t| g.defs.get(t).map(|d| d.returns_result) == Some(true));
        if !all_result {
            continue;
        }
        let Some(caller) = g.defs.get(site.caller) else {
            continue;
        };
        let Some(lf) = files.get(caller.file_idx) else {
            continue;
        };
        if discards_result(&lf.lexed.toks, site) {
            let callee = targets
                .first()
                .and_then(|&t| g.defs.get(t))
                .map(|d| d.path())
                .unwrap_or_else(|| site.name.clone());
            out.push(Finding {
                rule: "r-unchecked-result",
                file: caller.file.clone(),
                line: site.line,
                message: format!(
                    "Result returned by `{callee}` is discarded here; propagate it or \
                     handle the error"
                ),
            });
        }
    }

    out
}

/// Is the call at `site` a discarded-Result use: `...);` as a bare
/// statement, or `let _ = ...;`?
fn discards_result(toks: &[Tok], site: &CallSite) -> bool {
    let open = site.tok + 1;
    let after = skip_group(toks, open);
    if toks.get(after).map(|t| t.is_punct(";")) != Some(true) {
        return false;
    }
    // Walk backwards over the receiver/path to the statement boundary.
    let mut k = site.tok;
    let mut steps = 0usize;
    loop {
        steps += 1;
        if steps > 128 {
            return false;
        }
        let Some(pi) = k.checked_sub(1) else {
            return true;
        };
        let Some(p) = toks.get(pi) else { return true };
        match p.kind {
            TokKind::Punct => match p.text.as_str() {
                ";" | "{" | "}" => return true,
                "=" => return let_underscore_before(toks, pi),
                "." | "?" | "&" | "::" | "*" => k = pi,
                ")" | "]" => match backward_match(toks, pi) {
                    Some(o) => k = o,
                    None => return false,
                },
                _ => return false,
            },
            TokKind::Ident => {
                if matches!(
                    p.text.as_str(),
                    "return"
                        | "break"
                        | "match"
                        | "if"
                        | "while"
                        | "else"
                        | "in"
                        | "yield"
                        | "await"
                        | "move"
                ) {
                    return false;
                }
                k = pi;
            }
            _ => k = pi,
        }
    }
}

/// `let _ = ...` / `let _ : T = ...` ending at the `=` token index.
fn let_underscore_before(toks: &[Tok], eq: usize) -> bool {
    // Direct form.
    let u1 = eq.checked_sub(1).and_then(|i| toks.get(i));
    let u2 = eq.checked_sub(2).and_then(|i| toks.get(i));
    if u1.map(|t| t.is_ident("_")) == Some(true) && u2.map(|t| t.is_ident("let")) == Some(true) {
        return true;
    }
    // Annotated form: scan back a short window for `let _ :`.
    let mut i = eq;
    let mut steps = 0usize;
    while let Some(pi) = i.checked_sub(1) {
        steps += 1;
        if steps > 24 {
            return false;
        }
        let Some(t) = toks.get(pi) else { return false };
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return false;
        }
        if t.is_punct(":")
            && pi
                .checked_sub(1)
                .and_then(|a| toks.get(a))
                .map(|a| a.is_ident("_"))
                == Some(true)
            && pi
                .checked_sub(2)
                .and_then(|a| toks.get(a))
                .map(|a| a.is_ident("let"))
                == Some(true)
        {
            return true;
        }
        i = pi;
    }
    false
}

/// Backward matcher for `)`/`]` at `close`; returns the opener index.
fn backward_match(toks: &[Tok], close: usize) -> Option<usize> {
    let (o, c) = match toks.get(close).map(|t| t.text.as_str()) {
        Some(")") => ("(", ")"),
        Some("]") => ("[", "]"),
        _ => return None,
    };
    let mut depth = 0i32;
    let mut i = close;
    loop {
        let t = toks.get(i)?;
        if t.kind == TokKind::Punct && t.text == c {
            depth += 1;
        } else if t.kind == TokKind::Punct && t.text == o {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i = i.checked_sub(1)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::InputFile;

    fn mk(rel: &str, crate_name: &str, src: &str) -> InputFile {
        InputFile {
            rel: rel.into(),
            crate_name: crate_name.into(),
            is_bin: false,
            src: src.into(),
        }
    }

    fn build_graph(files: &[InputFile]) -> Graph {
        let lexed: Vec<crate::lexer::Lexed> = files.iter().map(|f| lex(&f.src)).collect();
        let lfs: Vec<LexedFile<'_>> = files
            .iter()
            .zip(lexed.iter())
            .map(|(file, lexed)| LexedFile { file, lexed })
            .collect();
        let cfg = Config::default_for_root(std::path::Path::new("."));
        build(&lfs, &cfg)
    }

    fn def<'g>(g: &'g Graph, name: &str) -> Option<(usize, &'g FnDef)> {
        g.defs.iter().enumerate().find(|(_, d)| d.name == name)
    }

    #[test]
    fn free_and_qualified_calls_resolve() {
        let a = mk(
            "crates/a/src/lib.rs",
            "a",
            "pub fn top() { helper(); b::remote(); }\nfn helper() {}\n",
        );
        let b = mk("crates/b/src/lib.rs", "b", "pub fn remote() {}\n");
        let g = build_graph(&[a, b]);
        let (ti, _) = def(&g, "top").unwrap();
        let callees: Vec<&str> = g
            .edges
            .get(ti)
            .unwrap()
            .iter()
            .map(|&(d, _)| g.defs[d].name.as_str())
            .collect();
        assert!(callees.contains(&"helper"), "{callees:?}");
        assert!(callees.contains(&"remote"), "{callees:?}");
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn method_resolution_unions_and_std_names_go_unresolved() {
        let a = mk(
            "crates/a/src/lib.rs",
            "a",
            "struct X; impl X { pub fn fetch(&self) {} }\n\
             pub fn go(x: &X, m: &std::collections::HashMap<u32, u32>) {\n\
                 x.fetch(); let _ = m.get(&1);\n\
             }\n",
        );
        let b = mk(
            "crates/b/src/lib.rs",
            "b",
            "pub struct Y; impl Y { pub fn fetch(&self) {} }\n",
        );
        let g = build_graph(&[a, b]);
        let (gi, _) = def(&g, "go").unwrap();
        // `.fetch()` unions both impls (dyn-dispatch soundness).
        let fetch_targets: Vec<&str> = g
            .edges
            .get(gi)
            .unwrap()
            .iter()
            .map(|&(d, _)| g.defs[d].impl_type.as_deref().unwrap_or(""))
            .collect();
        assert_eq!(fetch_targets.len(), 2, "{fetch_targets:?}");
        // `.get()` is on the std deny list -> unresolved bucket.
        assert!(
            g.unresolved.iter().any(|s| s.name == "get"),
            "{:?}",
            g.unresolved
        );
    }

    #[test]
    fn self_qualified_resolves_within_impl() {
        let a = mk(
            "crates/a/src/lib.rs",
            "a",
            "struct X; impl X {\n\
                 pub fn outer(&self) { Self::inner(); }\n\
                 fn inner() {}\n\
             }\n",
        );
        let g = build_graph(&[a]);
        let (oi, _) = def(&g, "outer").unwrap();
        let callees: Vec<&str> = g
            .edges
            .get(oi)
            .unwrap()
            .iter()
            .map(|&(d, _)| g.defs[d].name.as_str())
            .collect();
        assert_eq!(callees, vec!["inner"]);
    }

    #[test]
    fn cycles_terminate_and_reach_through_them() {
        let a = mk(
            "crates/simnet/src/lib.rs",
            "simnet",
            "pub fn ping() { pong(); }\npub fn pong() { ping(); leak(); }\n",
        );
        let b = mk(
            "crates/other/src/lib.rs",
            "other",
            "pub fn leak() { let _t = std::time::Instant::now(); }\n",
        );
        let g = build_graph(&[a, b]);
        let rev = reverse_edges(&g);
        let reach = reach_map(&g, SinkKind::Wallclock, &rev);
        for name in ["ping", "pong", "leak"] {
            let (i, _) = def(&g, name).unwrap();
            assert!(reach[i].is_some(), "{name} should reach the sink");
        }
    }

    #[test]
    fn constructors_and_macros_are_not_calls() {
        let a = mk(
            "crates/a/src/lib.rs",
            "a",
            "pub enum E { V(u32) }\n\
             pub fn go() -> E { let v = vec![1]; let _ = format!(\"{}\", v.len()); E::V(1) }\n",
        );
        let g = build_graph(&[a]);
        let (gi, _) = def(&g, "go").unwrap();
        assert!(g.edges.get(gi).unwrap().is_empty());
        assert!(
            !g.unresolved
                .iter()
                .any(|s| s.name == "V" || s.name == "format"),
            "{:?}",
            g.unresolved
        );
    }

    #[test]
    fn test_fns_are_excluded() {
        let a = mk(
            "crates/a/src/lib.rs",
            "a",
            "pub fn lib_fn() {}\n\
             #[cfg(test)]\nmod tests {\n\
                 #[test]\nfn t() { super::lib_fn(); }\n\
             }\n",
        );
        let g = build_graph(&[a]);
        assert!(g.defs.iter().any(|d| d.name == "lib_fn" && !d.is_test));
        assert!(g.defs.iter().all(|d| d.name != "t" || d.is_test));
        assert!(g.resolved.iter().all(|(s, _)| g.defs[s.caller].name != "t"));
    }

    #[test]
    fn returns_result_detected() {
        let a = mk(
            "crates/a/src/lib.rs",
            "a",
            "pub fn ok_fn() -> Result<u32, String> { Ok(1) }\n\
             pub fn unit_fn() {}\n",
        );
        let g = build_graph(&[a]);
        assert!(def(&g, "ok_fn").unwrap().1.returns_result);
        assert!(!def(&g, "unit_fn").unwrap().1.returns_result);
    }
}
