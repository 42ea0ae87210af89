//! # scidp-bench — one harness regenerating every table and figure
//!
//! The `scidp-bench` binary (`src/main.rs` + one module per experiment
//! under `src/exp/`) regenerates the tables and figures of the paper's
//! evaluation (§V) and the feature benchmarks, each as one [`Report`]:
//! named rows tagged with the clock they were read from, the paper's
//! expected result shapes as [`Report::expect`]s, and the known divergences
//! as [`Report::deviation`]s. [`record`] compares a report's simulated and
//! counted rows against the committed `BENCH_*.json` section produced under
//! the same preconditions and rewrites that section.
//!
//! This library half holds what the experiments share — the reporter, the
//! dataset pool — and what the `e2e` package links (`paper_cluster`); no
//! experiment code compiles into it.
//!
//! Absolute numbers will not match the paper — the substrate is a
//! simulator, not the TACC testbed — but the *shapes* (who wins, by what
//! factor, where crossovers fall) are the reproduction target.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Write as _;
use std::path::Path;

use mapreduce::Cluster;
use wrfgen::WrfSpec;

pub use baselines::{paper_cluster, stage_nuwrf, StagedDataset};

/// Default evaluation spec: the paper's 50-level model at a reduced
/// horizontal grid (16x16 real standing in for 1250x1250 logical; the cost
/// model's `scale` recovers paper-sized bytes). All 23 variables are
/// materialized.
pub fn eval_spec(timestamps: usize) -> WrfSpec {
    WrfSpec::scaled(16, 16, timestamps)
}

/// Quick spec for smoke runs (CI-sized).
pub fn quick_spec(timestamps: usize) -> WrfSpec {
    WrfSpec {
        levels: 10,
        chunk_levels: 5,
        n_vars: 6,
        ..WrfSpec::scaled(12, 12, timestamps)
    }
}

/// The preconditions of one harness run: `--quick`, the `--timestamps`
/// override of the experiments that take one, and the fault-plan seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    pub quick: bool,
    pub timestamps: Option<usize>,
    pub fault_seed: u64,
}

/// The fault seed of a run that does not set `SCIDP_FAULT_SEED`.
pub const DEFAULT_FAULT_SEED: u64 = 1234;

impl Scale {
    /// `quick` under `--quick`, else `full`.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Timestamp count: the `--timestamps` override, else by scale.
    pub fn timestamps(&self, quick: usize, full: usize) -> usize {
        self.timestamps.unwrap_or(self.pick(quick, full))
    }

    /// The NU-WRF dataset spec of this scale.
    pub fn spec(&self, timestamps: usize) -> WrfSpec {
        self.pick(quick_spec(timestamps), eval_spec(timestamps))
    }

    /// `BENCH_*.json` section this run is compared against and rewrites.
    pub fn section(&self) -> &'static str {
        self.pick("quick", "full")
    }
}

/// Generate the dataset once, then hand out per-experiment worlds that
/// share the staged bytes (payloads are `Arc`-shared).
pub struct DatasetPool {
    spec: WrfSpec,
    staged_pfs: pfs::Pfs,
    pub dataset: StagedDataset,
}

impl DatasetPool {
    pub fn generate(spec: WrfSpec, dir: &str) -> DatasetPool {
        let mut cluster = paper_cluster(8, &spec);
        let dataset = stage_nuwrf(&mut cluster, &spec, dir);
        let staged_pfs = cluster.pfs.borrow().clone();
        DatasetPool {
            spec,
            staged_pfs,
            dataset,
        }
    }

    /// A fresh world (own simulator/HDFS) with the staged dataset visible.
    pub fn fresh_cluster(&self, nodes: usize) -> Cluster {
        let cluster = paper_cluster(nodes, &self.spec);
        *cluster.pfs.borrow_mut() = self.staged_pfs.clone();
        cluster
    }

    /// Copy extra staged files (e.g. converted text) into the pool so later
    /// worlds see them too.
    pub fn absorb_pfs(&mut self, cluster: &Cluster) {
        self.staged_pfs = cluster.pfs.borrow().clone();
    }
}

/// Format seconds with sensible precision.
fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Format a speedup factor.
fn fmt_x(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.2}x")
    }
}

// ---------------------------------------------------------------------------
// The reporter
// ---------------------------------------------------------------------------

/// Which clock (or none) a row was read from — the tags `e2e` prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated seconds (or a ratio of them): repeats exactly per seed.
    Sim,
    /// Host wall-clock (or a ratio of it): written, never compared.
    Host,
    /// An exact count, byte total or flag: repeats exactly per seed.
    Count,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

/// One reported value; `name` is unique within its experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub clock: Clock,
}

/// The relation an [`Report::expect`] asserts between a row and its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
}

impl Rel {
    fn sym(self) -> &'static str {
        match self {
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Eq => "==",
            Rel::Ge => ">=",
            Rel::Gt => ">",
        }
    }

    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Rel::Lt => value < bound,
            Rel::Le => value <= bound,
            Rel::Eq => value == bound,
            Rel::Ge => value >= bound,
            Rel::Gt => value > bound,
        }
    }
}

/// One column of a [`Report::table`]: row-name key, printed head, unit, clock.
pub type Col = (&'static str, &'static str, &'static str, Clock);

/// One target of [`Report::expect_all`]: row name, relation, bound, why.
pub type Target<'a> = (&'a str, Rel, f64, &'a str);

/// An asserted target: `name rel bound`, with the row's value at the time.
#[derive(Clone, Debug)]
struct Check {
    /// `Some(id)` for a named expected deviation from the paper.
    deviation: Option<&'static str>,
    name: String,
    rel: Rel,
    bound: f64,
    value: f64,
    why: String,
}

/// What one experiment reports: rows, how to print them, and its targets.
#[derive(Clone, Debug)]
pub struct Report {
    pub experiment: &'static str,
    rows: Vec<Row>,
    /// Printable lines, in order (tables pre-rendered by [`Report::table`]).
    text: Vec<String>,
    checks: Vec<Check>,
}

/// Lower-case `label` with every run of non-alphanumerics as one `_`: the
/// row-name segment of a table line.
fn slug(label: &str) -> String {
    let mut out = String::new();
    for ch in label.chars() {
        if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

/// One printed value: seconds and factors by magnitude, flags as yes/no,
/// whole numbers exactly, fractions to two (below 10: three) decimals.
fn fmt_cell(value: f64, unit: &str) -> String {
    match unit {
        "s" => fmt_s(value),
        "x" => fmt_x(value),
        "flag" => if value == 1.0 { "yes" } else { "no" }.to_string(),
        _ if value.fract() == 0.0 => format!("{value:.0}"),
        _ if value.abs() < 10.0 => format!("{value:.3}"),
        _ => format!("{value:.2}"),
    }
}

impl Report {
    pub fn new(experiment: &'static str) -> Report {
        Report {
            experiment,
            rows: Vec::new(),
            text: Vec::new(),
            checks: Vec::new(),
        }
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// A free-form printed line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.text.push(line.into());
    }

    fn push_row(&mut self, name: String, value: f64, unit: &str, clock: Clock) {
        if self.rows.iter().any(|r| r.name == name) {
            // Two rows of one name would make the baseline ambiguous: fail
            // the report (no row has this name, so its value is NaN).
            let twice = format!("{name} (reported twice)");
            self.push_check(None, &twice, Rel::Eq, 0.0, "row names are unique");
        }
        let unit = unit.to_string();
        self.rows.push(Row {
            name,
            value,
            unit,
            clock,
        });
    }

    /// Report one scalar and print it.
    pub fn row(&mut self, name: &str, value: f64, unit: &str, clock: Clock) {
        let shown = fmt_cell(value, unit);
        let unit_shown = if matches!(unit, "x" | "flag") {
            ""
        } else {
            unit
        };
        let tag = clock.tag();
        self.note(format!("  {name} = {shown} {unit_shown} [{tag}]"));
        self.push_row(name.to_string(), value, unit, clock);
    }

    /// Report a table: one row per cell, named `<slug(line label)>.<column
    /// key>`, printed under `title` with `label_head` over the line labels.
    pub fn table(
        &mut self,
        title: &str,
        label_head: &str,
        cols: &[Col],
        lines: &[(String, Vec<f64>)],
    ) {
        let head = |&(_, head, unit, _): &Col| match unit {
            "" | "x" | "flag" => head.to_string(),
            unit => format!("{head} ({unit})"),
        };
        let heads = std::iter::once(label_head.to_string()).chain(cols.iter().map(head));
        let mut grid: Vec<Vec<String>> = vec![heads.collect()];
        for (label, values) in lines {
            let mut cells = vec![label.clone()];
            for (&(key, _, unit, clock), &value) in cols.iter().zip(values) {
                cells.push(fmt_cell(value, unit));
                self.push_row(format!("{}.{key}", slug(label)), value, unit, clock);
            }
            grid.push(cells);
        }
        let width = |i: usize| {
            grid.iter()
                .filter_map(|l| l.get(i))
                .map(|c| c.chars().count())
                .max()
        };
        let widths: Vec<usize> = (0..=cols.len()).map(|i| width(i).unwrap_or(0)).collect();
        if !title.is_empty() {
            self.note(title);
        }
        for (n, line) in grid.iter().enumerate() {
            let mut out = String::from("|");
            for (i, (cell, &w)) in line.iter().zip(&widths).enumerate() {
                // Labels left-aligned, values right-aligned.
                let _ = match i {
                    0 => write!(out, " {cell:<w$} |"),
                    _ => write!(out, " {cell:>w$} |"),
                };
            }
            self.text.push(out);
            if n == 0 {
                let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w + 2)).collect();
                self.text.push(format!("|{}|", rule.join("|")));
            }
        }
    }

    /// The value of row `name`; NaN — which fails every relation — when
    /// there is no such row.
    pub fn v(&self, name: &str) -> f64 {
        let row = self.rows.iter().find(|r| r.name == name);
        row.map_or(f64::NAN, |r| r.value)
    }

    fn push_check(
        &mut self,
        deviation: Option<&'static str>,
        name: &str,
        rel: Rel,
        bound: f64,
        why: &str,
    ) {
        self.checks.push(Check {
            deviation,
            name: name.to_string(),
            rel,
            bound,
            value: self.v(name),
            why: why.to_string(),
        });
    }

    /// Assert a target: row `name` stands in `rel` to `bound`.
    pub fn expect(&mut self, name: &str, rel: Rel, bound: f64, why: &str) {
        self.push_check(None, name, rel, bound, why);
    }

    /// [`Report::expect`] every target of a table of them.
    pub fn expect_all(&mut self, targets: &[Target<'_>]) {
        for &(name, rel, bound, why) in targets {
            self.push_check(None, name, rel, bound, why);
        }
    }

    /// Record a known divergence from the paper (EXPERIMENTS.md "Known
    /// divergences" entry `id`) as the relation that shows it: the run
    /// fails when the divergence silently disappears, like any `expect`.
    pub fn deviation(&mut self, id: &'static str, name: &str, rel: Rel, bound: f64, why: &str) {
        self.push_check(Some(id), name, rel, bound, why);
    }

    /// Report a yes/no target as a count row and assert it is yes.
    pub fn check(&mut self, name: &str, ok: bool, why: &str) {
        self.push_row(
            name.to_string(),
            f64::from(u8::from(ok)),
            "flag",
            Clock::Count,
        );
        self.push_check(None, name, Rel::Eq, 1.0, why);
    }

    /// [`Report::check`] that two committed outputs (or counter maps) are the
    /// same, as the flag row `<scope>.output_identical`.
    pub fn identical<T: PartialEq>(&mut self, scope: &str, a: &T, b: &T) {
        let name = format!("{scope}.output_identical");
        self.check(&name, a == b, "committed bytes are identical");
    }

    /// One line per failed target, naming the experiment, the relation and
    /// both values.
    pub fn failures(&self) -> Vec<String> {
        let failed = self
            .checks
            .iter()
            .filter(|c| !c.rel.holds(c.value, c.bound));
        let line = |c: &Check| {
            let what = match c.deviation {
                Some(id) => format!("expected deviation {id} no longer shows"),
                None => "expect failed".to_string(),
            };
            let (exp, name, value, rel, bound, why) = (
                self.experiment,
                &c.name,
                c.value,
                c.rel.sym(),
                c.bound,
                &c.why,
            );
            format!("{exp}: {what}: {name} = {value} {rel} {bound} — {why}")
        };
        failed.map(line).collect()
    }

    /// The printable form: the experiment's lines, its recorded deviations,
    /// and how many targets hold.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.experiment);
        for line in &self.text {
            let _ = writeln!(out, "{line}");
        }
        for c in &self.checks {
            if let Some(id) = c.deviation {
                let (value, bound) = (fmt_cell(c.value, ""), fmt_cell(c.bound, ""));
                let (name, rel, why) = (&c.name, c.rel.sym(), &c.why);
                let _ = writeln!(
                    out,
                    "  deviation {id}: {name} = {value} {rel} {bound} — {why}"
                );
            }
        }
        let failed = self.failures().len();
        let _ = writeln!(
            out,
            "targets: {}/{} hold",
            self.checks.len() - failed,
            self.checks.len()
        );
        out
    }
}

// ---------------------------------------------------------------------------
// JSON (the workspace has no serde) and the committed-baseline comparison
// ---------------------------------------------------------------------------

/// A JSON value; objects keep insertion order so rewrites are stable.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace `key` in an object (no-op on other values).
    fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(members) = self {
            match members.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize: objects and arrays of objects one member per line down to
    /// `depth` levels, below that on one line (a row per line).
    fn write(&self, out: &mut String, indent: usize, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            // JSON has no NaN or infinity.
            Json::Num(n) if !n.is_finite() => return out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
                return;
            }
            Json::Str(s) => return write_json_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(ms) => (
                '{',
                '}',
                ms.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let multiline = depth > 0 && !members.is_empty();
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                write_json_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent + 1, depth.saturating_sub(1));
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
        out.push(close);
    }

    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", want as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.members(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') if self.bytes.get(self.pos..self.pos + 4) == Some(b"null") => {
                self.pos += 4;
                Ok(Json::Null)
            }
            _ => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    /// `open item (',' item)* close`, the opener under the cursor.
    fn members<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or close at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let ch = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("value".into(), Json::Num(r.value)),
                    ("unit".into(), Json::Str(r.unit.clone())),
                    ("clock".into(), Json::Str(r.clock.tag().into())),
                ])
            })
            .collect(),
    )
}

fn rows_from_json(rows: &Json) -> Vec<Row> {
    let Json::Arr(items) = rows else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|item| {
            Some(Row {
                name: item.get("name")?.as_str()?.to_string(),
                value: match item.get("value")? {
                    Json::Num(n) => *n,
                    _ => f64::NAN,
                },
                unit: item.get("unit")?.as_str()?.to_string(),
                clock: [Clock::Sim, Clock::Host, Clock::Count]
                    .into_iter()
                    .find(|c| Some(c.tag()) == item.get("clock").and_then(Json::as_str))?,
            })
        })
        .collect()
}

/// Simulated and counted rows whose value differs between `committed` and
/// `fresh` (or that exist on one side only), one line each. Host-clock rows
/// are never compared.
fn moved_rows(committed: &[Row], fresh: &[Row]) -> Vec<String> {
    let exact = |rows: &[Row]| -> Vec<Row> {
        rows.iter()
            .filter(|r| r.clock != Clock::Host)
            .cloned()
            .collect()
    };
    let (old, new) = (exact(committed), exact(fresh));
    let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
    let mut moved = Vec::new();
    for n in &new {
        match old.iter().find(|o| o.name == n.name) {
            Some(o) if same(o.value, n.value) => {}
            Some(o) => moved.push(format!("{}: {} -> {}", n.name, o.value, n.value)),
            None => moved.push(format!("{}: (absent) -> {}", n.name, n.value)),
        }
    }
    for o in old.iter().filter(|o| !new.iter().any(|n| n.name == o.name)) {
        moved.push(format!("{}: {} -> (absent)", o.name, o.value));
    }
    moved
}

/// Compare-then-write: compare `report`'s simulated and counted rows with
/// section [`Scale::section`] of the experiment's entry in `path` (if the
/// file has one), then rewrite exactly that section — preconditions and all
/// rows — leaving every other byte of the file as it was. Returns the rows
/// that moved; `Err` on an unreadable, unparsable or unwritable file.
pub fn record(path: &Path, scale: &Scale, report: &Report) -> Result<Vec<String>, String> {
    let section = scale.section();
    let mut file = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut entry = file
        .get(report.experiment)
        .cloned()
        .unwrap_or(Json::Obj(Vec::new()));
    let moved = entry
        .get(section)
        .and_then(|s| s.get("rows"))
        .map(|rows| moved_rows(&rows_from_json(rows), report.rows()))
        .unwrap_or_default();
    let preconditions = vec![
        ("scale".to_string(), Json::Str(section.into())),
        ("rows".into(), rows_to_json(report.rows())),
    ];
    entry.set(section, Json::Obj(preconditions));
    file.set(report.experiment, entry);
    let mut text = String::new();
    file.write(&mut text, 0, 4);
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_shares_dataset_across_worlds() {
        let pool = DatasetPool::generate(quick_spec(2), "nuwrf");
        let c1 = pool.fresh_cluster(4);
        let c2 = pool.fresh_cluster(8);
        assert_eq!(c1.pfs.borrow().n_files(), 2);
        assert_eq!(c2.pfs.borrow().n_files(), 2);
        assert_eq!(c2.topo.n_compute(), 8);
        // Same bytes, shared storage.
        let a = c1
            .pfs
            .borrow()
            .file(&pool.dataset.info.files[0])
            .unwrap()
            .data
            .clone();
        let b = c2
            .pfs
            .borrow()
            .file(&pool.dataset.info.files[0])
            .unwrap()
            .data
            .clone();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(123.4), "123");
        assert_eq!(fmt_s(12.34), "12.3");
        assert_eq!(fmt_s(0.1234), "0.123");
        assert_eq!(fmt_x(6.58), "6.58x");
        assert_eq!(fmt_x(284.6), "285x");
    }

    fn scale(quick: bool) -> Scale {
        Scale {
            quick,
            timestamps: None,
            fault_seed: DEFAULT_FAULT_SEED,
        }
    }

    fn sample(sim: f64, host: f64) -> Report {
        let mut r = Report::new("demo");
        r.row("elapsed_s", sim, "s", Clock::Sim);
        r.row("wall_s", host, "s", Clock::Host);
        r.row("tasks", 14.0, "", Clock::Count);
        r
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("scidp-bench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn json_round_trips_quotes_and_non_finite_values() {
        let mut r = Report::new("demo");
        r.row("a \"quoted\\\" name\n", 0.1 + 0.2, "s", Clock::Sim);
        r.row("nan", f64::NAN, "x", Clock::Host);
        r.row("inf", f64::INFINITY, "", Clock::Count);
        let mut text = String::new();
        rows_to_json(r.rows()).write(&mut text, 0, 1);
        assert!(!text.contains("NaN") && !text.contains("inf,"), "{text}");
        let parsed = Json::parse(&text).expect("writer emits valid JSON");
        let back = rows_from_json(&parsed);
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], r.rows()[0], "name, bits, unit and clock survive");
        assert!(back[1].value.is_nan() && back[2].value.is_nan());
        // Idempotent from here on: what was read back writes the same bytes.
        let mut again = String::new();
        rows_to_json(&back).write(&mut again, 0, 1);
        assert_eq!(again, text);
        assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
    }

    #[test]
    fn moved_sim_row_fails_and_moved_host_row_does_not() {
        let path = scratch_file("moved.json");
        let s = scale(true);
        let first = record(&path, &s, &sample(5.5, 0.01)).unwrap();
        assert!(first.is_empty(), "first recording has nothing to compare");
        let host_only = record(&path, &s, &sample(5.5, 0.02)).unwrap();
        assert!(host_only.is_empty(), "{host_only:?}");
        let moved = record(&path, &s, &sample(5.6, 0.02)).unwrap();
        assert_eq!(moved, vec!["elapsed_s: 5.5 -> 5.6".to_string()]);
        // Compare-then-write: the section now holds the new value.
        let settled = record(&path, &s, &sample(5.6, 0.03)).unwrap();
        assert!(settled.is_empty());
        let mut gone = sample(5.6, 0.03);
        gone.rows.pop();
        let moved = record(&path, &s, &gone).unwrap();
        assert_eq!(moved, vec!["tasks: 14 -> (absent)".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quick_run_leaves_the_full_section_byte_identical() {
        let path = scratch_file("sections.json");
        record(&path, &scale(false), &sample(100.25, 1.0)).unwrap();
        record(&path, &scale(true), &sample(5.5, 0.01)).unwrap();
        let full_of = |text: &str| {
            let start = text.find("\"full\"").unwrap();
            let end = text.find("\"quick\"").unwrap();
            text[start..end].to_string()
        };
        let before = std::fs::read_to_string(&path).unwrap();
        let moved = record(&path, &scale(true), &sample(7.0, 0.5)).unwrap();
        assert_eq!(moved.len(), 1);
        let after = std::fs::read_to_string(&path).unwrap();
        assert_ne!(before, after);
        assert_eq!(full_of(&before), full_of(&after));
        // Another experiment in the same file is left alone too.
        let mut other = sample(1.0, 1.0);
        other.experiment = "other";
        record(&path, &scale(true), &other).unwrap();
        let third = std::fs::read_to_string(&path).unwrap();
        assert!(third.starts_with(after.trim_end().trim_end_matches('}').trim_end()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failing_expect_names_figure_relation_and_both_values() {
        let mut r = Report::new("fig5");
        let cols = [
            ("naive_s", "Naive", "s", Clock::Sim),
            ("scidp_s", "SciDP", "s", Clock::Sim),
        ];
        r.table(
            "",
            "timestamps",
            &cols,
            &[("16".to_string(), vec![951.25, 12.0])],
        );
        r.expect("16.naive_s", Rel::Gt, r.v("16.scidp_s"), "naive > SciDP");
        assert!(r.failures().is_empty());
        r.expect_all(&[
            ("16.scidp_s", Rel::Gt, r.v("16.naive_s"), "inverted"),
            ("16.missing", Rel::Le, 1.0, "no such row"),
        ]);
        r.deviation("D9", "16.naive_s", Rel::Lt, 100.0, "gone");
        r.check("output_identical", false, "bytes equal");
        let f = r.failures();
        assert_eq!(f.len(), 4, "{f:?}");
        assert_eq!(
            f[0],
            "fig5: expect failed: 16.scidp_s = 12 > 951.25 — inverted"
        );
        assert!(f[1].contains("16.missing = NaN <= 1"));
        assert!(f[2].contains("expected deviation D9 no longer shows") && f[2].contains("< 100"));
        assert!(f[3].contains("fig5: expect failed: output_identical = 0 == 1"));
        let text = r.render();
        assert!(
            text.contains("| timestamps | Naive (s) | SciDP (s) |"),
            "{text}"
        );
        assert!(
            text.contains("| 16         |       951 |      12.0 |"),
            "{text}"
        );
        assert!(
            text.contains("deviation D9: 16.naive_s = 951.25 < 100"),
            "{text}"
        );
        assert!(text.contains("targets: 1/5 hold"));
    }

    #[test]
    fn duplicate_row_names_fail_the_report() {
        let mut r = sample(1.0, 1.0);
        assert!(r.failures().is_empty());
        r.row("tasks", 0.0, "", Clock::Count);
        assert_eq!(r.failures().len(), 1, "whatever the duplicate's value");
        assert_eq!(slug("chunk-aligned (SciDP)"), "chunk_aligned_scidp");
        assert_eq!(scale(true).section(), "quick");
        // The fault seed is no precondition: it names no section of its own.
        let reseeded = Scale {
            fault_seed: 2,
            ..scale(false)
        };
        assert_eq!(reseeded.section(), "full");
    }
}
