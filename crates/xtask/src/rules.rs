//! The lint rules and the engine that runs them.
//!
//! Two layers (DESIGN.md §3.7):
//!
//! * **Token rules** match needles against the scrubbed text of one
//!   file (`no-unwrap`, `no-raw-sync`, …).
//! * **Semantic rules** run over the item model and workspace call
//!   graph built by [`crate::parser`] / [`crate::callgraph`]:
//!   `lock-order`, `no-panic-on-request-path`, `relaxed-justify` /
//!   `seqcst-justify` (statement-attached), and `wire-exhaustive`.
//!
//! Every rule reports findings as `file:line:col: rule: message`. A
//! finding is suppressed by an annotation comment
//!
//! ```text
//! // lint: allow(rule-name, free-text reason)
//! ```
//!
//! on the same line as the finding or on a comment line up to two lines
//! above it. The reason is mandatory — an allow without one is itself
//! reported (`malformed-allow`), and an allow that suppresses nothing
//! is reported under `--strict` (`unused-allow`), so suppressions stay
//! auditable in both directions. `#[cfg(test)]` regions (the attribute
//! plus the brace-matched item that follows) are exempt from every rule.

use crate::callgraph;
use crate::lexer::{scrub, Scrubbed};
use crate::model::{default_config, LockConfig};
use crate::parser::{self, FileModel, PanicKind, TokKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// 1-indexed column (byte offset within the line).
    pub col: usize,
    /// Rule identifier, e.g. `no-unwrap`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `file:line:col: rule: message` — editor-clickable.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// GitHub Actions annotation format (`::error file=…`).
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={},col={}::{}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// The stable identity used by `--baseline` comparison: message
    /// texts may be reworded, but file/line/rule identify a site.
    pub fn baseline_key(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.rule)
    }
}

/// Names of all rules, for `allow(..)` validation.
pub const RULES: &[&str] = &[
    "no-unwrap",
    "no-raw-sync",
    "relaxed-justify",
    "seqcst-justify",
    "no-truncating-cast",
    "no-raw-timing",
    "no-alloc-in-kernel",
    "no-global-engine-lock",
    "lock-order",
    "no-panic-on-request-path",
    "wire-exhaustive",
    "io-fallible",
];

/// The full lint result for a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Rule findings (unsuppressed).
    pub findings: Vec<Finding>,
    /// Valid allows that suppressed nothing (reported under `--strict`).
    pub unused_allows: Vec<Finding>,
}

/// A parsed `// lint: allow(rule, reason)` annotation.
struct Allow {
    /// Line the annotation comment sits on.
    line: usize,
    rule: String,
    has_reason: bool,
    /// Suppressed at least one finding.
    used: bool,
}

fn parse_allows(scrubbed: &Scrubbed) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &scrubbed.comments {
        // The annotation must *start* the comment — prose or docs that
        // merely mention the syntax (like this crate's own) don't count.
        let Some(rest) = c.text.strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            allows.push(Allow {
                line: c.line,
                rule: String::new(),
                has_reason: false,
                used: false,
            });
            continue;
        };
        let inner = &rest[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), !why.trim().is_empty()),
            None => (inner.trim().to_string(), false),
        };
        allows.push(Allow {
            line: c.line,
            rule,
            has_reason: reason,
            used: false,
        });
    }
    allows
}

/// Lines covered by `#[cfg(test)]` regions: the attribute line through
/// the end of the brace-matched block that follows it.
fn test_region_lines(code: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut offset = 0usize;
    let bytes = code.as_bytes();
    while let Some(found) = code[offset..].find("#[cfg(test)]") {
        let start = offset + found;
        let start_line = line_of(code, start);
        // Find the opening brace of the item the attribute decorates.
        let mut i = start;
        while i < bytes.len() && bytes[i] != b'{' {
            i += 1;
        }
        let mut depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let end_line = line_of(code, i.min(bytes.len().saturating_sub(1)));
        regions.push((start_line, end_line));
        offset = i.min(bytes.len());
        if offset <= start {
            break;
        }
    }
    regions
}

fn line_of(code: &str, byte: usize) -> usize {
    code.as_bytes()[..byte.min(code.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Byte offset → (line, col), both 1-indexed.
fn position(code: &str, byte: usize) -> (usize, usize) {
    let prefix = &code.as_bytes()[..byte.min(code.len())];
    let line = prefix.iter().filter(|&&b| b == b'\n').count() + 1;
    let col = byte
        - prefix
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1)
        + 1;
    (line, col)
}

/// Whether `path` (repo-relative, `/`-separated) is in scope for a rule.
struct Scope;

impl Scope {
    /// The panic-free zones: the serving layer, the core's facade,
    /// snapshot, query, and index modules, the data-ingest crates
    /// (`vkg-kg`, `vkg-embed`) whose IO/parse paths feed everything
    /// else, and the bench harness (a crashed load generator or
    /// experiment sweep loses the whole run's results).
    fn no_unwrap(path: &str) -> bool {
        path.starts_with("crates/server/src/")
            || path == "crates/core/src/vkg.rs"
            || path == "crates/core/src/snapshot.rs"
            || path.starts_with("crates/core/src/query/")
            || path.starts_with("crates/core/src/index/")
            || path.starts_with("crates/core/src/wal/")
            || path.starts_with("crates/kg/src/")
            || path.starts_with("crates/embed/src/")
            || path.starts_with("crates/bench/src/")
    }

    /// The durability path: IO results there are load-bearing — a
    /// discarded flush error becomes an acked-but-lost write.
    fn io_fallible(path: &str) -> bool {
        path.starts_with("crates/core/src/wal/")
    }

    /// Everything except `vkg-sync` itself (and vendored shims) must go
    /// through the facade for lock/atomic primitives. Only shipped code
    /// (`src/` trees) is in scope — integration tests may use std
    /// helpers like `Barrier` that the facade deliberately omits.
    fn no_raw_sync(path: &str) -> bool {
        path.starts_with("crates/") && !path.starts_with("crates/sync/") && path.contains("/src/")
    }

    /// Same scope as `no_raw_sync`: every `Ordering::Relaxed` in the
    /// product crates needs a written justification. `SeqCst` needs one
    /// too — outside `crates/sync`, whose model runtime legitimately
    /// sequentializes everything.
    fn ordering_justify(path: &str) -> bool {
        Self::no_raw_sync(path)
    }

    /// The fail-closed decode paths.
    fn wire_decode(path: &str) -> bool {
        path == "crates/server/src/wire.rs" || path == "crates/server/src/protocol.rs"
    }

    /// The wire-protocol opcode registry.
    fn wire_protocol(path: &str) -> bool {
        path == "crates/server/src/protocol.rs"
    }

    /// The per-call hot paths that must not allocate: the distance
    /// kernels and the pool's chunk-claim loop (DESIGN.md
    /// §3.4). Setup-time allocations are waived explicitly with
    /// `// lint: allow(no-alloc-in-kernel, …)`.
    fn alloc_free_kernel(path: &str) -> bool {
        path == "crates/core/src/geometry/kernels.rs" || path == "crates/sync/src/pool.rs"
    }

    /// All shipped code takes time through the `vkg_obs::Clock` seam
    /// (`Clock`/`Stopwatch`) so tests can mock it — except `vkg-obs`
    /// itself (the seam's implementation sits on `Instant`) and the
    /// bench binaries, whose open-loop pacing wants raw monotonic time.
    /// The wire-decode files are in scope like any other: a clock read
    /// inside the codec would also make decoding nondeterministic.
    fn no_raw_timing(path: &str) -> bool {
        path.starts_with("crates/")
            && path.contains("/src/")
            && !path.starts_with("crates/obs/src/")
            && !path.starts_with("crates/bench/src/bin/")
    }

    /// Every engine lock must live inside the shard router: a
    /// `RwLock<IndexState>` constructed anywhere else reintroduces the
    /// single global lock the sharded engine exists to remove.
    fn no_global_engine_lock(path: &str) -> bool {
        path.starts_with("crates/")
            && path.contains("/src/")
            && path != "crates/core/src/engine/shard.rs"
    }
}

/// Per-file state shared by every rule: the scrubbed text, allows with
/// use-tracking, test regions, and accumulated findings.
struct FileCtx {
    path: String,
    scrubbed: Scrubbed,
    allows: Vec<Allow>,
    test_regions: Vec<(usize, usize)>,
    findings: Vec<Finding>,
}

impl FileCtx {
    fn new(path: &str, src: &str) -> Self {
        let scrubbed = scrub(src);
        let allows = parse_allows(&scrubbed);
        let test_regions = test_region_lines(&scrubbed.code);
        FileCtx {
            path: path.to_string(),
            scrubbed,
            allows,
            test_regions,
            findings: Vec::new(),
        }
    }

    fn in_test_region(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| s <= line && line <= e)
    }

    /// Records a finding at byte offset `at` unless the line is inside
    /// a test region or suppressed by a valid allow on the same line or
    /// up to two lines above (allows that fire are marked used).
    fn push(&mut self, at: usize, rule: &'static str, message: String) {
        let (line, col) = position(&self.scrubbed.code, at);
        self.push_at(line, col, rule, message);
    }

    fn push_at(&mut self, line: usize, col: usize, rule: &'static str, message: String) {
        if self.in_test_region(line) {
            return;
        }
        if let Some(a) = self.allows.iter_mut().find(|a| {
            a.has_reason
                && a.rule == rule
                && (a.line == line || a.line + 1 == line || a.line + 2 == line)
        }) {
            a.used = true;
            return;
        }
        self.findings.push(Finding {
            file: self.path.clone(),
            line,
            col,
            rule,
            message,
        });
    }
}

/// Lints a set of files as one workspace: per-file token and semantic
/// rules, then the cross-file call-graph rules. `design` is the text of
/// DESIGN.md when available (the wire-exhaustiveness doc check is
/// skipped without it, e.g. under `--self-test`).
pub fn lint_files(
    files: &[(String, String)],
    cfg: &LockConfig,
    design: Option<&str>,
) -> LintReport {
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut models: Vec<FileModel> = Vec::new();
    for (path, src) in files {
        let ctx = FileCtx::new(path, src);
        models.push(parser::parse(path, &ctx.scrubbed.code));
        ctxs.push(ctx);
    }
    for (ctx, model) in ctxs.iter_mut().zip(&models) {
        file_rules(ctx, model, cfg, design);
    }
    graph_rules(&mut ctxs, &models, cfg);

    let mut report = LintReport::default();
    for ctx in ctxs {
        for a in &ctx.allows {
            let valid = a.has_reason && RULES.contains(&a.rule.as_str());
            if valid && !a.used && !ctx.in_test_region(a.line) {
                report.unused_allows.push(Finding {
                    file: ctx.path.clone(),
                    line: a.line,
                    col: 1,
                    rule: "unused-allow",
                    message: format!(
                        "`lint: allow({}, ..)` suppresses nothing; delete it so the \
                         audit trail stays honest",
                        a.rule
                    ),
                });
            }
        }
        report.findings.extend(ctx.findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report
}

/// Runs every rule over one file in isolation (unit-test and fixture
/// convenience; the semantic rules see a one-file workspace with the
/// embedded `lockorder.toml`).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let files = vec![(rel_path.to_string(), src.to_string())];
    lint_files(&files, &default_config(), None).findings
}

fn file_rules(ctx: &mut FileCtx, model: &FileModel, cfg: &LockConfig, design: Option<&str>) {
    // Malformed allows are findings themselves, never suppressions.
    let mut malformed = Vec::new();
    for a in &ctx.allows {
        if a.rule.is_empty() || !a.has_reason {
            malformed.push((
                a.line,
                "lint: allow(rule, reason) requires both a rule and a reason".to_string(),
            ));
        } else if !RULES.contains(&a.rule.as_str()) {
            malformed.push((
                a.line,
                format!("unknown rule `{}` in lint: allow(..)", a.rule),
            ));
        }
    }
    for (line, message) in malformed {
        ctx.findings.push(Finding {
            file: ctx.path.clone(),
            line,
            col: 1,
            rule: "malformed-allow",
            message,
        });
    }

    let rel_path = ctx.path.clone();
    let code = ctx.scrubbed.code.clone();

    if Scope::no_unwrap(&rel_path) {
        for (needle, what) in [
            (".unwrap()", "unwrap() can panic"),
            (".expect(", "expect() can panic"),
            ("panic!", "panic! aborts the worker"),
            ("unreachable!", "unreachable! aborts the worker"),
            ("todo!", "todo! aborts the worker"),
        ] {
            for at in find_all(&code, needle) {
                ctx.push(
                    at,
                    "no-unwrap",
                    format!(
                        "{what}; return a typed error instead, or annotate with \
                         `// lint: allow(no-unwrap, why it cannot fire)`"
                    ),
                );
            }
        }
    }

    if Scope::io_fallible(&rel_path) {
        io_fallible_rule(ctx);
    }

    if Scope::no_raw_sync(&rel_path) {
        for primitive in [
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
            "std::sync::Barrier",
            "std::sync::atomic",
            "parking_lot",
        ] {
            for at in find_all(&code, primitive) {
                ctx.push(
                    at,
                    "no-raw-sync",
                    format!(
                        "direct use of `{primitive}`; go through `vkg_sync` so model \
                         checking sees this synchronization"
                    ),
                );
            }
        }
        // Grouped imports: `use std::sync::{…, Mutex, …}`.
        for at in find_all(&code, "use std::sync::{") {
            let rest = &code[at..code.len().min(at + 200)];
            let inner_end = rest.find('}').unwrap_or(rest.len());
            let inner = &rest[..inner_end];
            for primitive in ["Mutex", "RwLock", "Condvar", "Barrier"] {
                if contains_word(inner, primitive) {
                    ctx.push(
                        at,
                        "no-raw-sync",
                        format!(
                            "`{primitive}` imported from `std::sync`; go through \
                             `vkg_sync` so model checking sees this synchronization"
                        ),
                    );
                }
            }
        }
    }

    if Scope::ordering_justify(&rel_path) {
        ordering_rules(ctx, model);
    }

    if Scope::no_global_engine_lock(&rel_path) {
        for needle in [
            "RwLock<IndexState",
            "RwLock::new(IndexState",
            "RwLock::with_name(IndexState",
        ] {
            for at in find_all(&code, needle) {
                ctx.push(
                    at,
                    "no-global-engine-lock",
                    "engine state must be locked per shard; construct IndexState locks \
                     only inside the shard router (crates/core/src/engine/shard.rs)"
                        .to_string(),
                );
            }
        }
    }

    if Scope::wire_decode(&rel_path) {
        for narrow in [
            " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
        ] {
            for at in find_all(&code, narrow) {
                // Make sure the match is the whole cast target (` as u8`
                // must not fire inside ` as u864`-like idents — none
                // exist, but stay principled).
                let end = at + narrow.len();
                if code.as_bytes().get(end).copied().is_some_and(is_ident_byte) {
                    continue;
                }
                ctx.push(
                    at + 1,
                    "no-truncating-cast",
                    format!(
                        "truncating `{}` cast in a decode path; use `try_from` with a \
                         typed error, or annotate with the bound that makes it safe",
                        narrow.trim()
                    ),
                );
            }
        }
    }

    if Scope::wire_protocol(&rel_path) {
        wire_exhaustive(ctx, model, design);
    }

    if Scope::no_raw_timing(&rel_path) {
        for needle in ["Instant::now(", "SystemTime::now("] {
            for at in find_all(&code, needle) {
                ctx.push(
                    at,
                    "no-raw-timing",
                    format!(
                        "`{needle}..)` bypasses the clock seam; take time via \
                         `vkg_obs::Clock`/`Stopwatch` so tests can mock it, or annotate \
                         with `// lint: allow(no-raw-timing, why raw time is required)`"
                    ),
                );
            }
        }
    }

    if Scope::alloc_free_kernel(&rel_path) {
        alloc_rules(ctx, model);
    }

    let _ = cfg;
}

/// `relaxed-justify` / `seqcst-justify` v2: statement-attached. Every
/// `Ordering::Relaxed` operand needs a `// relaxed:` comment between
/// the start of its statement (minus two lines, for wrapped comments)
/// and the operand's line — and after the previous atomic operand of
/// the statement, so each operand is justified individually. `SeqCst`
/// outside `crates/sync` needs a `// seqcst:` comment the same way.
fn ordering_rules(ctx: &mut FileCtx, model: &FileModel) {
    let code = ctx.scrubbed.code.clone();
    let toks = &model.toks;
    // Contiguous comment lines form one block; a block justifies an
    // operand when it carries the marker anywhere in its text and ends
    // inside the attachment window (so a wrapped multi-line comment
    // attaches by where it *ends*, not where the marker happens to sit).
    struct Block {
        start: usize,
        end: usize,
        relaxed: bool,
        seqcst: bool,
    }
    let mut blocks: Vec<Block> = Vec::new();
    for c in &ctx.scrubbed.comments {
        match blocks.last_mut() {
            Some(b) if b.end + 1 >= c.line && b.end <= c.line => {
                b.end = c.line;
                b.relaxed |= c.text.contains("relaxed:");
                b.seqcst |= c.text.contains("seqcst:");
            }
            _ => blocks.push(Block {
                start: c.line,
                end: c.line,
                relaxed: c.text.contains("relaxed:"),
                seqcst: c.text.contains("seqcst:"),
            }),
        }
    }
    let mut stmt_start_line = 1usize;
    let mut pending_stmt = true;
    let mut prev_operand_line = 0usize;
    let mut sites: Vec<(usize, usize, bool, usize)> = Vec::new(); // (at, line, is_seqcst, window_lo)
    for i in 0..toks.len() {
        let t = toks[i];
        let text = &code[t.start..t.end];
        if t.kind == TokKind::Punct && matches!(text, ";" | "{" | "}") {
            pending_stmt = true;
            prev_operand_line = 0;
            continue;
        }
        if pending_stmt {
            // The window opens two lines before the statement so a
            // wrapped two-line justification comment still attaches.
            stmt_start_line = t.line;
            pending_stmt = false;
        }
        if t.kind == TokKind::Ident
            && text == "Ordering"
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Punct
            && &code[toks[i + 1].start..toks[i + 1].end] == "::"
            && toks[i + 2].kind == TokKind::Ident
        {
            let which = &code[toks[i + 2].start..toks[i + 2].end];
            let line = toks[i + 2].line;
            // A previous justified operand closes the window behind it —
            // unless it sits on the same line (one comment may cover
            // both orderings of a one-line compare_exchange). Acquire/
            // Release operands need no comment and consume nothing.
            let eff_prev = if prev_operand_line < line {
                prev_operand_line
            } else {
                0
            };
            let lo = stmt_start_line.saturating_sub(2).max(eff_prev);
            match which {
                "Relaxed" => sites.push((t.start, line, false, lo)),
                "SeqCst" => sites.push((t.start, line, true, lo)),
                _ => continue,
            }
            prev_operand_line = line;
        }
    }
    for (at, line, is_seqcst, lo) in sites {
        let justified = blocks.iter().any(|b| {
            let marked = if is_seqcst { b.seqcst } else { b.relaxed };
            marked && b.end >= lo && b.start <= line
        });
        if justified {
            continue;
        }
        if is_seqcst {
            ctx.push(
                at,
                "seqcst-justify",
                "Ordering::SeqCst outside crates/sync without a `// seqcst: <why total \
                 order is required>` comment attached to this statement; prefer \
                 Acquire/Release with an invariant, or justify the fence"
                    .to_string(),
            );
        } else {
            ctx.push(
                at,
                "relaxed-justify",
                "Ordering::Relaxed without a `// relaxed: <why no ordering is needed>` \
                 comment attached to this statement (each Relaxed operand needs its own)"
                    .to_string(),
            );
        }
    }
}

/// `io-fallible`: on the durability path, the `Result` of file IO
/// (`flush`, `write_all`, `sync_all`/`sync_data`, `set_len`) must be
/// propagated, not discarded — `let _ = file.flush()` (or `.ok()`)
/// turns a failed flush into an acked-but-lost write. The check is
/// statement-scoped: an IO call whose enclosing statement discards its
/// result fires; one whose result flows onward (`?`, `match`, binding
/// to a used name) does not.
fn io_fallible_rule(ctx: &mut FileCtx) {
    const IO_CALLS: &[&str] = &[
        ".flush(",
        ".write_all(",
        ".sync_all(",
        ".sync_data(",
        ".set_len(",
    ];
    let code = ctx.scrubbed.code.clone();
    let bytes = code.as_bytes();
    for needle in IO_CALLS {
        for at in find_all(&code, needle) {
            // The enclosing statement: from just past the previous
            // `;`/`{`/`}` through the terminating `;`.
            let start = bytes[..at]
                .iter()
                .rposition(|&b| matches!(b, b';' | b'{' | b'}'))
                .map_or(0, |p| p + 1);
            // Stop forward at a brace too: `match file.flush() { .. }`
            // hands its result onward and must not absorb the next
            // statement's text.
            let end = code[at..]
                .find([';', '{', '}'])
                .map_or(code.len(), |p| at + p);
            let stmt = &code[start..end];
            if stmt.contains("let _ =") || stmt.contains(".ok()") {
                ctx.push(
                    at,
                    "io-fallible",
                    format!(
                        "result of `{}..)` is discarded on the durability path; a \
                         swallowed IO error here acks a write the disk never took — \
                         propagate it (or annotate with `// lint: allow(io-fallible, \
                         why the loss is safe)`)",
                        needle
                    ),
                );
            }
        }
    }
}

/// `no-alloc-in-kernel`, token-aware: `.collect()`, `.to_vec()` (both
/// including turbofish forms like `.collect::<Vec<u32>>()`), and
/// `Vec::new`.
fn alloc_rules(ctx: &mut FileCtx, model: &FileModel) {
    let code = ctx.scrubbed.code.clone();
    let toks = &model.toks;
    let txt = |i: usize| -> &str { toks.get(i).map(|t| &code[t.start..t.end]).unwrap_or("") };
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let name = txt(i);
        let method = i > 0 && txt(i - 1) == ".";
        if method && matches!(name, "collect" | "to_vec") {
            ctx.push(
                tok.start,
                "no-alloc-in-kernel",
                format!(
                    "`.{name}(..)` allocates inside a hot kernel/steal-loop file; hoist \
                     the allocation to the caller, or annotate a sanctioned setup \
                     cost with `// lint: allow(no-alloc-in-kernel, why)`"
                ),
            );
        }
        if name == "Vec" && txt(i + 1) == "::" && txt(i + 2) == "new" {
            ctx.push(
                tok.start,
                "no-alloc-in-kernel",
                "`Vec::new` allocates inside a hot kernel/steal-loop file; hoist \
                 the allocation to the caller, or annotate a sanctioned setup \
                 cost with `// lint: allow(no-alloc-in-kernel, why)`"
                    .to_string(),
            );
        }
    }
}

/// `wire-exhaustive`: every `u8` opcode constant in `mod op` must be
/// matched in a `decode` function of the same file, and (when DESIGN.md
/// is supplied) documented there.
fn wire_exhaustive(ctx: &mut FileCtx, model: &FileModel, design: Option<&str>) {
    let code = ctx.scrubbed.code.clone();
    // Idents appearing in any non-test `decode` body.
    let mut decode_idents: Vec<&str> = Vec::new();
    for f in &model.fns {
        if f.name != "decode" || f.is_test {
            continue;
        }
        for t in &model.toks[f.body.0..f.body.1.min(model.toks.len())] {
            if t.kind == TokKind::Ident {
                decode_idents.push(&code[t.start..t.end]);
            }
        }
    }
    for c in &model.consts {
        if !c.is_u8 || c.mods.last().map(String::as_str) != Some("op") {
            continue;
        }
        if !decode_idents.iter().any(|i| *i == c.name) {
            ctx.push_at(
                c.line,
                1,
                "wire-exhaustive",
                format!(
                    "opcode `op::{}` is declared but matched in no `decode` fn; a frame \
                     carrying it would fail as UnknownOpcode despite being a declared \
                     message",
                    c.name
                ),
            );
        }
        if let Some(doc) = design {
            if !contains_word(doc, &c.name) {
                ctx.push_at(
                    c.line,
                    1,
                    "wire-exhaustive",
                    format!("opcode `op::{}` is not documented in DESIGN.md", c.name),
                );
            }
        }
    }
}

/// Cross-file rules: lock-order and the request-path panic audit.
fn graph_rules(ctxs: &mut [FileCtx], models: &[FileModel], cfg: &LockConfig) {
    let analysis = callgraph::analyze(models, cfg);
    fn idx_of(ctxs: &[FileCtx], file: &str) -> Option<usize> {
        ctxs.iter().position(|c| c.path == file)
    }

    for v in &analysis.lock_violations {
        let Some(i) = idx_of(ctxs, &v.file) else {
            continue;
        };
        ctxs[i].push(
            v.at,
            "lock-order",
            format!(
                "acquires `{}` while holding `{}`, against the declared DAG \
                 (crates/xtask/lockorder.toml); static acquisition path: {}",
                v.to,
                v.from,
                v.path.join(" -> ")
            ),
        );
    }

    for p in &analysis.panics {
        // Unwrap/expect/panic-macro sites inside the token-level
        // `no-unwrap` scope are already policed (and justified) there;
        // this rule adds reachability context for everything else —
        // notably `[]`-indexing, and whole files (crates/core/src/
        // engine/) the token rule does not cover.
        let covered_by_no_unwrap = Scope::no_unwrap(&p.file)
            && matches!(
                p.kind,
                PanicKind::Unwrap | PanicKind::Expect | PanicKind::Macro
            );
        if covered_by_no_unwrap {
            continue;
        }
        let Some(i) = idx_of(ctxs, &p.file) else {
            continue;
        };
        ctxs[i].push(
            p.at,
            "no-panic-on-request-path",
            format!(
                "{} can panic and is reachable from request entry `{}` (static call \
                 path: {}); return a typed error, restructure without the panic \
                 source, or annotate with `// lint: allow(no-panic-on-request-path, \
                 why it cannot fire)`",
                p.what,
                p.chain.first().map(String::as_str).unwrap_or("?"),
                p.chain.join(" -> ")
            ),
        );
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut offset = 0;
    while let Some(at) = haystack[offset..].find(needle) {
        out.push(offset + at);
        offset += at + needle.len();
    }
    out
}

fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut offset = 0;
    while let Some(at) = text[offset..].find(word) {
        let start = offset + at;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        offset = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_flagged_in_scope_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_source("crates/server/src/server.rs", src).len(), 1);
        assert_eq!(lint_source("crates/core/src/engine.rs", src).len(), 0);
        assert_eq!(lint_source("crates/core/src/query/topk.rs", src).len(), 1);
        assert_eq!(lint_source("crates/bench/src/workload.rs", src).len(), 1);
        assert_eq!(
            lint_source("crates/bench/src/bin/serve_load.rs", src).len(),
            1
        );
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f() {\n    // lint: allow(no-unwrap, infallible: len checked above)\n    x.unwrap();\n}\n";
        assert_eq!(lint_source("crates/server/src/server.rs", src), vec![]);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn f() {\n    // lint: allow(no-unwrap)\n    x.unwrap();\n}\n";
        let f = lint_source("crates/server/src/server.rs", src);
        assert!(f.iter().any(|f| f.rule == "malformed-allow"));
        assert!(f.iter().any(|f| f.rule == "no-unwrap"), "not suppressed");
    }

    #[test]
    fn unknown_rule_in_allow_is_a_finding() {
        let src = "// lint: allow(no-such-rule, because)\nfn f() {}\n";
        let f = lint_source("crates/server/src/server.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "malformed-allow");
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); panic!(\"t\"); }\n}\n";
        assert_eq!(lint_source("crates/server/src/server.rs", src), vec![]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"x.unwrap()\"; } // panic! here\n";
        assert_eq!(lint_source("crates/server/src/server.rs", src), vec![]);
    }

    #[test]
    fn raw_sync_imports_flagged() {
        let grouped = "use std::sync::{Arc, Mutex};\n";
        let f = lint_source("crates/core/src/vkg.rs", grouped);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-raw-sync");
        let arc_only = "use std::sync::{Arc, PoisonError};\nuse std::sync::mpsc;\n";
        assert_eq!(lint_source("crates/core/src/vkg.rs", arc_only), vec![]);
        let pl = "use parking_lot::RwLock;\n";
        assert_eq!(lint_source("crates/core/src/vkg.rs", pl).len(), 1);
        assert_eq!(lint_source("crates/sync/src/passthrough.rs", pl), vec![]);
    }

    #[test]
    fn io_fallible_statement_scoped_on_durability_path() {
        let discard = "fn f(file: &mut std::fs::File) {\n    let _ = file.flush();\n}\n";
        let f = lint_source("crates/core/src/wal/mod.rs", discard);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "io-fallible");
        let swallow = "fn f(file: &mut std::fs::File) {\n    file.sync_data().ok();\n}\n";
        assert_eq!(lint_source("crates/core/src/wal/mod.rs", swallow).len(), 1);
        let propagated = "fn f(file: &mut std::fs::File) -> std::io::Result<()> {\n    \
                          file.flush()?;\n    Ok(())\n}\n";
        assert_eq!(
            lint_source("crates/core/src/wal/mod.rs", propagated),
            vec![]
        );
        // A `match` hands the result onward; the statement scan must
        // not absorb a later statement's discard.
        let matched = "fn f(file: &mut std::fs::File) -> bool {\n    \
                       match file.flush() {\n    Ok(()) => true,\n    Err(_) => false,\n    }\n}\n\
                       fn g() { let _ = 1; }\n";
        assert_eq!(lint_source("crates/core/src/wal/mod.rs", matched), vec![]);
        // Out of scope: the same discard off the durability path is
        // someone else's judgement call.
        assert_eq!(lint_source("crates/server/src/server.rs", discard), vec![]);
    }

    #[test]
    fn relaxed_needs_justification() {
        let bare = "fn f(a: &A) { a.x.load(Ordering::Relaxed); }\n";
        let f = lint_source("crates/server/src/queue.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "relaxed-justify");
        let justified =
            "fn f(a: &A) {\n    // relaxed: pure statistic\n    a.x.load(Ordering::Relaxed);\n}\n";
        assert_eq!(lint_source("crates/server/src/queue.rs", justified), vec![]);
        let same_line = "fn f(a: &A) { a.x.load(Ordering::Relaxed); // relaxed: stat\n}\n";
        assert_eq!(lint_source("crates/server/src/queue.rs", same_line), vec![]);
    }

    #[test]
    fn relaxed_justification_is_statement_attached() {
        // A justification does not leak past its two-line attachment
        // window into later statements.
        let leaky = "fn f(a: &A) {\n\
                     // relaxed: stat\n\
                     a.x.load(Ordering::Relaxed);\n\
                     let y = 1;\n\
                     let z = y;\n\
                     a.y.load(Ordering::Relaxed);\n\
                     }\n";
        let f = lint_source("crates/server/src/queue.rs", leaky);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        // Every operand of one long statement needs its own comment
        // *after* the previous operand …
        let struct_lit = "fn f(a: &A) -> S {\n\
                          S {\n\
                          // relaxed: stat one\n\
                          x: a.x.load(Ordering::Relaxed),\n\
                          y: a.y.load(Ordering::Relaxed),\n\
                          }\n\
                          }\n";
        let f = lint_source("crates/server/src/queue.rs", struct_lit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        // … and is clean when each one has it.
        let each = "fn f(a: &A) -> S {\n\
                    S {\n\
                    // relaxed: stat one\n\
                    x: a.x.load(Ordering::Relaxed),\n\
                    // relaxed: stat two\n\
                    y: a.y.load(Ordering::Relaxed),\n\
                    }\n\
                    }\n";
        assert_eq!(lint_source("crates/server/src/queue.rs", each), vec![]);
    }

    #[test]
    fn seqcst_needs_justification_outside_sync() {
        let bare = "fn f(a: &A) { a.x.store(true, Ordering::SeqCst); }\n";
        let f = lint_source("crates/server/src/server.rs", bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "seqcst-justify");
        let justified = "fn f(a: &A) {\n    // seqcst: drain flag must totally order with admits\n    a.x.store(true, Ordering::SeqCst);\n}\n";
        assert_eq!(
            lint_source("crates/server/src/server.rs", justified),
            vec![]
        );
        // crates/sync may SeqCst freely (the model runtime is built on it).
        assert_eq!(lint_source("crates/sync/src/model.rs", bare), vec![]);
        // Acquire/Release need no comment anywhere.
        let acqrel =
            "fn f(a: &A) { a.x.load(Ordering::Acquire); a.x.store(1, Ordering::Release); }\n";
        assert_eq!(lint_source("crates/server/src/queue.rs", acqrel), vec![]);
    }

    #[test]
    fn truncating_casts_only_in_decode_files() {
        let src = "fn f(x: usize) -> u32 { x as u32 }\n";
        let f = lint_source("crates/server/src/wire.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-truncating-cast");
        assert_eq!(lint_source("crates/server/src/server.rs", src), vec![]);
        // Widening casts are fine even in decode files.
        let widen = "fn f(x: u32) -> u64 { x as u64 }\n";
        assert_eq!(lint_source("crates/server/src/wire.rs", widen), vec![]);
    }

    #[test]
    fn instant_now_flagged_in_decode_files() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let f = lint_source("crates/server/src/protocol.rs", src);
        // The clock-seam rule also keeps the codec deterministic.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-raw-timing");
    }

    #[test]
    fn raw_timing_flagged_outside_clock_seam() {
        let src = "fn f() { let t = Instant::now(); let w = SystemTime::now(); }\n";
        let f = lint_source("crates/core/src/engine/shard.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "no-raw-timing"));
        // The seam's own implementation and the bench binaries are out
        // of scope; integration tests under `tests/` are too.
        assert_eq!(lint_source("crates/obs/src/clock.rs", src), vec![]);
        assert_eq!(
            lint_source("crates/bench/src/bin/serve_load.rs", src),
            vec![]
        );
        assert_eq!(lint_source("tests/end_to_end.rs", src), vec![]);
        let allowed =
            "fn f() {\n    // lint: allow(no-raw-timing, pacing needs raw monotonic time)\n    \
                       let t = Instant::now();\n}\n";
        assert_eq!(
            lint_source("crates/core/src/engine/shard.rs", allowed),
            vec![]
        );
    }

    #[test]
    fn alloc_flagged_in_kernel_files_only() {
        let src = "fn f() { let v: Vec<u32> = it.collect(); let w = s.to_vec(); }\n";
        let f = lint_source("crates/core/src/geometry/kernels.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "no-alloc-in-kernel"));
        assert_eq!(lint_source("crates/sync/src/pool.rs", src).len(), 2);
        assert_eq!(
            lint_source("crates/core/src/geometry/points.rs", src),
            vec![]
        );
        let allowed = "fn f() {\n    // lint: allow(no-alloc-in-kernel, slot setup)\n    \
                       let v = Vec::new();\n}\n";
        assert_eq!(
            lint_source("crates/core/src/geometry/kernels.rs", allowed),
            vec![]
        );
    }

    #[test]
    fn alloc_rule_sees_through_turbofish() {
        // The lexer-gap satellite: `.collect::<Vec<u32>>()` must fire
        // exactly like `.collect()` (the old needle missed it).
        let src = "fn f() { let v = it.collect::<Vec<u32>>(); }\n";
        let f = lint_source("crates/core/src/geometry/kernels.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-alloc-in-kernel");
    }

    #[test]
    fn lock_order_inversion_flagged_with_path() {
        let src = "impl E {\n\
                   fn bad(&self) {\n\
                   let log = self.crack_log.lock();\n\
                   let s = self.state.write();\n\
                   }\n\
                   }\n";
        let f = lint_source("crates/core/src/engine/shard.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-order");
        assert!(f[0].message.contains("vkg.cracklog"), "{}", f[0].message);
        assert!(f[0].message.contains("E::bad"), "{}", f[0].message);
        // The sanctioned order is clean.
        let ok = "impl E {\n\
                  fn good(&self) {\n\
                  let s = self.state.write();\n\
                  let log = self.crack_log.lock();\n\
                  }\n\
                  }\n";
        assert_eq!(lint_source("crates/core/src/engine/shard.rs", ok), vec![]);
    }

    #[test]
    fn request_path_panic_flagged_with_chain() {
        let src = "fn worker_loop() { helper(); }\n\
                   fn helper(xs: &[u32]) -> u32 { xs[0] }\n\
                   fn not_reachable(ys: &[u32]) -> u32 { ys[1] }\n";
        let f = lint_source("crates/server/src/server.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic-on-request-path");
        assert_eq!(f[0].line, 2);
        assert!(
            f[0].message.contains("worker_loop -> helper"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn wire_exhaustive_checks_decode_and_design() {
        let src = "pub mod op {\n\
                   pub const A: u8 = 0x01;\n\
                   pub const B: u8 = 0x02;\n\
                   }\n\
                   impl Request {\n\
                   pub fn decode(x: u8) -> Option<u8> { match x { op::A => Some(x), _ => None } }\n\
                   }\n";
        let files = vec![("crates/server/src/protocol.rs".to_string(), src.to_string())];
        // Without DESIGN.md: only the decode check runs.
        let f = lint_files(&files, &default_config(), None).findings;
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wire-exhaustive");
        assert_eq!(f[0].line, 3, "B is the undecodable opcode");
        // With DESIGN.md mentioning only A, B is flagged twice.
        let f = lint_files(&files, &default_config(), Some("opcode A is documented")).findings;
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "wire-exhaustive" && x.line == 3));
    }

    #[test]
    fn unused_allow_surfaces_in_report() {
        let src = "fn f() {\n    // lint: allow(no-unwrap, stale reason)\n    let x = 1;\n}\n";
        let files = vec![("crates/server/src/server.rs".to_string(), src.to_string())];
        let report = lint_files(&files, &default_config(), None);
        assert!(report.findings.is_empty());
        assert_eq!(report.unused_allows.len(), 1, "{:?}", report.unused_allows);
        assert_eq!(report.unused_allows[0].rule, "unused-allow");
        // A used allow is not reported.
        let src = "fn f() {\n    // lint: allow(no-unwrap, checked)\n    x.unwrap();\n}\n";
        let files = vec![("crates/server/src/server.rs".to_string(), src.to_string())];
        let report = lint_files(&files, &default_config(), None);
        assert!(report.findings.is_empty() && report.unused_allows.is_empty());
    }

    #[test]
    fn finding_renders_clickable_and_github() {
        let f = Finding {
            file: "crates/server/src/wire.rs".into(),
            line: 7,
            col: 3,
            rule: "no-unwrap",
            message: "boom".into(),
        };
        assert_eq!(f.render(), "crates/server/src/wire.rs:7:3: no-unwrap: boom");
        assert!(f
            .render_github()
            .starts_with("::error file=crates/server/src/wire.rs,line=7"));
        assert_eq!(f.baseline_key(), "crates/server/src/wire.rs:7:no-unwrap");
    }
}
