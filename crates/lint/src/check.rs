//! The checker: runs the active lints over one lexed source file.
//!
//! Pipeline per file: lex → locate `#[cfg(test)]`/`#[test]` regions →
//! parse suppression directives from comments → scan tokens for each
//! active v1 lint → parse the AST and run the v2 structural analyses →
//! apply suppressions → report unused directives.
//!
//! # Single-file vs. workspace facts
//!
//! Most lints resolve within one file, but **lock-order** needs the
//! whole crate's acquisition graph: an A→B edge in one file is only a
//! deadlock when some other file holds B while taking A. So the checker
//! has two entry points: [`check_source_facts`] returns the resolved
//! findings *plus* the file's lock edges and its pending `lock-order`
//! suppressions (for the workspace scan to finish the job), while
//! [`check_source`] — the single-file convenience — resolves lock-order
//! against the file's own edges alone.
//!
//! # Suppression directives
//!
//! ```text
//! // jouppi-lint: allow(<lint>) — <reason>
//! // jouppi-lint: allow-file(<lint>) — <reason>
//! ```
//!
//! A trailing `allow` applies to findings on its own line; a standalone
//! `allow` (nothing but whitespace before it) applies to the next line
//! of code. `allow-file` covers the whole file. The reason is required —
//! a directive without one is itself a finding (`bad-suppression`), and
//! a directive that suppresses nothing is `unused-suppression`. The
//! separator before the reason may be `—`, `–`, `-`, or `:`.

use std::time::{Duration, Instant};

use crate::analyses::{self, GuardedCall, LockEdge};
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::lint::{Finding, LintId};
use crate::parser::{parse, Ast};
use crate::policy::{lints_for, FileContext};

/// Lints that only resolve once the whole workspace is assembled: the
/// crate-wide lock graph, plus the four call-graph analyses. Their
/// suppression directives stay pending through phase one.
pub const WORKSPACE_LINTS: [LintId; 5] = [
    LintId::LockOrder,
    LintId::PanicReachability,
    LintId::TransitivePurity,
    LintId::UntrustedSizeTaint,
    LintId::LockHeldAcrossCall,
];

/// Everything the workspace scan needs from one file: its resolved
/// findings plus the facts that only resolve workspace-wide.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    /// Findings from every single-file lint, suppressed and sorted.
    pub findings: Vec<Finding>,
    /// Nested-acquisition edges (outside test regions) for the crate's
    /// lock graph.
    pub lock_edges: Vec<LockEdge>,
    /// Calls captured under a live guard (outside test regions), for the
    /// workspace lock-held-across-call pass.
    pub guarded_calls: Vec<GuardedCall>,
    /// The parsed AST, retained when any call-graph lint is active so
    /// the workspace scan can build the graph without re-parsing.
    pub ast: Option<Ast>,
    /// `#[cfg(test)]`/`#[test]` line ranges (graph nodes exclude them).
    pub test_ranges: Vec<(u32, u32)>,
    /// Suppression directives naming a workspace lint, held open until
    /// the workspace phases resolve.
    pub pending: Vec<PendingSuppression>,
    /// Wall-clock cost per stage, for the `--timings` report.
    pub timings: Vec<(&'static str, Duration)>,
}

/// A workspace-lint suppression awaiting cross-file resolution.
#[derive(Clone, Debug)]
pub struct PendingSuppression {
    /// Line of the directive comment.
    pub line: u32,
    /// The workspace lints the directive names.
    pub lints: Vec<LintId>,
    /// Whether the directive is `allow-file`.
    pub file_scope: bool,
    /// For line directives: the line a finding must be on to match.
    pub target_line: Option<u32>,
    /// Whether the directive already suppressed something (its other
    /// named lints may have matched in phase one).
    pub used: bool,
}

impl PendingSuppression {
    /// Whether this directive covers a `lint` finding on `line`.
    pub fn covers(&self, lint: LintId, line: u32) -> bool {
        self.lints.contains(&lint) && (self.file_scope || self.target_line == Some(line))
    }
}

/// The unused-suppression finding for a pending directive that never
/// matched.
pub fn unused_pending(p: &PendingSuppression) -> Finding {
    Finding {
        line: p.line,
        lint: LintId::UnusedSuppression,
        message: format!(
            "suppression for `{}` matches no finding — delete it",
            p.lints
                .iter()
                .map(|l| l.name())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Checks one source file, returning findings sorted by line.
/// Lock-order cycles are resolved against this file's edges alone; the
/// workspace scan resolves them crate-wide instead.
pub fn check_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    let mut facts = check_source_facts(ctx, src);
    let tagged: Vec<(String, LockEdge)> = facts
        .lock_edges
        .iter()
        .map(|e| (ctx.rel_path.clone(), e.clone()))
        .collect();
    for (_, finding) in analyses::lock_order_findings(&tagged) {
        if !suppress_pending(&mut facts.pending, LintId::LockOrder, finding.line) {
            facts.findings.push(finding);
        }
    }
    // The interprocedural lints cannot resolve from one file; only a
    // directive that names nothing else is knowably unused here.
    for p in &facts.pending {
        if !p.used && p.lints.iter().all(|&l| l == LintId::LockOrder) {
            facts.findings.push(unused_pending(p));
        }
    }
    facts.findings.sort_by_key(|f| (f.line, f.lint.name()));
    facts.findings
}

/// Marks the first pending suppression covering a `lint` finding on
/// `line` used; returns whether one matched.
pub fn suppress_pending(pending: &mut [PendingSuppression], lint: LintId, line: u32) -> bool {
    for p in pending.iter_mut() {
        if p.covers(lint, line) {
            p.used = true;
            return true;
        }
    }
    false
}

/// Checks one source file, returning findings plus cross-file facts.
pub fn check_source_facts(ctx: &FileContext, src: &str) -> FileFacts {
    let active = lints_for(ctx);
    if active.is_empty() {
        // Test files: nothing applies, including directive hygiene.
        return FileFacts::default();
    }
    let mut timings = Vec::new();
    let t0 = Instant::now();
    let lexed = lex(src);
    let test_ranges = test_regions(&lexed.tokens);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let (mut directives, mut findings) = parse_directives(&lexed, &in_test);

    for &lint in &active {
        scan_lint(lint, &lexed, &in_test, &mut findings);
    }
    timings.push(("lex+v1-lints", t0.elapsed()));

    let needs_ast = active.iter().any(|l| {
        matches!(
            l,
            LintId::LockOrder
                | LintId::BlockingUnderLock
                | LintId::UnboundedGrowth
                | LintId::PanicReachability
                | LintId::TransitivePurity
                | LintId::UntrustedSizeTaint
                | LintId::LockHeldAcrossCall
        )
    });
    let graph_lints = active.iter().any(|l| {
        matches!(
            l,
            LintId::PanicReachability
                | LintId::TransitivePurity
                | LintId::UntrustedSizeTaint
                | LintId::LockHeldAcrossCall
        )
    });
    let mut lock_edges = Vec::new();
    let mut guarded_calls = Vec::new();
    let mut kept_ast = None;
    if needs_ast {
        let t0 = Instant::now();
        let ast = parse(&lexed);
        timings.push(("parse", t0.elapsed()));
        let out = analyses::run(&active, &ast);
        findings.extend(out.findings.into_iter().filter(|f| !in_test(f.line)));
        lock_edges = out
            .lock_edges
            .into_iter()
            .filter(|e| !in_test(e.line))
            .collect();
        guarded_calls = out
            .guarded_calls
            .into_iter()
            .filter(|c| !in_test(c.line))
            .collect();
        timings.extend(out.timings);
        if graph_lints {
            kept_ast = Some(ast);
        }
    }

    // Apply suppressions to suppressible findings.
    findings.retain(|f| {
        if !f.lint.suppressible() {
            return true;
        }
        for d in directives.iter_mut() {
            let name_matches = d.lints.contains(&f.lint);
            let scope_matches = d.file_scope || d.target_line == Some(f.line);
            if name_matches && scope_matches {
                d.used = true;
                return false;
            }
        }
        true
    });

    // Directives naming a workspace lint stay pending — their findings
    // only materialize once the workspace phases run.
    let mut pending = Vec::new();
    for d in &directives {
        let workspace_named: Vec<LintId> = d
            .lints
            .iter()
            .copied()
            .filter(|l| WORKSPACE_LINTS.contains(l))
            .collect();
        if !workspace_named.is_empty() {
            pending.push(PendingSuppression {
                line: d.line,
                lints: workspace_named,
                file_scope: d.file_scope,
                target_line: d.target_line,
                used: d.used,
            });
        } else if !d.used {
            findings.push(Finding {
                line: d.line,
                lint: LintId::UnusedSuppression,
                message: format!(
                    "suppression for `{}` matches no finding — delete it",
                    d.lints
                        .iter()
                        .map(|l| l.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.lint.name()));
    FileFacts {
        findings,
        lock_edges,
        guarded_calls,
        ast: kept_ast,
        test_ranges,
        pending,
        timings,
    }
}

/// A parsed, well-formed suppression directive.
struct Directive {
    line: u32,
    lints: Vec<LintId>,
    file_scope: bool,
    /// For line directives: the line findings must be on to match.
    target_line: Option<u32>,
    used: bool,
}

/// The marker every directive starts with (after the comment introducer).
const MARKER: &str = "jouppi-lint:";

/// Extracts directives from comments, resolving standalone directives to
/// the next code line. Malformed directives become findings.
fn parse_directives(
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
) -> (Vec<Directive>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut findings = Vec::new();
    for comment in &lexed.comments {
        let Some(at) = comment.text.find(MARKER) else {
            continue;
        };
        if in_test(comment.line) {
            continue; // Lints don't run in test regions; nor do directives.
        }
        // Doc comments (`///`, `//!`, `/** … */`, `/*! … */`) document the
        // directive syntax; only plain comments carry live directives.
        let t = comment.text.as_str();
        if t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("/**")
            || t.starts_with("/*!")
        {
            continue;
        }
        let rest = comment.text[at + MARKER.len()..].trim();
        match parse_one(rest) {
            Ok((lints, file_scope)) => {
                let target_line = if file_scope {
                    None
                } else if comment.owns_line {
                    next_code_line(&lexed.tokens, comment.line)
                } else {
                    Some(comment.line)
                };
                directives.push(Directive {
                    line: comment.line,
                    lints,
                    file_scope,
                    target_line,
                    used: false,
                });
            }
            Err(why) => findings.push(Finding {
                line: comment.line,
                lint: LintId::BadSuppression,
                message: why,
            }),
        }
    }
    (directives, findings)
}

/// Parses `allow(<lints>) <sep> <reason>` / `allow-file(…)`; returns the
/// lints and whether the directive is file-scoped.
fn parse_one(rest: &str) -> Result<(Vec<LintId>, bool), String> {
    let (file_scope, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
        (true, b)
    } else if let Some(b) = rest.strip_prefix("allow(") {
        (false, b)
    } else {
        return Err(format!(
            "malformed directive: expected `allow(<lint>) — <reason>` or \
             `allow-file(<lint>) — <reason>`, got `{rest}`"
        ));
    };
    let Some((names, after)) = body.split_once(')') else {
        return Err("malformed directive: missing `)` after lint name".to_owned());
    };
    let mut lints = Vec::new();
    for name in names.split(',') {
        let name = name.trim();
        match LintId::from_name(name) {
            Some(l) if l.suppressible() => lints.push(l),
            Some(l) => {
                return Err(format!("lint `{}` may not be suppressed", l.name()));
            }
            None => return Err(format!("unknown lint `{name}` in directive")),
        }
    }
    if lints.is_empty() {
        return Err("directive names no lint".to_owned());
    }
    let reason = after
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
        .trim();
    if reason.is_empty() {
        return Err(
            "suppression needs a reason: `jouppi-lint: allow(<lint>) — <why this is sound>`"
                .to_owned(),
        );
    }
    Ok((lints, file_scope))
}

/// The first line after `line` that carries a code token.
fn next_code_line(tokens: &[Token], line: u32) -> Option<u32> {
    tokens.iter().map(|t| t.line).find(|&l| l > line)
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items (attribute
/// line through the item's closing brace).
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        let Some((content_start, close)) = bracket_span(tokens, i + 1) else {
            break;
        };
        let content = &tokens[content_start..close];
        if !is_test_attribute(content) {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then find the item body.
        let mut j = close + 1;
        while tokens[j..].first().is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match bracket_span(tokens, j + 1) {
                Some((_, c)) => j = c + 1,
                None => break,
            }
        }
        // The region runs to the close of the item's outermost brace
        // block; an item ending in `;` before any `{` has no body.
        let mut depth = 0usize;
        let mut end_line = attr_line;
        let mut entered = false;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokKind::Punct(';') if depth == 0 => {
                    end_line = tokens[j].line;
                    break;
                }
                TokKind::Punct('{') => {
                    depth += 1;
                    entered = true;
                }
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        end_line = tokens[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() {
            end_line = tokens.last().map_or(attr_line, |t| t.line);
        }
        regions.push((attr_line, end_line));
        i = j + 1;
    }
    regions
}

/// Given the index of a `[`, returns `(first content index, index of the
/// matching `]`)`.
fn bracket_span(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, k));
            }
        }
    }
    None
}

/// Whether attribute content tokens are exactly `test` or `cfg(test)`.
/// (`cfg(not(test))` and friends are *not* test attributes.)
fn is_test_attribute(content: &[Token]) -> bool {
    match content {
        [t] => t.ident() == Some("test"),
        [c, o, t, p] => {
            c.ident() == Some("cfg")
                && o.is_punct('(')
                && t.ident() == Some("test")
                && p.is_punct(')')
        }
        _ => false,
    }
}

/// Runs one lint's token scan, appending findings.
fn scan_lint(
    lint: LintId,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    let tokens = &lexed.tokens;
    let mut hit = |line: u32, message: String| {
        if !in_test(line) {
            findings.push(Finding {
                line,
                lint,
                message,
            });
        }
    };
    match lint {
        LintId::AmbientTime => {
            for t in tokens {
                if let Some(name @ ("Instant" | "SystemTime" | "UNIX_EPOCH")) = t.ident() {
                    hit(
                        t.line,
                        format!(
                            "ambient time source `{name}` in a simulation crate — results \
                             must depend only on (trace, config, seed)"
                        ),
                    );
                }
            }
        }
        LintId::AmbientRng => {
            for (i, t) in tokens.iter().enumerate() {
                let Some(name) = t.ident() else { continue };
                // `SmallRng` is deliberately absent: jouppi_trace::SmallRng
                // is the blessed seeded PRNG and shares the name of its
                // `rand` counterpart.
                let ambient = matches!(
                    name,
                    "thread_rng"
                        | "ThreadRng"
                        | "OsRng"
                        | "StdRng"
                        | "from_entropy"
                        | "getrandom"
                        | "RandomState"
                ) || (name == "rand" && path_sep_follows(tokens, i));
                if ambient {
                    hit(
                        t.line,
                        format!(
                            "ambient randomness `{name}` in a simulation crate — draw from \
                             the seeded jouppi_workloads PRNG instead"
                        ),
                    );
                }
            }
        }
        LintId::DefaultHasher => {
            for (i, t) in tokens.iter().enumerate() {
                let Some(name @ ("HashMap" | "HashSet")) = t.ident() else {
                    continue;
                };
                let required_commas = if name == "HashMap" { 2 } else { 1 };
                if !has_hasher_param(tokens, i + 1, required_commas) {
                    hit(
                        t.line,
                        format!(
                            "default-hasher `{name}` in a simulation crate — use \
                             jouppi_cache::line_hash::Fx{name} (deterministic) or a \
                             BTree collection"
                        ),
                    );
                }
            }
        }
        LintId::RelaxedOrdering => {
            for (i, t) in tokens.iter().enumerate() {
                if t.ident() == Some("Relaxed")
                    && i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].ident() == Some("Ordering")
                {
                    hit(
                        t.line,
                        "`Ordering::Relaxed` on a cross-thread counter that feeds reported \
                         results — justify why relaxed is exact here (suppress with a \
                         reason) or use a stronger ordering"
                            .to_owned(),
                    );
                }
            }
        }
        // The v2 structural analyses run on the AST (see
        // `crate::analyses`), and the v3 interprocedural analyses on the
        // workspace call graph (`crate::interproc`) — not the token
        // stream.
        LintId::LockOrder
        | LintId::BlockingUnderLock
        | LintId::UnboundedGrowth
        | LintId::PanicReachability
        | LintId::TransitivePurity
        | LintId::UntrustedSizeTaint
        | LintId::LockHeldAcrossCall
        | LintId::BadSuppression
        | LintId::UnusedSuppression => {}
    }
}

/// Whether `::` immediately follows the token at `i`.
fn path_sep_follows(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
}

/// Whether the generic argument list starting after token `i` (either
/// `<…>` or turbofish `::<…>`) carries at least `required_commas`
/// top-level commas — i.e. an explicit hasher parameter. No generics at
/// all (`HashMap::new()`, a bare `use … ::HashMap;`) means the default
/// hasher.
fn has_hasher_param(tokens: &[Token], mut i: usize, required_commas: usize) -> bool {
    // Skip a turbofish's `::`.
    if path_sep_follows(tokens, i.wrapping_sub(1)) {
        i += 2;
    }
    if !tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        return false;
    }
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut k = i;
    while k < tokens.len() {
        let t = &tokens[k];
        match t.kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                // `->` in a fn-pointer type parameter is not a close.
                let arrow = k > 0 && tokens[k - 1].is_punct('-') && tokens[k - 1].pos + 1 == t.pos;
                if !arrow {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return commas >= required_commas;
                    }
                }
            }
            TokKind::Punct(',') if depth == 1 => commas += 1,
            _ => {}
        }
        k += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::classify;

    fn sim_ctx() -> FileContext {
        classify("crates/core/src/fixture.rs").expect("sim context")
    }

    fn run(ctx: &FileContext, src: &str) -> Vec<Finding> {
        check_source(ctx, src)
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
fn a() {}
#[cfg(test)]
mod tests {
    use std::time::Instant;
    #[test]
    fn t() { let _ = Instant::now(); }
}
";
        assert!(run(&sim_ctx(), src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { let t = Instant::now(); }\n";
        let f = run(&sim_ctx(), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::AmbientTime);
    }

    #[test]
    fn standalone_directive_covers_next_line() {
        let src = "\
// jouppi-lint: allow(ambient-time) — progress timing only, not results
let t = Instant::now();
";
        assert!(run(&sim_ctx(), src).is_empty());
    }

    #[test]
    fn trailing_directive_covers_its_line() {
        let src = "let t = Instant::now(); // jouppi-lint: allow(ambient-time) — timing only\n";
        assert!(run(&sim_ctx(), src).is_empty());
    }

    #[test]
    fn directive_without_reason_is_a_finding() {
        let src = "// jouppi-lint: allow(ambient-time)\nlet t = Instant::now();\n";
        let f = run(&sim_ctx(), src);
        assert!(f.iter().any(|f| f.lint == LintId::BadSuppression));
        // The finding it tried to suppress still fires.
        assert!(f.iter().any(|f| f.lint == LintId::AmbientTime));
    }

    #[test]
    fn unknown_lint_in_directive_is_a_finding() {
        let src = "// jouppi-lint: allow(no-such) — because\nfn f() {}\n";
        let f = run(&sim_ctx(), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::BadSuppression);
    }

    #[test]
    fn unused_directive_is_a_finding() {
        let src = "// jouppi-lint: allow(ambient-time) — just in case\nfn f() {}\n";
        let f = run(&sim_ctx(), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::UnusedSuppression);
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "\
// jouppi-lint: allow-file(default-hasher) — len()-only sets, order never observed
use std::collections::HashSet;
fn f() -> HashSet<u64> { HashSet::new() }
";
        assert!(run(&sim_ctx(), src).is_empty());
    }

    #[test]
    fn hasher_param_heuristic() {
        let flagged = |src: &str| {
            run(&sim_ctx(), src)
                .iter()
                .filter(|f| f.lint == LintId::DefaultHasher)
                .count()
        };
        assert_eq!(flagged("struct S { m: HashMap<u64, u32> }"), 1);
        assert_eq!(
            flagged("struct S { m: HashMap<u64, u32, FxBuildHasher> }"),
            0
        );
        assert_eq!(flagged("struct S { s: HashSet<u64, FxBuildHasher> }"), 0);
        assert_eq!(flagged("struct S { s: HashSet<u64> }"), 1);
        assert_eq!(flagged("use std::collections::HashMap;"), 1);
        assert_eq!(flagged("let m = HashMap::new();"), 1);
        assert_eq!(flagged("let m: BTreeMap<u64, u32> = BTreeMap::new();"), 0);
        // fn-pointer arrow inside the generics must not close the list.
        assert_eq!(flagged("struct S { m: HashMap<u64, fn(u8) -> u16, H> }"), 0);
    }

    #[test]
    fn relaxed_ordering_needs_the_full_path() {
        let ctx = classify("crates/experiments/src/fixture.rs").expect("experiments");
        let src = "\
fn f(c: &AtomicU64) {
    c.load(Ordering::Relaxed);
    c.load(Ordering::SeqCst);
    let Relaxed = 1;
}
";
        let f = run(&ctx, src);
        let relaxed: Vec<u32> = f
            .iter()
            .filter(|f| f.lint == LintId::RelaxedOrdering)
            .map(|f| f.line)
            .collect();
        assert_eq!(relaxed, vec![2]);
    }

    #[test]
    fn literals_never_trip_lints() {
        let src = r#"
let a = "Instant::now() HashMap<u64,u64> .unwrap() Ordering::Relaxed";
let b = 'I';
// Instant in a comment is fine too.
"#;
        assert!(run(&sim_ctx(), src).is_empty());
        let serve = classify("crates/serve/src/fixture.rs").expect("serve");
        assert!(run(&serve, src).is_empty());
    }

    #[test]
    fn ambient_rng_catalog() {
        let f = run(
            &sim_ctx(),
            "use rand::Rng; fn f() { let r = thread_rng(); }\n",
        );
        assert_eq!(f.iter().filter(|f| f.lint == LintId::AmbientRng).count(), 2);
        // `rand` as a local name without `::` is fine.
        assert!(run(&sim_ctx(), "let rand = 3;\n").is_empty());
        // The repo's own seeded PRNG shares `rand`'s `SmallRng` name and
        // is the sanctioned entropy source — never ambient.
        assert!(run(
            &sim_ctx(),
            "use jouppi_trace::SmallRng; fn f() { let r = SmallRng::seed_from_u64(7); }\n"
        )
        .is_empty());
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        // Docs that *describe* the syntax must not register as live
        // directives (which would then be flagged bad/unused).
        let src = "\
//! Suppress with `// jouppi-lint: allow(<lint>) — <reason>`.
/// Or file-wide: `// jouppi-lint: allow-file(ambient-time) — reason`.
fn f() {}
";
        assert!(run(&sim_ctx(), src).is_empty());
    }

    #[test]
    fn multiple_lints_in_one_directive() {
        let src = "\
use std::collections::HashMap; // jouppi-lint: allow(default-hasher, ambient-rng) — fixture exercising a two-lint directive
";
        let f = run(&sim_ctx(), src);
        // default-hasher suppressed; ambient-rng unused half is fine
        // because the directive as a whole was used.
        assert!(f.is_empty());
    }
}
