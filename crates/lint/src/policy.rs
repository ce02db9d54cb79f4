//! The per-crate policy table: which lints apply where.
//!
//! Policy is keyed on a file's *workspace-relative path*. Each file gets
//! a [`FileContext`] describing the crate it belongs to and its role
//! (library module, example, test), and [`lints_for`] maps that context
//! to the set of active lints:
//!
//! | crate | determinism (time/rng/hasher) | relaxed-ordering | unbounded-growth |
//! |---|---|---|---|
//! | trace, cache, core, workloads, system, jouppi (root) | ✔ | | |
//! | experiments | ✔ | ✔ | ✔ |
//! | serve | | ✔ | ✔ |
//! | cli, bench, report, lint | | | |
//!
//! `lock-order` and `blocking-under-lock` apply to all non-test code
//! everywhere, and the four interprocedural lints (`panic-reachability`,
//! `transitive-purity`, `untrusted-size-taint`, `lock-held-across-call`)
//! to every non-test file — their findings land wherever the offending
//! function is declared.
//!
//! Files under `tests/` and `examples/` directories (and `#[cfg(test)]`
//! regions) run under a **relaxed policy**: they may block freely, but
//! in simulation crates the determinism lints (ambient-time/rng/
//! default-hasher) still apply — a test that asserts on wall-clock time
//! or unseeded randomness is flaky by construction.
//!
//! The invariants rustc and clippy check from configuration (no unsafe
//! code, no debug printing, no discarded `#[must_use]` results, no
//! truncating casts, no panics in serve) are not in this table: they
//! live in the root manifest's `[workspace.lints]` and at crate roots.

use crate::lint::LintId;

/// Where a source file sits in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate directory name (`trace`, `serve`, …); `"jouppi"` for the
    /// umbrella crate at the workspace root.
    pub crate_name: String,
    /// Whether the file lives under a `tests/` directory (integration
    /// tests: relaxed policy).
    pub is_test_file: bool,
    /// Whether the file lives under an `examples/` directory (relaxed
    /// policy, bin-like).
    pub is_example: bool,
}

/// Crates whose outputs are simulation results, and must therefore be
/// bit-reproducible from (trace, config, seed) alone.
const SIM_CRATES: [&str; 7] = [
    "trace",
    "cache",
    "core",
    "workloads",
    "system",
    "experiments",
    "jouppi",
];

/// Classifies a workspace-relative path. Returns `None` for paths the
/// linter does not cover (benches, non-Rust files, build output).
pub fn classify(rel_path: &str) -> Option<FileContext> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", name, rest @ ..] => ((*name).to_owned(), rest),
        ["src" | "tests" | "examples", ..] => ("jouppi".to_owned(), &parts[..]),
        _ => return None,
    };
    let (is_test_file, is_example) = match rest {
        ["src", ..] => (false, false),
        ["tests", ..] => (true, false),
        ["examples", ..] => (false, true),
        _ => return None,
    };
    Some(FileContext {
        rel_path: rel_path.to_owned(),
        crate_name,
        is_test_file,
        is_example,
    })
}

/// The lints active for a file. Test and example files run the relaxed
/// policy (determinism lints only, in simulation crates); the caller
/// also skips `#[cfg(test)]` regions within non-test files.
pub fn lints_for(ctx: &FileContext) -> Vec<LintId> {
    let mut lints = Vec::new();
    if SIM_CRATES.contains(&ctx.crate_name.as_str()) {
        lints.push(LintId::AmbientTime);
        lints.push(LintId::AmbientRng);
        lints.push(LintId::DefaultHasher);
    }
    if ctx.is_test_file || ctx.is_example {
        // Relaxed policy: blocking is fine in tests and examples;
        // flaky-by-construction ambient inputs in simulation crates are
        // not.
        return lints;
    }
    if ctx.crate_name == "experiments" || ctx.crate_name == "serve" {
        lints.push(LintId::RelaxedOrdering);
    }
    // v2 structural analyses. The concurrency lints apply everywhere;
    // growth tracking targets the long-lived daemons (serve) and sweep
    // state (experiments).
    lints.push(LintId::LockOrder);
    lints.push(LintId::BlockingUnderLock);
    if ctx.crate_name == "serve" || ctx.crate_name == "experiments" {
        lints.push(LintId::UnboundedGrowth);
    }
    // v3 interprocedural analyses: active everywhere — reachability is
    // decided by the workspace call graph, so findings land wherever
    // the offending function is declared, in any crate.
    lints.push(LintId::PanicReachability);
    lints.push(LintId::TransitivePurity);
    lints.push(LintId::UntrustedSizeTaint);
    lints.push(LintId::LockHeldAcrossCall);
    lints
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_shapes() {
        let lib = classify("crates/cache/src/lru.rs").expect("lib module");
        assert_eq!(lib.crate_name, "cache");
        assert!(!lib.is_example && !lib.is_test_file);

        let bin = classify("crates/cli/src/bin/jouppi.rs").expect("bin root");
        assert_eq!(bin.crate_name, "cli");
        assert!(!bin.is_example && !bin.is_test_file);

        let t = classify("crates/serve/tests/integration.rs").expect("test");
        assert!(t.is_test_file);

        let umbrella = classify("src/lib.rs").expect("umbrella root");
        assert_eq!(umbrella.crate_name, "jouppi");

        let root_test = classify("tests/paper_claims.rs").expect("root test");
        assert!(root_test.is_test_file);

        let root_example = classify("examples/quickstart.rs").expect("root example");
        assert_eq!(root_example.crate_name, "jouppi");
        assert!(root_example.is_example);

        let crate_example =
            classify("crates/workloads/examples/calibrate.rs").expect("crate example");
        assert_eq!(crate_example.crate_name, "workloads");
        assert!(crate_example.is_example && !crate_example.is_test_file);

        assert!(classify("crates/cache/benches/x.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn policy_matches_the_table() {
        let sim = classify("crates/core/src/victim_cache.rs").expect("sim module");
        let lints = lints_for(&sim);
        assert!(lints.contains(&LintId::AmbientTime));
        assert!(lints.contains(&LintId::DefaultHasher));
        assert!(!lints.contains(&LintId::RelaxedOrdering));

        let serve = classify("crates/serve/src/routes.rs").expect("serve module");
        let lints = lints_for(&serve);
        assert!(lints.contains(&LintId::RelaxedOrdering));
        assert!(!lints.contains(&LintId::AmbientTime));

        let exp = classify("crates/experiments/src/sweep.rs").expect("experiments");
        assert!(lints_for(&exp).contains(&LintId::RelaxedOrdering));

        let report = classify("crates/report/src/table.rs").expect("report");
        let lints = lints_for(&report);
        assert_eq!(
            lints,
            vec![
                LintId::LockOrder,
                LintId::BlockingUnderLock,
                LintId::PanicReachability,
                LintId::TransitivePurity,
                LintId::UntrustedSizeTaint,
                LintId::LockHeldAcrossCall,
            ]
        );
    }

    #[test]
    fn relaxed_policy_for_tests_and_examples() {
        // Sim-crate tests/examples: determinism lints only — no
        // blocking or interprocedural lints.
        let sim_test = classify("crates/cache/tests/lru_backends.rs").expect("test");
        assert_eq!(
            lints_for(&sim_test),
            vec![
                LintId::AmbientTime,
                LintId::AmbientRng,
                LintId::DefaultHasher,
            ]
        );
        let sim_example = classify("crates/workloads/examples/calibrate.rs").expect("example");
        assert_eq!(
            lints_for(&sim_example),
            vec![
                LintId::AmbientTime,
                LintId::AmbientRng,
                LintId::DefaultHasher,
            ]
        );
        // Non-sim tests (serve, the lint crate's own fixtures): nothing
        // applies — intentionally-bad fixture files must not lint.
        let serve_test = classify("crates/serve/tests/integration.rs").expect("test");
        assert!(lints_for(&serve_test).is_empty());
        let fixture = classify("crates/lint/tests/fixtures/bad/ambient_time.rs").expect("fixture");
        assert!(fixture.is_test_file);
        assert!(lints_for(&fixture).is_empty());
    }

    #[test]
    fn v2_analyses_follow_the_table() {
        let serve = classify("crates/serve/src/queue.rs").expect("serve");
        let lints = lints_for(&serve);
        for lint in [
            LintId::LockOrder,
            LintId::BlockingUnderLock,
            LintId::UnboundedGrowth,
        ] {
            assert!(lints.contains(&lint), "serve should run {lint}");
        }

        let sim = classify("crates/cache/src/lru.rs").expect("sim");
        let lints = lints_for(&sim);
        assert!(lints.contains(&LintId::LockOrder));
        assert!(!lints.contains(&LintId::UnboundedGrowth));

        let exp = classify("crates/experiments/src/sweep.rs").expect("experiments");
        assert!(lints_for(&exp).contains(&LintId::UnboundedGrowth));
    }
}
