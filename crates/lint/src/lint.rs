//! The lint catalog: every invariant `jouppi-lint` enforces. Invariants
//! rustc and clippy check from configuration live in the root manifest's
//! `[workspace.lints]`.

use std::fmt;

/// Identifies one lint in the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Ambient time sources (`Instant`, `SystemTime`, `UNIX_EPOCH`) in
    /// simulation crates.
    AmbientTime,
    /// Non-`jouppi` randomness (`rand::…`, `thread_rng`, `RandomState`,
    /// …) in simulation crates.
    AmbientRng,
    /// Default-hasher `HashMap`/`HashSet` in simulation crates.
    DefaultHasher,
    /// `Ordering::Relaxed` in crates whose cross-thread counters feed
    /// reported results.
    RelaxedOrdering,
    /// A cycle in the per-crate graph of nested lock acquisitions
    /// (potential deadlock).
    LockOrder,
    /// A blocking call (`recv`, `join`, `sleep`, socket I/O, …) while a
    /// lock guard is live in scope.
    BlockingUnderLock,
    /// Long-lived server/sweep collection state that only grows —
    /// no eviction, pruning, or capacity path anywhere in the file.
    UnboundedGrowth,
    /// An undocumented panic site (`panic!`-family macro or bare
    /// `.unwrap()`) transitively reachable from a serve request-handling
    /// entrypoint.
    PanicReachability,
    /// An ambient time/RNG/env/filesystem/default-hasher source
    /// transitively reachable from the cache-keyed simulate path.
    TransitivePurity,
    /// A request-derived integer flowing into `with_capacity`/`reserve`/
    /// `vec![_; n]` without a bounds check, across call edges.
    UntrustedSizeTaint,
    /// A call made while a lock guard is live whose callee (transitively)
    /// blocks.
    LockHeldAcrossCall,
    /// A malformed suppression directive (unknown lint, missing reason).
    BadSuppression,
    /// A suppression directive that matched no finding.
    UnusedSuppression,
}

/// Every catalog entry, in reporting order.
pub const ALL_LINTS: [LintId; 13] = [
    LintId::AmbientTime,
    LintId::AmbientRng,
    LintId::DefaultHasher,
    LintId::RelaxedOrdering,
    LintId::LockOrder,
    LintId::BlockingUnderLock,
    LintId::UnboundedGrowth,
    LintId::PanicReachability,
    LintId::TransitivePurity,
    LintId::UntrustedSizeTaint,
    LintId::LockHeldAcrossCall,
    LintId::BadSuppression,
    LintId::UnusedSuppression,
];

impl LintId {
    /// The kebab-case name used in reports and suppression directives.
    pub fn name(self) -> &'static str {
        match self {
            LintId::AmbientTime => "ambient-time",
            LintId::AmbientRng => "ambient-rng",
            LintId::DefaultHasher => "default-hasher",
            LintId::RelaxedOrdering => "relaxed-ordering",
            LintId::LockOrder => "lock-order",
            LintId::BlockingUnderLock => "blocking-under-lock",
            LintId::UnboundedGrowth => "unbounded-growth",
            LintId::PanicReachability => "panic-reachability",
            LintId::TransitivePurity => "transitive-purity",
            LintId::UntrustedSizeTaint => "untrusted-size-taint",
            LintId::LockHeldAcrossCall => "lock-held-across-call",
            LintId::BadSuppression => "bad-suppression",
            LintId::UnusedSuppression => "unused-suppression",
        }
    }

    /// Parses a directive/report name back into an id.
    pub fn from_name(name: &str) -> Option<LintId> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// One-line description for `--list` and the docs.
    pub fn summary(self) -> &'static str {
        match self {
            LintId::AmbientTime => {
                "no ambient time sources (Instant/SystemTime/UNIX_EPOCH) in simulation crates \
                 — results must be a pure function of (trace, config, seed)"
            }
            LintId::AmbientRng => {
                "no ambient randomness (rand::, thread_rng, from_entropy, RandomState, …) in \
                 simulation crates — all randomness flows from the seeded jouppi PRNG"
            }
            LintId::DefaultHasher => {
                "no default-hasher HashMap/HashSet in simulation crates — use the FxHash types \
                 from jouppi_cache::line_hash (deterministic, fast) or a BTree collection"
            }
            LintId::RelaxedOrdering => {
                "Ordering::Relaxed on counters that feed reported results needs a written \
                 justification (fetch_add totals are exact, cross-variable ordering is not)"
            }
            LintId::LockOrder => {
                "nested lock acquisitions must form a cycle-free order per crate — a cycle \
                 (A held while taking B, B held while taking A) is a potential deadlock"
            }
            LintId::BlockingUnderLock => {
                "no blocking call (recv/join/sleep/accept/connect/read/write) while a lock \
                 guard is live — drop the guard first, or the lock convoys every thread"
            }
            LintId::UnboundedGrowth => {
                "long-lived collection state in serve/experiments must have an eviction, \
                 pruning, or capacity path — push/insert with no shrink leaks under load"
            }
            LintId::PanicReachability => {
                "no undocumented panic site — panic!-family macro or bare .unwrap() — \
                 transitively reachable from a serve request-handling entrypoint; \
                 .expect(\"invariant\") documents a checked contract and is accepted"
            }
            LintId::TransitivePurity => {
                "no ambient time/RNG/env/filesystem/default-hasher source transitively \
                 reachable from the cache-keyed simulate path — the result cache memoizes \
                 on (organization, workload, scale, seed) alone"
            }
            LintId::UntrustedSizeTaint => {
                "request-derived integers must be bounds-checked before flowing into \
                 with_capacity/reserve/vec![_; n] — an attacker-chosen length is an \
                 allocation-size DoS, across call edges too"
            }
            LintId::LockHeldAcrossCall => {
                "no call to a (transitively) blocking function while a lock guard is live \
                 — the callee's recv/join/sleep convoys every thread behind the lock"
            }
            LintId::BadSuppression => {
                "suppression directives must name a known lint and carry a non-empty reason"
            }
            LintId::UnusedSuppression => {
                "suppression directives that match no finding must be deleted"
            }
        }
    }

    /// Whether findings of this lint may themselves be suppressed.
    /// Directive-hygiene lints may not, or a stale directive could hide
    /// itself.
    pub fn suppressible(self) -> bool {
        !matches!(self, LintId::BadSuppression | LintId::UnusedSuppression)
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint hit: a location plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Which lint fired.
    pub lint: LintId,
    /// What was found and what to do instead.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(LintId::from_name(lint.name()), Some(lint));
            assert!(!lint.summary().is_empty());
        }
        assert_eq!(LintId::from_name("no-such-lint"), None);
    }

    #[test]
    fn hygiene_lints_are_not_suppressible() {
        assert!(!LintId::BadSuppression.suppressible());
        assert!(!LintId::UnusedSuppression.suppressible());
        assert!(LintId::AmbientTime.suppressible());
    }
}
