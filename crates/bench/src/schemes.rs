//! The workspace's shared scheme registry.
//!
//! The broad sweeps (fig8, fig10, fig11, table2, appendix) iterate
//! [`Scheme::ALL`] and filter through [`crate::applicable`], so they pick
//! up a new scheme automatically. The *curated* subsets used to be
//! hard-coded at each call site — fig9's scan storm, bench_snapshot's
//! fig8 headline, the robustness churn tests — which is exactly how a
//! newly added scheme would silently miss some of them. Every curated list
//! now lives here, next to the one mapping from a [`Scheme`] tag to its
//! concrete [`GuardedScheme`] type, and the tests below cross-check the
//! lists against `applicable`.

use smr_common::GuardedScheme;

use crate::config::Scheme;

/// fig9 scan-storm rows: every scheme that can field the optimistic
/// HHSList (plain HP cannot — paper §2.3).
pub const SCAN_STORM: [Scheme; 4] = [Scheme::Ebr, Scheme::Pebr, Scheme::Hpp, Scheme::Hyaline];

/// The perf-trajectory gate's fig8 headline subset (`bench_snapshot`).
pub const FIG8_HEADLINE: [Scheme; 4] = [Scheme::Ebr, Scheme::Hp, Scheme::Hpp, Scheme::Hyaline];

/// Schemes implementing [`GuardedScheme`] (whole-structure critical
/// sections over `ds::guarded`): drives [`for_each_guarded`].
pub const GUARDED: [Scheme; 4] = [Scheme::Nr, Scheme::Ebr, Scheme::Pebr, Scheme::Hyaline];

/// A callback dispatched with the concrete scheme *type* for each entry of
/// [`GUARDED`] — the registry's tag → type mapping, written once.
pub trait GuardedVisitor {
    /// Called once per guarded scheme with its [`GuardedScheme`] type.
    fn visit<S: GuardedScheme>(&mut self, scheme: Scheme);
}

/// Visits every scheme in [`GUARDED`] with its concrete type, so
/// registry-driven tests (e.g. `tests/robustness.rs`) cover a new guarded
/// scheme the moment it lands here.
pub fn for_each_guarded(v: &mut impl GuardedVisitor) {
    for scheme in GUARDED {
        match scheme {
            Scheme::Nr => v.visit::<nr::Nr>(scheme),
            Scheme::Ebr => v.visit::<ebr::Ebr>(scheme),
            Scheme::Pebr => v.visit::<pebr::Pebr>(scheme),
            Scheme::Hyaline => v.visit::<hyaline::Hyaline>(scheme),
            other => unreachable!("{other} listed in GUARDED without a type mapping"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ds;
    use crate::runner::applicable;

    #[test]
    fn curated_lists_are_applicable_subsets() {
        // Every curated entry must actually run on the structure its
        // consumer drives: scan-storm rows on HHSList, headline rows on the
        // structure bench_snapshot uses.
        for scheme in SCAN_STORM {
            assert!(applicable(Ds::HHSList, scheme), "{scheme} in SCAN_STORM");
        }
        for scheme in FIG8_HEADLINE {
            assert!(applicable(Ds::HMList, scheme), "{scheme} in FIG8_HEADLINE");
        }
    }

    #[test]
    fn guarded_visitor_covers_the_whole_list() {
        struct Count(Vec<Scheme>);
        impl GuardedVisitor for Count {
            fn visit<S: smr_common::GuardedScheme>(&mut self, scheme: Scheme) {
                self.0.push(scheme);
            }
        }
        let mut c = Count(Vec::new());
        for_each_guarded(&mut c);
        assert_eq!(c.0, GUARDED);
    }
}
