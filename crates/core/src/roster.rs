//! The policy roster: every scheduling policy a name can select.
//!
//! One table maps a policy's stable slug (and its accepted aliases) to its
//! figure label and constructor. The `pdpa` command line, the `pdpad`
//! daemon, the tournament and the experiments all resolve names here, so
//! adding a policy means adding one row.
//!
//! Slugs are persistent identifiers: they name `replay-<slug>` and
//! `tournament-<slug>` trajectory modes and are written into
//! `pdpa-snapshot/v1` files, so a slug, once shipped, never changes.

use std::fmt;

use pdpa_policies::{
    EqualEfficiency, Equipartition, GangScheduler, HeSrpt, IrixLike, LearnedAlloc, OptSplit,
    RigidFirstFit, SchedulingPolicy,
};

use crate::Pdpa;

/// One selectable policy.
pub struct RosterEntry {
    /// Stable identifier (lower case).
    pub slug: &'static str,
    /// Other accepted spellings of the name.
    pub aliases: &'static [&'static str],
    /// The label used in figures, tables and the tournament ranking.
    pub label: &'static str,
    /// Builds a fresh instance with the paper's configuration.
    pub build: fn() -> Box<dyn SchedulingPolicy>,
}

impl PartialEq for RosterEntry {
    fn eq(&self, other: &Self) -> bool {
        self.slug == other.slug
    }
}

impl fmt::Debug for RosterEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug)
    }
}

/// Every policy, in canonical slug order.
pub static ROSTER: [RosterEntry; 9] = [
    RosterEntry {
        slug: "pdpa",
        aliases: &[],
        label: "PDPA",
        build: || Box::new(Pdpa::paper_default()),
    },
    RosterEntry {
        slug: "equip",
        aliases: &["equipartition"],
        label: "Equip",
        build: || Box::new(Equipartition::default()),
    },
    RosterEntry {
        slug: "equal-eff",
        aliases: &["equal_eff", "equal-efficiency"],
        label: "Equal_eff",
        build: || Box::new(EqualEfficiency::paper_default()),
    },
    RosterEntry {
        slug: "irix",
        aliases: &[],
        label: "IRIX",
        build: || Box::new(IrixLike::paper_default()),
    },
    RosterEntry {
        slug: "rigid",
        aliases: &[],
        label: "Rigid",
        build: || Box::new(RigidFirstFit::paper_default()),
    },
    RosterEntry {
        slug: "gang",
        aliases: &[],
        label: "Gang",
        build: || Box::new(GangScheduler::paper_comparable()),
    },
    RosterEntry {
        slug: "hesrpt",
        aliases: &["he-srpt"],
        label: "heSRPT",
        build: || Box::new(HeSrpt::default()),
    },
    RosterEntry {
        slug: "optsplit",
        aliases: &["opt-split"],
        label: "OptSplit",
        build: || Box::new(OptSplit::default()),
    },
    RosterEntry {
        slug: "learned",
        aliases: &["learnedalloc", "learned-alloc"],
        label: "Learned",
        build: || Box::new(LearnedAlloc::default()),
    },
];

/// The entry named by `name` (a slug or an alias, any ASCII case).
pub fn by_slug(name: &str) -> Option<&'static RosterEntry> {
    ROSTER.iter().find(|e| {
        std::iter::once(&e.slug)
            .chain(e.aliases)
            .any(|n| n.eq_ignore_ascii_case(name))
    })
}

/// The entries named by `slugs`, in that order.
///
/// # Panics
///
/// On a name the roster does not know: callers pass fixed lists.
pub fn pick<const N: usize>(slugs: [&str; N]) -> [&'static RosterEntry; N] {
    slugs.map(|s| by_slug(s).unwrap_or_else(|| panic!("{s} is not on the roster")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve_ignoring_case() {
        let mut seen = std::collections::HashSet::new();
        for entry in &ROSTER {
            for name in std::iter::once(&entry.slug).chain(entry.aliases) {
                assert!(
                    seen.insert(name.to_ascii_lowercase()),
                    "{name} is listed twice"
                );
                assert_eq!(by_slug(name), Some(entry));
                assert_eq!(by_slug(&name.to_ascii_uppercase()), Some(entry));
            }
            assert!(!(entry.build)().name().is_empty());
        }
        assert_eq!(by_slug("no-such-policy"), None);
    }

    #[test]
    fn snapshot_slugs_are_pinned() {
        // `pdpad` writes these into `pdpa-snapshot/v1` files and the
        // trajectory pairs modes by them: a snapshot written by any
        // earlier build must still restore.
        let slugs: Vec<&str> = ROSTER.iter().map(|e| e.slug).collect();
        assert_eq!(
            slugs,
            [
                "pdpa",
                "equip",
                "equal-eff",
                "irix",
                "rigid",
                "gang",
                "hesrpt",
                "optsplit",
                "learned"
            ]
        );
    }
}
