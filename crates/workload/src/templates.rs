//! Template-shape statistics of a workload: how many distinct
//! `(table, filter shape)` signatures its relations collapse onto.
//!
//! This is the planning-side view of workload-level batched collection
//! (`pinum_core::WorkloadCollector`): the number of distinct templates is
//! the number of optimizer calls the batched collector will spend on the
//! workload, and the group-size distribution shows where the sharing
//! comes from. Experiments print the summary next to the measured call
//! counts so the grouping structure of a workload is visible without
//! running the collector.

use pinum_query::{Query, RelIdx, RelTemplate, TemplateKey};
use std::collections::HashMap;

/// Template grouping structure of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateSummary {
    /// Total relation instances across all queries.
    pub rel_instances: usize,
    /// Distinct templates — the batched collector's optimizer-call count
    /// for this workload (on a cold cache).
    pub distinct_templates: usize,
    /// Relation instances in the most-shared template group.
    pub largest_group: usize,
    /// Templates presented by exactly one relation instance (no sharing).
    pub singleton_templates: usize,
}

/// Groups every relation instance of `queries` by collection template.
pub fn summarize_templates(queries: &[Query]) -> TemplateSummary {
    let mut groups: HashMap<TemplateKey, usize> = HashMap::new();
    let mut rel_instances = 0usize;
    for query in queries {
        for rel in 0..query.relation_count() as RelIdx {
            rel_instances += 1;
            *groups.entry(RelTemplate::of(query, rel).key()).or_insert(0) += 1;
        }
    }
    TemplateSummary {
        rel_instances,
        distinct_templates: groups.len(),
        largest_group: groups.values().copied().max().unwrap_or(0),
        singleton_templates: groups.values().filter(|&&n| n == 1).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{StarSchema, StarWorkload};

    #[test]
    fn scale_workload_collapses_onto_few_templates() {
        let schema = StarSchema::generate(42, 0.001);
        let workload = StarWorkload::generate(&schema, 7, 200);
        let summary = summarize_templates(&workload.queries);
        assert_eq!(summary.rel_instances, 800, "widths 2..6, 40 queries each");
        // The 200-query workload must collapse onto far fewer templates
        // than queries — the premise of batched collection (the exact
        // count is pinned by `pinum-bench`'s `batched_collection`
        // acceptance test, not here).
        assert!(
            summary.distinct_templates * 3 <= workload.queries.len(),
            "only {} queries over {} templates",
            workload.queries.len(),
            summary.distinct_templates
        );
        assert!(summary.largest_group > 1);
        // More than three relation instances share each template.
        assert!(summary.rel_instances > 3 * summary.distinct_templates);
    }

    #[test]
    fn empty_workload_has_no_templates() {
        let summary = summarize_templates(&[]);
        assert_eq!(summary.rel_instances, 0);
        assert_eq!(summary.distinct_templates, 0);
    }
}
