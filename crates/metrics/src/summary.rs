//! Aggregation of job outcomes into the paper's reported quantities.

use pdpa_apps::AppClass;

use crate::outcome::JobOutcome;

/// Mean response and execution time of one application class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassAverages {
    /// Jobs of the class that completed.
    pub count: usize,
    /// Mean response time, seconds.
    pub avg_response_secs: f64,
    /// Mean execution time, seconds.
    pub avg_execution_secs: f64,
    /// Mean wait time, seconds.
    pub avg_wait_secs: f64,
}

/// Aggregated results of one workload execution under one policy.
#[derive(Clone, Debug)]
pub struct Summary {
    outcomes: Vec<JobOutcome>,
}

impl Summary {
    /// Builds a summary over completed jobs.
    pub fn new(outcomes: Vec<JobOutcome>) -> Self {
        Summary { outcomes }
    }

    /// All outcomes.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Number of completed jobs.
    pub fn jobs(&self) -> usize {
        self.outcomes.len()
    }

    /// Averages for one application class, if any jobs of it completed.
    pub fn class_averages(&self, class: AppClass) -> Option<ClassAverages> {
        let of_class: Vec<&JobOutcome> =
            self.outcomes.iter().filter(|o| o.class == class).collect();
        if of_class.is_empty() {
            return None;
        }
        let n = of_class.len() as f64;
        Some(ClassAverages {
            count: of_class.len(),
            avg_response_secs: of_class
                .iter()
                .map(|o| o.response_time().as_secs())
                .sum::<f64>()
                / n,
            avg_execution_secs: of_class
                .iter()
                .map(|o| o.execution_time().as_secs())
                .sum::<f64>()
                / n,
            avg_wait_secs: of_class
                .iter()
                .map(|o| o.wait_time().as_secs())
                .sum::<f64>()
                / n,
        })
    }

    /// The workload execution time (makespan): completion of the last job.
    /// Zero when nothing completed.
    pub fn makespan_secs(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.end.as_secs())
            .fold(0.0, f64::max)
    }

    /// Mean response time over every job, regardless of class.
    pub fn overall_avg_response_secs(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.response_time().as_secs())
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Mean slowdown of a class: response time over execution time (≥ 1;
    /// 1 means no queueing or interference delay). A standard metric in the
    /// parallel job-scheduling literature.
    pub fn avg_slowdown(&self, class: AppClass) -> Option<f64> {
        let ratios: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.class == class && o.execution_time().as_secs() > 0.0)
            .map(|o| o.response_time().as_secs() / o.execution_time().as_secs())
            .collect();
        if ratios.is_empty() {
            None
        } else {
            Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of response times across every job,
    /// by nearest-rank. `None` when nothing completed.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn response_quantile_secs(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.outcomes.is_empty() {
            return None;
        }
        let mut times: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.response_time().as_secs())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        Some(nearest_rank(&times, q))
    }

    /// Classes present in the summary, in paper order.
    pub fn classes(&self) -> Vec<AppClass> {
        AppClass::ALL
            .into_iter()
            .filter(|&c| self.outcomes.iter().any(|o| o.class == c))
            .collect()
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending, non-empty sample by
/// nearest rank: the value at rank ⌈q·n⌉ clamped into `[1, n]`, so every
/// answer is an observed value.
///
/// The rank is computed in integer arithmetic with `q` resolved to parts
/// per million. The float form `(q * n).ceil()` overshoots whenever the
/// product rounds just above an integer (0.07 × 100 = 7.000000000000001
/// → rank 8 instead of 7), silently reporting a deeper tail value than
/// asked for.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    const PARTS: u64 = 1_000_000;
    let n = sorted.len() as u64;
    assert!(n > 0, "quantile of an empty sample");
    let parts = (q * PARTS as f64).round() as u64;
    let rank = (parts * n).div_ceil(PARTS).clamp(1, n);
    sorted[rank as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_sim::{JobId, SimTime};

    fn outcome(id: u32, class: AppClass, submit: f64, start: f64, end: f64) -> JobOutcome {
        JobOutcome {
            job: JobId(id),
            class,
            submit: SimTime::from_secs(submit),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    fn summary() -> Summary {
        Summary::new(vec![
            outcome(0, AppClass::BtA, 0.0, 0.0, 100.0),
            outcome(1, AppClass::BtA, 10.0, 30.0, 150.0),
            outcome(2, AppClass::Apsi, 5.0, 5.0, 110.0),
        ])
    }

    #[test]
    fn class_averages() {
        let s = summary();
        let bt = s.class_averages(AppClass::BtA).unwrap();
        assert_eq!(bt.count, 2);
        assert!((bt.avg_response_secs - 120.0).abs() < 1e-12); // (100 + 140)/2
        assert!((bt.avg_execution_secs - 110.0).abs() < 1e-12); // (100 + 120)/2
        assert!((bt.avg_wait_secs - 10.0).abs() < 1e-12); // (0 + 20)/2
        assert!(s.class_averages(AppClass::Swim).is_none());
    }

    #[test]
    fn makespan_is_last_completion() {
        assert_eq!(summary().makespan_secs(), 150.0);
        assert_eq!(Summary::new(Vec::new()).makespan_secs(), 0.0);
    }

    #[test]
    fn overall_average() {
        let s = summary();
        // Responses: 100, 140, 105.
        assert!((s.overall_avg_response_secs() - 115.0).abs() < 1e-12);
        assert_eq!(Summary::new(Vec::new()).overall_avg_response_secs(), 0.0);
    }

    #[test]
    fn classes_in_paper_order() {
        assert_eq!(summary().classes(), vec![AppClass::BtA, AppClass::Apsi]);
    }

    #[test]
    fn slowdown_is_response_over_execution() {
        let s = summary();
        // bt jobs: 100/100 = 1 and 140/120 ≈ 1.1667 → mean ≈ 1.0833.
        let sd = s.avg_slowdown(AppClass::BtA).unwrap();
        assert!((sd - (1.0 + 140.0 / 120.0) / 2.0).abs() < 1e-12);
        assert!(s.avg_slowdown(AppClass::Swim).is_none());
    }

    #[test]
    fn response_quantiles_by_nearest_rank() {
        let s = summary(); // responses 100, 140, 105 → sorted 100, 105, 140
        assert_eq!(s.response_quantile_secs(0.0), Some(100.0));
        assert_eq!(s.response_quantile_secs(0.5), Some(105.0));
        assert_eq!(s.response_quantile_secs(1.0), Some(140.0));
        assert_eq!(Summary::new(Vec::new()).response_quantile_secs(0.5), None);
    }

    #[test]
    fn quantile_rank_does_not_overshoot_on_float_products() {
        // 0.07 × 100 = 7.000000000000001 and 0.9 × 70 = 63.000000000000016
        // in floating point; nearest rank must still pick the 7th and 63rd
        // order statistics.
        let responses = |n: u32| {
            Summary::new(
                (1..=n)
                    .map(|i| outcome(i, AppClass::Apsi, 0.0, 0.0, f64::from(i)))
                    .collect(),
            )
        };
        assert_eq!(responses(100).response_quantile_secs(0.07), Some(7.0));
        assert_eq!(responses(70).response_quantile_secs(0.9), Some(63.0));
        assert_eq!(responses(100).response_quantile_secs(0.95), Some(95.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }
}
