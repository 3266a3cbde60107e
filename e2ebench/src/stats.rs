//! Exact sample statistics and span self times.

/// Nearest-rank percentile of `samples` (`q` in `0..=100`): the smallest
/// sample with at least `q`% of all samples at or below it. Sorts in
/// place; `None` when empty.
pub fn nearest_rank(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    Some(samples[rank.clamp(1, n) - 1])
}

/// Median of a float sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One closed interval of a span tree: `parent` indexes into the same
/// slice. Times are nanoseconds from a common epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time (`>= start`).
    pub end: u64,
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once; a child reaching
/// outside its parent counts only inside it).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.max(lo), s.end.min(hi));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&mut v, 50.0), Some(50));
        assert_eq!(nearest_rank(&mut v, 90.0), Some(90));
        assert_eq!(nearest_rank(&mut v, 99.0), Some(99));
        assert_eq!(nearest_rank(&mut v, 100.0), Some(100));
        assert_eq!(nearest_rank(&mut v, 0.0), Some(1));
        let mut odd = vec![5, 1, 3];
        assert_eq!(nearest_rank(&mut odd, 50.0), Some(3));
        assert_eq!(nearest_rank(&mut odd, 34.0), Some(3));
        assert_eq!(nearest_rank(&mut odd, 33.0), Some(1));
        assert_eq!(nearest_rank(&mut [], 50.0), None);
        assert_eq!(nearest_rank(&mut [7], 99.0), Some(7));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_times_subtract_the_union_of_children() {
        let span = |parent, start, end| Interval { parent, start, end };
        let spans = [
            span(None, 0, 100),
            // Two overlapping children cover 10..50 once.
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            // A grandchild is charged to its own parent only.
            span(Some(2), 35, 45),
            // A child sticking out of its parent counts only inside it.
            span(Some(0), 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40 - 10, 30, 20 - 10, 10, 30]);
        // Without overlap the self times add up to the root's duration.
        let flat = [
            span(None, 0, 60),
            span(Some(0), 0, 20),
            span(Some(0), 20, 50),
        ];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 60);
    }
}
