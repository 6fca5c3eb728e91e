//! Order statistics and the layer-remainder arithmetic.

/// Median of unsorted `values` (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the named layers leave unexplained of one end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Remainder {
    /// End-to-end time minus the sum of the layer times (may be negative
    /// when layers measured in isolation overlap or run warmer).
    pub unexplained: f64,
    /// `unexplained` as a share of the end-to-end time.
    pub share: f64,
}

/// Subtract the disjoint layer times `parts` from the end-to-end time.
pub fn remainder(e2e: f64, parts: &[f64]) -> Remainder {
    let unexplained = e2e - parts.iter().sum::<f64>();
    Remainder {
        unexplained,
        share: ratio(unexplained, e2e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn remainder_subtracts_layers() {
        let r = remainder(10.0, &[2.0, 3.0, 1.0]);
        assert_eq!(r.unexplained, 4.0);
        assert_eq!(r.share, 0.4);
        let over = remainder(4.0, &[3.0, 2.0]);
        assert_eq!(over.unexplained, -1.0);
        assert_eq!(over.share, -0.25);
        assert_eq!(remainder(0.0, &[]).share, 0.0);
    }
}
