//! Delay models: fixed, bounded, and dynamically (input-dependent) bounded.

use localwm_cdfg::{Cdfg, NodeId, OpKind};

/// A closed delay interval `[lo, hi]` in abstract time units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelayInterval {
    /// Minimum delay.
    pub lo: u64,
    /// Maximum delay.
    pub hi: u64,
}

impl DelayInterval {
    /// A point interval (fixed delay).
    pub fn fixed(d: u64) -> Self {
        DelayInterval { lo: d, hi: d }
    }

    /// An interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "delay interval must satisfy lo <= hi");
        DelayInterval { lo, hi }
    }

    /// Interval width (`hi - lo`).
    pub fn width(self) -> u64 {
        self.hi - self.lo
    }

    /// Whether a concrete delay lies within the interval.
    pub fn contains(self, d: u64) -> bool {
        (self.lo..=self.hi).contains(&d)
    }
}

/// Σ of every interval's `hi`, or `None` if the sum overflows `u64`.
///
/// Every path delay — each arrival, tail and circuit delay a timing sweep
/// computes — is a sum of distinct nodes' delays, so it is at most this
/// sum. When the sum fits a word type, no path arithmetic in that type
/// can overflow; callers use it to reject overflowing bounds up front and
/// to pick the narrowest exact row type.
///
/// ```
/// use localwm_engine::{checked_hi_sum, DelayInterval};
///
/// let bounds = [DelayInterval::new(1, 3), DelayInterval::fixed(4)];
/// assert_eq!(checked_hi_sum(bounds), Some(7));
/// assert_eq!(checked_hi_sum([DelayInterval::fixed(u64::MAX); 2]), None);
/// ```
pub fn checked_hi_sum(bounds: impl IntoIterator<Item = DelayInterval>) -> Option<u64> {
    bounds
        .into_iter()
        .try_fold(0u64, |sum, b| sum.checked_add(b.hi))
}

/// A delay model assigning each node a (possibly input-dependent) delay
/// interval.
pub trait DelayBounds {
    /// Delay interval of node `n` in graph `g`.
    fn bounds(&self, g: &Cdfg, n: NodeId) -> DelayInterval;
}

/// Per-operation-kind static delay intervals.
///
/// The default model gives every schedulable operation `[1, 1]` (the
/// homogeneous SDF unit-delay model) and free nodes `[0, 0]`; multiplies can
/// be made slower and uncertain via [`KindBounds::with`].
///
/// ```
/// use localwm_cdfg::OpKind;
/// use localwm_engine::{DelayBounds, DelayInterval};
/// use localwm_engine::KindBounds;
///
/// let model = KindBounds::unit()
///     .with(OpKind::Mul, DelayInterval::new(2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct KindBounds {
    default_sched: DelayInterval,
    overrides: Vec<(OpKind, DelayInterval)>,
}

impl KindBounds {
    /// The unit-delay model: `[1, 1]` for schedulable ops, `[0, 0]` free.
    pub fn unit() -> Self {
        KindBounds {
            default_sched: DelayInterval::fixed(1),
            overrides: Vec::new(),
        }
    }

    /// A uniformly uncertain model: every schedulable op in `[lo, hi]`.
    pub fn uniform(lo: u64, hi: u64) -> Self {
        KindBounds {
            default_sched: DelayInterval::new(lo, hi),
            overrides: Vec::new(),
        }
    }

    /// Overrides the interval for one operation kind.
    #[must_use]
    pub fn with(mut self, kind: OpKind, interval: DelayInterval) -> Self {
        self.overrides.retain(|(k, _)| *k != kind);
        self.overrides.push((kind, interval));
        self
    }
}

impl DelayBounds for KindBounds {
    fn bounds(&self, g: &Cdfg, n: NodeId) -> DelayInterval {
        let kind = g.kind(n);
        if !kind.is_schedulable() {
            return DelayInterval::fixed(0);
        }
        self.overrides
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, i)| i)
            .unwrap_or(self.default_sched)
    }
}

/// A *dynamically bounded* delay model: the interval of a node widens with
/// its fanin, modelling input-dependent switching — the more operands
/// (signal arrivals) an operation merges, the larger the spread between its
/// best-case (one controlling input settles the output early) and
/// worst-case (the last input is the deciding one) delays.
///
/// `delay(n) = [base.lo, base.hi + per_input * (fanin(n) - 1)]` for
/// schedulable nodes with at least one operand; sources/sinks keep the base
/// model's interval.
#[derive(Debug, Clone)]
pub struct DynamicBounds<M> {
    base: M,
    per_input: u64,
}

impl<M: DelayBounds> DynamicBounds<M> {
    /// Wraps a base model with a per-extra-input widening of `per_input`.
    pub fn new(base: M, per_input: u64) -> Self {
        DynamicBounds { base, per_input }
    }
}

impl<M: DelayBounds> DelayBounds for DynamicBounds<M> {
    fn bounds(&self, g: &Cdfg, n: NodeId) -> DelayInterval {
        let base = self.base.bounds(g, n);
        if !g.kind(n).is_schedulable() {
            return base;
        }
        let fanin = g.data_preds(n).count() as u64;
        let extra = self.per_input * fanin.saturating_sub(1);
        DelayInterval::new(base.lo, base.hi + extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use localwm_cdfg::Cdfg;

    #[test]
    fn fixed_interval_contains_only_itself() {
        let i = DelayInterval::fixed(3);
        assert!(i.contains(3));
        assert!(!i.contains(2));
        assert_eq!(i.width(), 0);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_interval_panics() {
        let _ = DelayInterval::new(3, 1);
    }

    #[test]
    fn kind_bounds_override_and_default() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not);
        let m = g.add_node(OpKind::Mul);
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(x, m).unwrap();
        g.add_data_edge(a, m).unwrap();
        let model = KindBounds::unit().with(OpKind::Mul, DelayInterval::new(2, 5));
        assert_eq!(model.bounds(&g, x), DelayInterval::fixed(0));
        assert_eq!(model.bounds(&g, a), DelayInterval::fixed(1));
        assert_eq!(model.bounds(&g, m), DelayInterval::new(2, 5));
    }

    #[test]
    fn dynamic_bounds_widen_with_fanin() {
        let mut g = Cdfg::new();
        let x = g.add_node(OpKind::Input);
        let y = g.add_node(OpKind::Input);
        let a = g.add_node(OpKind::Not); // fanin 1
        let s = g.add_node(OpKind::Add); // fanin 2
        g.add_data_edge(x, a).unwrap();
        g.add_data_edge(x, s).unwrap();
        g.add_data_edge(y, s).unwrap();
        let model = DynamicBounds::new(KindBounds::unit(), 2);
        assert_eq!(model.bounds(&g, a), DelayInterval::new(1, 1));
        assert_eq!(model.bounds(&g, s), DelayInterval::new(1, 3));
        assert_eq!(model.bounds(&g, x), DelayInterval::fixed(0));
    }
}
