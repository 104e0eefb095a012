//! Nested-swapping cost — the swap-overhead denominator.
//!
//! The paper (§5) scores its distributed algorithm against the minimum number
//! of swaps a planned-path approach would need, where each consumption event
//! is charged the cost of *nested swapping* along the shortest generation-
//! graph path. With all distillation overheads equal to `D`, that cost is
//!
//! ```text
//! s(1) = 0,   s(2) = D,   s(n) = D · ( s(⌊n/2⌋) + s(⌈n/2⌉) )   for n > 2.
//! ```
//!
//! This module implements that recursion exactly as the paper states it.
//! The count an executing simulator actually performs also charges the
//! top-level joining swaps (`s'(n) = D·(s'(⌊n/2⌋) + s'(⌈n/2⌉)) + D`); that
//! is [`crate::planned::planned_path_swap_cost`] at `⌈D⌉`.

/// The paper's nested swapping cost `s(n)` for an `n`-hop shortest path and
/// uniform distillation overhead `d`.
///
/// # Panics
/// Panics if `n == 0` (a consumption event between co-located endpoints is
/// excluded by the paper's `c(x, x) = 0` assumption) or if `d < 1`.
pub fn nested_swap_cost(n: usize, d: f64) -> f64 {
    assert!(n >= 1, "path length must be at least one hop");
    assert!(d >= 1.0, "distillation overhead must be ≥ 1");
    match n {
        1 => 0.0,
        2 => d,
        _ => d * (nested_swap_cost(n / 2, d) + nested_swap_cost(n.div_ceil(2), d)),
    }
}

/// The denominator of the swap-overhead metric: `Σ_c s(ℓ(c))` over the
/// satisfied consumption events' shortest-path hop counts.
pub fn overhead_denominator(path_lengths: &[usize], d: f64) -> f64 {
    path_lengths.iter().map(|&n| nested_swap_cost(n, d)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_cases() {
        assert_eq!(nested_swap_cost(1, 1.0), 0.0);
        assert_eq!(nested_swap_cost(2, 1.0), 1.0);
        assert_eq!(nested_swap_cost(1, 3.0), 0.0);
        assert_eq!(nested_swap_cost(2, 3.0), 3.0);
    }

    #[test]
    fn small_path_lengths_match_hand_computation() {
        // s(3) = D·(s(1) + s(2)) = D².
        assert_eq!(nested_swap_cost(3, 2.0), 4.0);
        // s(4) = D·(s(2) + s(2)) = 2D².
        assert_eq!(nested_swap_cost(4, 2.0), 8.0);
        // s(5) = D·(s(2) + s(3)) = D·(D + D²) = D² + D³.
        assert_eq!(nested_swap_cost(5, 2.0), 12.0);
        // s(8) = D·(2·s(4)) = 4D³.
        assert_eq!(nested_swap_cost(8, 2.0), 32.0);
    }

    #[test]
    fn unit_distillation_costs_grow_sublinearly() {
        // With D = 1 the paper's recursion gives s(n) ≈ n/2 (it charges only
        // the lower levels), so it is a *lower bound* on executed swaps.
        assert_eq!(nested_swap_cost(4, 1.0), 2.0);
        assert_eq!(nested_swap_cost(8, 1.0), 4.0);
        assert_eq!(nested_swap_cost(6, 1.0), 2.0);
        assert_eq!(nested_swap_cost(7, 1.0), 3.0);
    }

    #[test]
    fn cost_is_monotone_in_d_and_n() {
        for n in 2..12 {
            assert!(nested_swap_cost(n, 2.0) > nested_swap_cost(n, 1.0));
            assert!(nested_swap_cost(n, 3.0) > nested_swap_cost(n, 2.0));
        }
        for d in [1.0, 2.0, 4.0] {
            for n in 2..12 {
                assert!(nested_swap_cost(n + 1, d) >= nested_swap_cost(n, d));
            }
        }
    }

    #[test]
    fn exponential_growth_in_d_for_fixed_depth() {
        // For an 8-hop path the cost is 4D³: doubling D multiplies it by 8.
        let at1 = nested_swap_cost(8, 1.0);
        let at2 = nested_swap_cost(8, 2.0);
        let at4 = nested_swap_cost(8, 4.0);
        assert_eq!(at2 / at1, 8.0);
        assert_eq!(at4 / at2, 8.0);
    }

    #[test]
    fn denominator_sums_costs() {
        let lengths = [1, 2, 4];
        assert_eq!(overhead_denominator(&lengths, 1.0), 0.0 + 1.0 + 2.0);
        assert_eq!(overhead_denominator(&lengths, 2.0), 0.0 + 2.0 + 8.0);
        assert_eq!(overhead_denominator(&[], 2.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_hop_path_panics() {
        let _ = nested_swap_cost(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn sub_unit_distillation_panics() {
        let _ = nested_swap_cost(4, 0.5);
    }
}
