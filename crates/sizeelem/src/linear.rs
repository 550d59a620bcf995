//! Linear and semilinear sets over ℕ (§6.3, Lemma 10).
//!
//! A linear set is `{v₀ + Σ kᵢvᵢ | kᵢ ∈ ℕ₀}`; the paper's `SizeElem`
//! pumping lemma produces infinite linear subsets `T ⊆ S_σ` of the size
//! image of a sort. This module provides exact membership (a
//! numerical-semigroup sieve), the arithmetic-progression core of
//! Lemma 10 (intersections of infinite linear sets stay infinite
//! linear), and the bridge from the eventually-periodic
//! [`SizeSet`] representation of `S_σ`.

use ringen_terms::SizeSet;

/// A one-dimensional linear set `{base + Σ kᵢ·periodᵢ}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearSet {
    /// The offset `v₀`.
    pub base: u64,
    /// The period vectors `v₁ … v_l` (zero entries are dropped).
    pub periods: Vec<u64>,
}

impl LinearSet {
    /// Creates a linear set, dropping zero periods.
    pub fn new(base: u64, periods: impl IntoIterator<Item = u64>) -> Self {
        LinearSet {
            base,
            periods: periods.into_iter().filter(|&p| p > 0).collect(),
        }
    }

    /// The arithmetic progression `{base + k·step}` as a linear set.
    pub fn progression(base: u64, step: u64) -> Self {
        LinearSet::new(base, [step])
    }

    /// Whether the set is infinite (has a non-zero period).
    pub fn is_infinite(&self) -> bool {
        !self.periods.is_empty()
    }

    /// Exact membership by a numerical-semigroup sieve: `k ∈ L` iff
    /// `k - base` is a non-negative combination of the periods.
    pub fn contains(&self, k: u64) -> bool {
        if k < self.base {
            return false;
        }
        let target = (k - self.base) as usize;
        let mut reach = vec![false; target + 1];
        reach[0] = true;
        for i in 0..=target {
            if !reach[i] {
                continue;
            }
            for &p in &self.periods {
                let j = i + p as usize;
                if j <= target {
                    reach[j] = true;
                }
            }
        }
        reach[target]
    }

    /// An infinite arithmetic progression contained in the set (base +
    /// multiples of the first period). Returns `None` for finite sets.
    pub fn to_progression(&self) -> Option<(u64, u64)> {
        self.periods.first().map(|&p| (self.base, p))
    }

    /// Lemma 10: the intersection of two infinite linear sets is empty
    /// or infinite linear. This computes an infinite linear *subset* of
    /// the intersection when the sets share a common element (found
    /// within a bounded search window), following the proof: if
    /// `c ∈ A ∩ B` then `c + k·W·V ∈ A ∩ B` for the period sums `W, V`.
    pub fn intersect_infinite(&self, other: &LinearSet) -> Option<LinearSet> {
        if !self.is_infinite() || !other.is_infinite() {
            return None;
        }
        let w: u64 = self.periods.iter().sum();
        let v: u64 = other.periods.iter().sum();
        // Any common element below base_max + W·V works (the intersection
        // of two APs with steps dividing W·V has period dividing W·V).
        let lo = self.base.max(other.base);
        let hi = lo + w * v + 1;
        for c in lo..=hi {
            if self.contains(c) && other.contains(c) {
                return Some(LinearSet::progression(c, w * v));
            }
        }
        None
    }

    /// First members of the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut k = self.base;
        std::iter::from_fn(move || loop {
            if k > self.base + 100_000 {
                return None;
            }
            let cur = k;
            k += 1;
            if self.contains(cur) {
                return Some(cur);
            }
        })
    }
}

/// The minimal eventually-periodic description of a [`SizeSet`]:
/// explicit members below `tail_start`, then residues mod `period`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicSet {
    /// Members below the periodic tail.
    pub prefix: Vec<u64>,
    /// First size of the periodic tail.
    pub tail_start: u64,
    /// Tail period (0 for finite sets).
    pub period: u64,
    /// Residues of the tail, as absolute values mod `period`.
    pub residues: Vec<u64>,
}

impl PeriodicSet {
    /// Re-derives the *minimal* tail start from a [`SizeSet`] by probing
    /// membership (the `SizeSet` representation is conservative about
    /// where its tail begins). For the paper's ADTs the result is tiny:
    /// `Nat` is `{1,2,3,…}`, `Tree` is the odd numbers, etc.
    pub fn from_size_set(set: &SizeSet) -> PeriodicSet {
        const PROBE: u64 = 600;
        let p = set.period();
        if p == 0 || !set.is_infinite() {
            let prefix: Vec<u64> = (0..PROBE).filter(|&k| set.contains(k)).collect();
            return PeriodicSet {
                prefix,
                tail_start: PROBE,
                period: 0,
                residues: Vec::new(),
            };
        }
        // Find the smallest T with membership periodic from T onward
        // (witnessed up to the probe bound). Walking down, every size
        // above `t` has already passed, so only `t` itself is checked.
        let mut tail_start = 0;
        for t in (0..PROBE / 2).rev() {
            if set.contains(t) == set.contains(t + p) {
                tail_start = t;
            } else {
                break;
            }
        }
        let prefix: Vec<u64> = (0..tail_start).filter(|&k| set.contains(k)).collect();
        let residues: Vec<u64> = (tail_start..tail_start + p)
            .filter(|&k| set.contains(k))
            .map(|k| k % p)
            .collect();
        PeriodicSet {
            prefix,
            tail_start,
            period: p,
            residues,
        }
    }

    /// Exact membership.
    pub fn contains(&self, k: u64) -> bool {
        if k < self.tail_start {
            return self.prefix.contains(&k);
        }
        self.period > 0 && self.residues.contains(&(k % self.period))
    }

    /// An infinite linear subset (for one residue), if the set is
    /// infinite — the `T ⊆ S_σ` of Lemma 7.
    pub fn infinite_linear_subset(&self) -> Option<LinearSet> {
        if self.period == 0 || self.residues.is_empty() {
            return None;
        }
        let r = self.residues[0];
        // Smallest tail member with this residue.
        let mut k = self.tail_start;
        while k % self.period != r {
            k += 1;
        }
        Some(LinearSet::progression(k, self.period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_signature, tree_signature};
    use ringen_terms::SizeSet;

    #[test]
    fn membership_sieve() {
        // {3 + 4a + 6b}: 3, 7, 9, 11, 13, 15, … (3 + semigroup⟨4,6⟩).
        let l = LinearSet::new(3, [4, 6]);
        assert!(l.contains(3));
        assert!(!l.contains(4));
        assert!(l.contains(7));
        assert!(l.contains(9));
        assert!(!l.contains(8));
        assert!(l.contains(13));
    }

    #[test]
    fn lemma_10_intersection() {
        // {1 + 2k} ∩ {1 + 3k} ∋ 1, 7, 13, … — infinite linear.
        let a = LinearSet::progression(1, 2);
        let b = LinearSet::progression(1, 3);
        let c = a.intersect_infinite(&b).expect("non-empty intersection");
        assert!(c.is_infinite());
        for m in c.iter().take(5) {
            assert!(a.contains(m) && b.contains(m));
        }
    }

    #[test]
    fn empty_intersection_is_none() {
        // Even vs odd numbers.
        let a = LinearSet::progression(0, 2);
        let b = LinearSet::progression(1, 2);
        assert!(a.intersect_infinite(&b).is_none());
    }

    #[test]
    fn nat_periodic_set_is_all_positives() {
        let (sig, nat, _, _) = nat_signature();
        let ps = PeriodicSet::from_size_set(&SizeSet::of_sort(&sig, nat));
        assert_eq!(ps.period, 1);
        assert!(ps.contains(1) && ps.contains(17) && !ps.contains(0));
        assert!(ps.prefix.is_empty() || ps.prefix == vec![0]);
    }

    #[test]
    fn tree_periodic_set_is_odd() {
        let (sig, tree, _, _) = tree_signature();
        let ps = PeriodicSet::from_size_set(&SizeSet::of_sort(&sig, tree));
        assert_eq!(ps.period, 2);
        assert!(ps.contains(1) && ps.contains(5) && !ps.contains(4));
        let t = ps.infinite_linear_subset().unwrap();
        assert!(t.contains(t.base) && t.is_infinite());
        assert!(t.iter().take(10).all(|k| k % 2 == 1));
    }
}
