//! Rendezvous (highest-random-weight) hashing.
//!
//! Every `(shard key, backend name)` pair gets a deterministic score;
//! a key's backends are ranked by descending score. The property that
//! matters operationally: **membership changes are minimal**. Removing a
//! backend only remaps the keys that ranked it first (they fall through to
//! their second-ranked backend, which was already their failover target);
//! adding one only claims the keys on which the newcomer scores highest.
//! There is no ring to rebalance and no token table to persist — the
//! ranking is a pure function of the key and the backend *names*, so it is
//! stable across gateway restarts and independent of backend addresses
//! (which may change when a backend is restarted elsewhere).

/// FNV-1a over raw bytes: the store's hash, which the serve cache also
/// keys its text aliases by.
pub use localwm_store::segment::fnv1a;

/// One SplitMix64 draw: decorrelates the combined key/backend hash so
/// neighboring keys don't produce correlated rankings.
fn mix(z: u64) -> u64 {
    localwm_prng::SplitMix64::new(z).next_u64()
}

/// The HRW score of `backend` for `key`. Higher wins.
pub fn score(key: u64, backend: &str) -> u64 {
    mix(key ^ fnv1a(backend.as_bytes()).rotate_left(32))
}

/// Backend indices ranked for `key`: highest score first, ties broken by
/// name so the ranking is total and platform-independent.
pub fn rank(key: u64, names: &[String]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| {
        score(key, &names[b])
            .cmp(&score(key, &names[a]))
            .then_with(|| names[a].cmp(&names[b]))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("backend-{i}")).collect()
    }

    #[test]
    fn ranking_is_deterministic_and_total() {
        let ns = names(5);
        for key in 0..64u64 {
            let a = rank(key, &ns);
            let b = rank(key, &ns);
            assert_eq!(a, b);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>(), "a permutation");
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        let full = names(4);
        // Drop backend-2; survivors keep their names.
        let reduced: Vec<String> = full.iter().filter(|n| *n != "backend-2").cloned().collect();
        let mut moved = 0;
        for key in 0..512u64 {
            let before = rank(key, &full);
            let after = rank(key, &reduced);
            let before_primary = &full[before[0]];
            let after_primary = &reduced[after[0]];
            if before_primary == "backend-2" {
                moved += 1;
                // Keys that lose their primary fall through to their old
                // second choice — exactly the failover target.
                assert_eq!(after_primary, &full[before[1]]);
            } else {
                assert_eq!(before_primary, after_primary, "key {key} moved needlessly");
            }
        }
        assert!(moved > 0, "some keys must have mapped to the removed node");
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let ns = names(4);
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[rank(mix(key), &ns)[0]] += 1;
        }
        for &c in &counts {
            assert!(
                (600..=1400).contains(&c),
                "primary counts badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn score_depends_on_both_key_and_backend() {
        assert_ne!(score(1, "a"), score(2, "a"));
        assert_ne!(score(1, "a"), score(1, "b"));
    }
}
