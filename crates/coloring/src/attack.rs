//! Tampering models for coloring watermarks.
//!
//! Perturbations draw from [`localwm_prng::SplitMix64`] — the toolkit's
//! canonical deterministic stream — so the same seed reproduces the same
//! recoloring byte-for-byte on every platform.

use localwm_prng::SplitMix64;

use crate::{validate_coloring, Coloring, UGraph};

/// Randomly recolors up to `moves` vertices, keeping the coloring proper
/// (each move picks a random vertex and a random color legal for its
/// neighbourhood, within the current palette plus one spare), drawing
/// every choice from `rng`.
///
/// Returns the perturbed coloring and the number of effective recolorings.
///
/// # Panics
///
/// Panics if the input coloring is not proper for `g`.
pub fn perturb_coloring_with(
    g: &UGraph,
    coloring: &Coloring,
    moves: usize,
    rng: &mut SplitMix64,
) -> (Coloring, usize) {
    assert!(
        validate_coloring(g, coloring),
        "perturbation requires a proper coloring"
    );
    let mut colors = coloring.as_slice().to_vec();
    let palette = coloring.color_count() as u32 + 1;
    let n = g.vertex_count();
    let mut applied = 0usize;
    for _ in 0..moves {
        let v = usize::try_from(rng.below(n as u64)).expect("vertex index fits");
        let forbidden: Vec<u32> = g.neighbours(v).iter().map(|&u| colors[u]).collect();
        let legal: Vec<u32> = (0..palette)
            .filter(|c| !forbidden.contains(c) && *c != colors[v])
            .collect();
        if legal.is_empty() {
            continue;
        }
        colors[v] = legal[usize::try_from(rng.below(legal.len() as u64)).expect("color fits")];
        applied += 1;
    }
    let out = Coloring::from_colors(colors);
    debug_assert!(validate_coloring(g, &out));
    (out, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy_coloring, ColoringConfig, ColoringWatermarker};
    use localwm_prng::Signature;

    fn rng(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed)
    }

    #[test]
    fn perturbation_keeps_coloring_proper() {
        let g = UGraph::random(200, 0.05, 3);
        let c = greedy_coloring(&g);
        let (p, applied) = perturb_coloring_with(&g, &c, 100, &mut rng(1));
        assert!(applied > 0);
        assert!(validate_coloring(&g, &p));
    }

    #[test]
    fn heavy_recoloring_erodes_the_mark() {
        let g = UGraph::random(400, 0.03, 9);
        let wm = ColoringWatermarker::new(ColoringConfig::default());
        let sig = Signature::from_author("coloring-victim");
        let emb = wm.embed(&g, &sig).unwrap();
        let light = wm
            .detect(
                &perturb_coloring_with(&g, &emb.coloring, 20, &mut rng(2)).0,
                &g,
                &sig,
            )
            .unwrap();
        let heavy = wm
            .detect(
                &perturb_coloring_with(&g, &emb.coloring, 2000, &mut rng(2)).0,
                &g,
                &sig,
            )
            .unwrap();
        assert!(light.satisfied_fraction() >= heavy.satisfied_fraction());
        // Must-differ constraints survive *most* random recolorings (a
        // random legal color usually still differs), so decay is gradual —
        // exactly the robustness the paper claims for local marks.
        assert!(heavy.satisfied_fraction() > 0.5);
    }

    #[test]
    fn zero_moves_is_identity() {
        let g = UGraph::random(50, 0.1, 4);
        let c = greedy_coloring(&g);
        let (p, applied) = perturb_coloring_with(&g, &c, 0, &mut rng(7));
        assert_eq!(applied, 0);
        assert_eq!(p, c);
    }
}
