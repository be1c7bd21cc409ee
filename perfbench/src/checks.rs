//! The benchmark's correctness checks, as pure functions over outputs and
//! independently computed references, so each can be tested on doctored
//! inputs (see the tests at the bottom).

use motivo_graph::{Coloring, Graph};
use motivo_store::FileMeta;

/// Largest |z| at which two estimates of one quantity count as agreeing.
pub const Z_MAX: f64 = 5.0;

/// DP check: motivo stores each colorful k-treelet copy once (0-rooting),
/// the CC baseline once per rooting, so `motivo_total × k` must equal the
/// baseline's rooted total exactly.
pub fn dp_totals_match(motivo_total: u128, k: u32, cc_total_rooted: u64) -> bool {
    motivo_total.checked_mul(k as u128) == Some(cc_total_rooted as u128)
}

/// A sampled copy must have `k` distinct vertices, induce a connected
/// subgraph, and be colorful under the urn's coloring. Checked with
/// plain adjacency lookups, not through the sampler's own code.
pub fn copy_is_valid(g: &Graph, coloring: &Coloring, k: u32, verts: &[u32]) -> Result<(), String> {
    if verts.len() != k as usize {
        return Err(format!("{} vertices, want {k}", verts.len()));
    }
    let mut sorted = verts.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("repeated vertex in {verts:?}"));
    }
    let mut colors: Vec<u8> = verts.iter().map(|&v| coloring.color(v)).collect();
    colors.sort_unstable();
    if colors.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("copy {verts:?} is not colorful"));
    }
    let mut reached = vec![false; verts.len()];
    reached[0] = true;
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        for j in 0..verts.len() {
            if !reached[j] && g.has_edge(verts[i], verts[j]) {
                reached[j] = true;
                stack.push(j);
            }
        }
    }
    if reached.iter().all(|&r| r) {
        Ok(())
    } else {
        Err(format!("copy {verts:?} is disconnected"))
    }
}

/// One class's estimate of colorful copies with its variance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub var: f64,
}

impl Estimate {
    /// Uniform-urn estimate `ĉ = (χ/S) · t/σ` from `occ` of `samples`
    /// draws, with binomial variance `(t/σ)² p(1−p)/S`.
    pub fn uniform(occ: u64, samples: u64, t_over_sigma: f64) -> Estimate {
        let p = occ as f64 / samples as f64;
        Estimate {
            value: p * t_over_sigma,
            var: t_over_sigma * t_over_sigma * p * (1.0 - p) / samples as f64,
        }
    }

    /// Importance-weighted estimate `ĉ = c/w` from `occ` hits: Poisson
    /// variance `c/w² = ĉ²/c`.
    pub fn weighted(value: f64, occ: u64) -> Estimate {
        Estimate {
            value,
            var: if occ == 0 {
                0.0
            } else {
                value * value / occ as f64
            },
        }
    }

    #[cfg(test)]
    pub fn scaled(self, f: f64) -> Estimate {
        Estimate {
            value: self.value * f,
            var: self.var * f * f,
        }
    }
}

/// z-score of the difference of two independent estimates (0 when both
/// are exactly equal, e.g. a class neither side saw).
pub fn z_score(a: Estimate, b: Estimate) -> f64 {
    let diff = a.value - b.value;
    if diff == 0.0 {
        return 0.0;
    }
    let sd = (a.var + b.var).sqrt();
    if sd == 0.0 {
        f64::INFINITY
    } else {
        diff.abs() / sd
    }
}

pub fn agree(a: Estimate, b: Estimate) -> bool {
    z_score(a, b) <= Z_MAX
}

/// A served payload must equal the in-process reference byte for byte.
pub fn payload_matches(served: &str, reference: &str) -> bool {
    served.as_bytes() == reference.as_bytes()
}

/// The `ok` payload of a response envelope `{"id":<id>,"ok":<payload>}`,
/// cut out as raw text so byte comparisons see exactly what was served.
pub fn ok_payload(envelope: &str, id: u64) -> Option<&str> {
    envelope
        .strip_prefix(&format!("{{\"id\":{id},\"ok\":"))?
        .strip_suffix('}')
}

/// The per-class `occurrences` of an estimates payload must sum to the
/// samples requested.
pub fn occurrences_sum_to(payload: &serde_json::Value, samples: u64) -> bool {
    let Some(classes) = payload.get("classes").and_then(|c| c.as_array()) else {
        return false;
    };
    let mut sum = 0u64;
    for c in classes {
        match c.get("occurrences").and_then(|o| o.as_u64()) {
            Some(o) => sum += o,
            None => return false,
        }
    }
    sum == samples && payload.get("samples").and_then(|s| s.as_u64()) == Some(samples)
}

/// A caught-up replica holds exactly the leader's files for an urn.
pub fn file_lists_match(leader: &[FileMeta], replica: &[FileMeta]) -> bool {
    !leader.is_empty() && leader == replica
}

/// An out-of-core build must actually have gone out of core.
pub fn spilled_enough(spill_runs: u64) -> bool {
    spill_runs >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use motivo_graph::generators;

    #[test]
    fn dp_total_off_by_one_fails() {
        assert!(dp_totals_match(1000, 5, 5000));
        assert!(!dp_totals_match(1001, 5, 5000));
        assert!(!dp_totals_match(1000, 5, 5001));
    }

    #[test]
    fn copy_with_repeated_vertex_fails() {
        let g = generators::complete_graph(6);
        let coloring = Coloring::fixed(vec![0, 1, 2, 0, 1, 2], 3);
        assert!(copy_is_valid(&g, &coloring, 3, &[0, 1, 2]).is_ok());
        assert!(copy_is_valid(&g, &coloring, 3, &[0, 1, 1]).is_err());
        assert!(copy_is_valid(&g, &coloring, 3, &[0, 1, 3]).is_err()); // not colorful
        assert!(copy_is_valid(&g, &coloring, 3, &[0, 1]).is_err());
        let path = generators::path_graph(6);
        let spread = Coloring::fixed(vec![0, 1, 2, 0, 1, 2], 3);
        assert!(copy_is_valid(&path, &spread, 3, &[0, 1, 5]).is_err()); // disconnected
    }

    #[test]
    fn class_estimate_scaled_by_a_tenth_fails() {
        let a = Estimate::uniform(30_000, 100_000, 1e6);
        let b = Estimate::uniform(30_000, 100_000, 1e6);
        assert!(agree(a, b));
        assert!(!agree(a.scaled(1.1), b));
        let w = Estimate::weighted(3e5, 30_000);
        assert!(agree(w, b));
        assert!(!agree(w.scaled(1.1), b));
    }

    #[test]
    fn flipped_payload_byte_fails() {
        let reference = r#"{"k":5,"samples":10,"classes":[{"occurrences":10}]}"#;
        let envelope = format!("{{\"id\":7,\"ok\":{reference}}}");
        let served = ok_payload(&envelope, 7).expect("envelope shape");
        assert!(payload_matches(served, reference));
        let mut bytes = served.as_bytes().to_vec();
        bytes[12] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("ascii");
        assert!(!payload_matches(&flipped, reference));
        assert!(ok_payload(&envelope, 8).is_none());
        let v: serde_json::Value = serde_json::from_str(reference).expect("json");
        assert!(occurrences_sum_to(&v, 10));
        assert!(!occurrences_sum_to(&v, 11));
    }

    #[test]
    fn replica_missing_a_file_fails() {
        let f = |name: &str, len: u64, crc: u32| FileMeta {
            name: name.into(),
            len,
            crc,
        };
        let leader = vec![f("level-1.mtvt", 10, 1), f("urn.meta", 5, 2)];
        assert!(file_lists_match(&leader, &leader.clone()));
        assert!(!file_lists_match(&leader, &leader[1..]));
        assert!(!file_lists_match(
            &leader,
            &[f("level-1.mtvt", 10, 1), f("urn.meta", 5, 3)]
        ));
        assert!(!file_lists_match(&[], &[]));
    }

    #[test]
    fn too_few_spills_fail() {
        assert!(spilled_enough(2));
        assert!(!spilled_enough(1));
    }
}
