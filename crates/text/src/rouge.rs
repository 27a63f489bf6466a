//! ROUGE-1, ROUGE-2, and ROUGE-L (Lin & Hovy 2003; Lin 2004).
//!
//! §4.1.3 of the paper: "we measure the similarity between each pair of
//! reviews (two reviews coming from different items) and report the average
//! score … we report F1-score of ROUGE-1 (unigrams), ROUGE-2 (bigrams), and
//! ROUGE-L (longest common subsequence)". Paper tables report scores ×100
//! (e.g. R-1 ≈ 16); this module returns raw [0, 1] scores and the harness
//! scales for display.

use crate::ngram::NgramCounts;
use crate::tokenize::tokenize;

/// Precision / recall / F1 triple of one ROUGE measurement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RougeScore {
    /// Fraction of candidate units matched in the reference.
    pub precision: f64,
    /// Fraction of reference units matched in the candidate.
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f1: f64,
}

impl RougeScore {
    /// Build from match counts.
    fn from_counts(matches: usize, candidate_total: usize, reference_total: usize) -> Self {
        let precision = if candidate_total == 0 {
            0.0
        } else {
            matches as f64 / candidate_total as f64
        };
        let recall = if reference_total == 0 {
            0.0
        } else {
            matches as f64 / reference_total as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        RougeScore {
            precision,
            recall,
            f1,
        }
    }
}

/// ROUGE-N between a candidate and a reference text.
///
/// Both texts are tokenized with [`tokenize`]; matching uses clipped
/// n-gram counts. `n` must be ≥ 1.
pub fn rouge_n(candidate: &str, reference: &str, n: usize) -> RougeScore {
    let cand = tokenize(candidate);
    let refr = tokenize(reference);
    rouge_n_tokens(&cand, &refr, n)
}

/// ROUGE-N over pre-tokenized input.
pub fn rouge_n_tokens(candidate: &[String], reference: &[String], n: usize) -> RougeScore {
    let c = NgramCounts::from_tokens(candidate, n);
    let r = NgramCounts::from_tokens(reference, n);
    let matches = c.clipped_overlap(&r);
    RougeScore::from_counts(matches, c.total(), r.total())
}

/// ROUGE-1 (unigrams).
pub fn rouge_1(candidate: &str, reference: &str) -> RougeScore {
    rouge_n(candidate, reference, 1)
}

/// ROUGE-2 (bigrams).
pub fn rouge_2(candidate: &str, reference: &str) -> RougeScore {
    rouge_n(candidate, reference, 2)
}

/// Length of the longest common subsequence of two token slices.
///
/// Classic O(|a|·|b|) dynamic program with a two-row table.
pub fn lcs_length(a: &[String], b: &[String]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Keep the shorter sequence as the inner dimension.
    let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut prev = vec![0usize; inner.len() + 1];
    let mut curr = vec![0usize; inner.len() + 1];
    for x in outer {
        for (j, y) in inner.iter().enumerate() {
            curr[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[inner.len()]
}

/// ROUGE-L: precision/recall/F1 based on the LCS of the token sequences.
pub fn rouge_l(candidate: &str, reference: &str) -> RougeScore {
    let cand = tokenize(candidate);
    let refr = tokenize(reference);
    rouge_l_tokens(&cand, &refr)
}

/// ROUGE-L over pre-tokenized input.
pub fn rouge_l_tokens(candidate: &[String], reference: &[String]) -> RougeScore {
    let lcs = lcs_length(candidate, reference);
    RougeScore::from_counts(lcs, candidate.len(), reference.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_score_one() {
        let t = "the camera has a great lens and battery";
        for s in [rouge_1(t, t), rouge_2(t, t), rouge_l(t, t)] {
            assert!((s.precision - 1.0).abs() < 1e-12);
            assert!((s.recall - 1.0).abs() < 1e-12);
            assert!((s.f1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_texts_score_zero() {
        let s = rouge_1("alpha beta", "gamma delta");
        assert_eq!(s.f1, 0.0);
        assert_eq!(rouge_2("alpha beta", "gamma delta").f1, 0.0);
        assert_eq!(rouge_l("alpha beta", "gamma delta").f1, 0.0);
    }

    #[test]
    fn rouge_1_hand_computed() {
        // cand: police killed the gunman (4 tokens)
        // ref:  the gunman was killed by police (6 tokens)
        // overlap unigrams: police, killed, the, gunman → 4
        let s = rouge_1(
            "police killed the gunman",
            "the gunman was killed by police",
        );
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 4.0 / 6.0).abs() < 1e-12);
        let f1 = 2.0 * 1.0 * (4.0 / 6.0) / (1.0 + 4.0 / 6.0);
        assert!((s.f1 - f1).abs() < 1e-12);
    }

    #[test]
    fn rouge_2_hand_computed() {
        // cand bigrams: (police killed)(killed the)(the gunman)
        // ref bigrams:  (the gunman)(gunman was)(was killed)(killed by)(by police)
        // overlap: (the gunman) → 1
        let s = rouge_2(
            "police killed the gunman",
            "the gunman was killed by police",
        );
        assert!((s.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn rouge_l_classic_example() {
        // Lin (2004): ref "police killed the gunman",
        // cand1 "police kill the gunman" → LCS 3.
        let s = rouge_l("police kill the gunman", "police killed the gunman");
        assert!((s.precision - 0.75).abs() < 1e-12);
        assert!((s.recall - 0.75).abs() < 1e-12);
        // cand2 "the gunman kill police" → LCS 2 ("the gunman").
        let s2 = rouge_l("the gunman kill police", "police killed the gunman");
        assert!((s2.precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lcs_respects_order_not_contiguity() {
        let a: Vec<String> = ["a", "x", "b", "y", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let b: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(lcs_length(&a, &b), 3);
        assert_eq!(lcs_length(&b, &a), 3);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(rouge_1("", "something").f1, 0.0);
        assert_eq!(rouge_1("something", "").f1, 0.0);
        assert_eq!(rouge_l("", "").f1, 0.0);
        assert_eq!(lcs_length(&[], &[]), 0);
    }

    #[test]
    fn clipping_limits_repeated_tokens() {
        // cand repeats "good" 4 times, ref has it twice → matches clipped to 2.
        let s = rouge_1("good good good good", "good good product");
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scores_are_case_insensitive() {
        let a = rouge_1("Great Battery", "great battery");
        assert!((a.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rouge_l_symmetric_in_f1() {
        let x = "the quick brown fox jumps";
        let y = "a quick fox leaps over";
        let s1 = rouge_l(x, y);
        let s2 = rouge_l(y, x);
        assert!((s1.f1 - s2.f1).abs() < 1e-12);
        assert!((s1.precision - s2.recall).abs() < 1e-12);
    }
}
