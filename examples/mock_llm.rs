//! §4.6.2 — why "just ask an LLM" does not solve comparative review
//! selection: the combinatorial-explosion arithmetic from the paper,
//! computed on a generated corpus.
//!
//! ```text
//! cargo run --release --example mock_llm
//! ```

use comparesets::data::CategoryPreset;

/// log10 of C(n, k) via log-gamma, to avoid overflow.
fn log10_choose(n: u64, k: u64) -> f64 {
    use comparesets::stats::special::ln_gamma;
    if k > n {
        return f64::NEG_INFINITY;
    }
    (ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0))
        / std::f64::consts::LN_10
}

fn main() {
    let dataset = CategoryPreset::Cellphone.config(240, 1).generate();
    let instances = dataset.instances();
    let avg_items = instances
        .iter()
        .map(|i| i.comparatives().len() as f64)
        .sum::<f64>()
        / instances.len() as f64;
    let avg_reviews = dataset
        .products
        .iter()
        .filter(|p| !p.reviews.is_empty())
        .map(|p| p.reviews.len() as f64)
        .sum::<f64>()
        / dataset
            .products
            .iter()
            .filter(|p| !p.reviews.is_empty())
            .count() as f64;

    println!("Corpus averages (Cellphone-style synthetic data):");
    println!("  comparative items per instance: {avg_items:.1}");
    println!("  reviews per item:               {avg_reviews:.1}\n");

    let n_items = avg_items.round() as u64;
    let n_reviews = avg_reviews.round() as u64;
    let m = 3u64;

    // The paper's arithmetic: picking one review per item for pairwise
    // comparison needs ~reviews^items LLM comparisons...
    let single = n_items as f64 * (n_reviews as f64).log10();
    println!(
        "Naive LLM protocol, one review per item: {n_reviews}^{n_items} ≈ 10^{single:.1} comparisons"
    );

    // ...and choosing m-subsets per item explodes to C(reviews, m)^items.
    let subsets = log10_choose(n_reviews, m);
    let total = n_items as f64 * subsets;
    println!(
        "Choosing {m}-review subsets: C({n_reviews},{m})^{n_items} ≈ 10^{total:.1} combinations"
    );

    println!(
        "\nCompaReSetS+ instead solves each instance with \
         O((m^3 + |R|·m)·n) integer regressions — milliseconds per instance \
         (see `comparesets eval --experiments fig7`)."
    );
    println!(
        "\nThe paper also documents LLM hallucination: generated 'reviews' \
         for real products that no user ever wrote (Figure 12). A selection \
         method that only *picks existing reviews* cannot hallucinate —\
         authenticity is structural, not probabilistic."
    );
}
