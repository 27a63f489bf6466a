//! Seeded traffic scripts.
//!
//! Every request and event the daemon sees is generated here from the
//! workload seed and the corpus, before any socket opens. The generator
//! uses its own SplitMix64 stream, so a seed names the same script on
//! every commit that keeps this file.

use comparesets_data::{AspectId, AspectMention, Dataset, Polarity, ProductId};
use comparesets_serve::{IngestEvent, Request};

/// Products the write path (and `live_ingest`'s reads) concentrate on.
pub const HOT_PRODUCTS: usize = 16;
/// Events in the WAL tail a `live_ingest` restart replays.
pub const WAL_TAIL: usize = 128;
/// λ values `live_ingest`'s reads cycle through (1 is the paper's).
const LIVE_LAMBDAS: [f64; 4] = [1.0, 0.5, 2.0, 4.0];
/// `live_ingest`'s writes: with the CLI-default `snapshot_every` of 256
/// and the 128-record tail, one snapshot and compaction falls after
/// write 128, and the next one would fall after write 384.
pub const LIVE_WRITES: usize = 383;
/// The in-memory write phase that follows the reads of `popular` and
/// `long_tail` in each repetition: a third to half a second of acks.
pub const READ_WORKLOAD_WRITES: usize = 720;
/// Set-up plus timed phase, repeated on a fresh daemon; a run reports
/// the median repetition. The host's speed moves on scales from tens of
/// milliseconds to minutes (see README.md), so a run samples it in many
/// short phases: nine of the cheap set-ups, three of `live_ingest`,
/// whose restart and snapshot cost seconds each.
pub const REPETITIONS: usize = 9;
pub const LIVE_REPETITIONS: usize = 3;

/// SplitMix64: tiny, seedable, and stable across toolchains.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_C0DE_2025_0014)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The three traffic mixes (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Popular,
    LongTail,
    LiveIngest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "popular" => Some(Workload::Popular),
            "long_tail" => Some(Workload::LongTail),
            "live_ingest" => Some(Workload::LiveIngest),
            _ => None,
        }
    }
}

/// How much work one repetition does. `for_seconds` sizes the read
/// phases so that all repetitions together take about that long on a
/// 2-vCPU machine today; the sizes, not the clock, bound the run, so
/// every run with one seed repeats the same cache and snapshot sequence.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Products in the Cellphone corpus (120 for the committed fixture).
    pub products: usize,
    pub warmup: usize,
    pub reads: usize,
    pub writes: usize,
    pub tail: usize,
    pub repetitions: usize,
}

impl Sizes {
    pub fn for_seconds(workload: Workload, seconds: u64) -> Sizes {
        let s = seconds as usize;
        let (warmup, reads, writes, tail, repetitions) = match workload {
            Workload::Popular => (
                800,
                1_400 * s / REPETITIONS,
                READ_WORKLOAD_WRITES,
                0,
                REPETITIONS,
            ),
            Workload::LongTail => (
                400,
                900 * s / REPETITIONS,
                READ_WORKLOAD_WRITES,
                0,
                REPETITIONS,
            ),
            Workload::LiveIngest => (
                LIVE_LAMBDAS.len() * HOT_PRODUCTS,
                0,
                LIVE_WRITES,
                WAL_TAIL,
                LIVE_REPETITIONS,
            ),
        };
        Sizes {
            products: 120,
            warmup,
            reads,
            writes,
            tail,
            repetitions,
        }
    }
}

/// One run's traffic. `live_ingest` follows each write with the next of
/// its `reads`, cycling; the other workloads send `reads` once, in order,
/// then the writes.
#[derive(Debug, Clone)]
pub struct Script {
    /// Solves sent during set-up, after connect and before the clock.
    pub warmup: Vec<Request>,
    pub reads: Vec<Request>,
    /// Single-event ingests: `live_ingest`'s writer, or the in-memory
    /// write phase that follows the reads of the other workloads.
    pub writes: Vec<Request>,
    /// Events already in the WAL when `live_ingest` restarts.
    pub tail: Vec<IngestEvent>,
}

const SCHEMES: [&str; 3] = ["binary", "3-polarity", "unary-scale"];

/// Comparison targets in Zipf rank order for this seed.
fn ranked_targets(dataset: &Dataset, rng: &mut Rng) -> Vec<u32> {
    let mut targets: Vec<u32> = dataset
        .instances()
        .iter()
        .map(|inst| inst.target().0)
        .collect();
    rng.shuffle(&mut targets);
    targets
}

/// Reviewed `also_bought` products of `target`, as the daemon derives
/// them (uncapped).
fn comparatives(dataset: &Dataset, target: u32) -> usize {
    dataset
        .product(ProductId(target))
        .also_bought
        .iter()
        .filter(|c| !dataset.reviews_of(**c).is_empty())
        .count()
}

/// Cumulative Zipf weights over `n` ranks, exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// `popular`: a Zipf(1.1) draw over every instance at the paper's
/// defaults, where one request in four is a near-repeat that changes
/// only λ, μ or the sweep count.
fn popular(dataset: &Dataset, rng: &mut Rng, n: usize) -> Vec<Request> {
    let ranked = ranked_targets(dataset, rng);
    let cdf = zipf_cdf(ranked.len(), 1.1);
    (0..n)
        .map(|_| {
            let mut req = Request::solve(ranked[draw(&cdf, rng)]);
            if rng.unit() < 0.25 {
                match rng.below(6) {
                    0 => req.lambda = Some(0.5),
                    1 => req.lambda = Some(2.0),
                    2 => req.mu = Some(0.05),
                    3 => req.mu = Some(0.2),
                    4 => req.sweeps = Some(2),
                    _ => req.sweeps = Some(3),
                }
            }
            req
        })
        .collect()
}

/// `long_tail`: distinct (target, max_comparatives, m, scheme) queries in
/// a seeded order. `max_comparatives` only ranges up to the target's
/// comparative count, so no two queries resolve to one item set.
fn long_tail(dataset: &Dataset, rng: &mut Rng) -> Vec<Request> {
    let mut all = Vec::new();
    for target in ranked_targets(dataset, rng) {
        for mc in 1..=comparatives(dataset, target).min(12) {
            for m in 2..=5 {
                for scheme in SCHEMES {
                    all.push(Request {
                        max_comparatives: Some(mc),
                        m: Some(m),
                        sweeps: Some(1),
                        scheme: Some(scheme.to_string()),
                        ..Request::solve(target)
                    });
                }
            }
        }
    }
    rng.shuffle(&mut all);
    all
}

/// Aspect mentions for a written review: one to four distinct aspects.
fn mentions(dataset: &Dataset, rng: &mut Rng) -> Vec<AspectMention> {
    let z = dataset.num_aspects();
    let want = 1 + rng.below(4);
    let mut aspects: Vec<u32> = Vec::new();
    while aspects.len() < want {
        let a = rng.below(z) as u32;
        if !aspects.contains(&a) {
            aspects.push(a);
        }
    }
    aspects
        .into_iter()
        .map(|a| AspectMention {
            aspect: AspectId(a),
            polarity: match rng.below(5) {
                0 => Polarity::Neutral,
                1 | 2 => Polarity::Negative,
                _ => Polarity::Positive,
            },
        })
        .collect()
}

/// A stream of review events on `hot`: 70% adds, 20% edits, 10% deletes,
/// all with mentions. Edits and deletes pick a review the product lists
/// at that point, tracked on a local copy of the listings; a delete never
/// removes a product's last review. A `stationary` stream is edits only,
/// so the corpus, and with it the cost of every staging clone, keeps its
/// size for the whole phase.
fn events(
    dataset: &Dataset,
    hot: &[u32],
    rng: &mut Rng,
    n: usize,
    stationary: bool,
) -> Vec<IngestEvent> {
    let mut listed: Vec<Vec<u32>> = dataset
        .products
        .iter()
        .map(|p| p.reviews.iter().map(|r| r.0).collect())
        .collect();
    let mut next_review = dataset.reviews.len() as u32;
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let product = hot[rng.below(hot.len())];
        let reviews = &mut listed[product as usize];
        let roll = if stationary { 7 } else { rng.below(10) };
        let event = if roll < 7 || reviews.len() <= 1 {
            reviews.push(next_review);
            next_review += 1;
            IngestEvent {
                rating: Some(1 + rng.below(5) as u8),
                text: Some(format!("bench review {k}")),
                ..IngestEvent::add(product, mentions(dataset, rng))
            }
        } else {
            let review = reviews[rng.below(reviews.len())];
            if roll < 9 {
                IngestEvent {
                    rating: Some(1 + rng.below(5) as u8),
                    ..IngestEvent::edit(product, review, mentions(dataset, rng))
                }
            } else {
                reviews.retain(|&r| r != review);
                IngestEvent::delete(product, review)
            }
        };
        out.push(event);
    }
    out
}

impl Script {
    /// Generate one run's script. `dataset` is the corpus the daemon
    /// starts from (before `live_ingest`'s WAL tail).
    pub fn generate(workload: Workload, seed: u64, dataset: &Dataset, sizes: &Sizes) -> Script {
        let mut rng = Rng::new(seed);
        // The hot set is the head of this seed's Zipf ranking in every
        // workload, so `live_ingest` writes where `popular` reads most.
        let hot: Vec<u32> = ranked_targets(dataset, &mut Rng::new(seed))
            .into_iter()
            .take(HOT_PRODUCTS)
            .collect();
        let (warmup, reads) = match workload {
            Workload::Popular => {
                let mut all = popular(dataset, &mut rng, sizes.warmup + sizes.reads);
                let reads = all.split_off(sizes.warmup);
                (all, reads)
            }
            Workload::LongTail => {
                let mut all = long_tail(dataset, &mut rng);
                assert!(
                    all.len() >= sizes.warmup + sizes.reads,
                    "long_tail has {} distinct queries, the run asks for {}",
                    all.len(),
                    sizes.warmup + sizes.reads
                );
                all.truncate(sizes.warmup + sizes.reads);
                let reads = all.split_off(sizes.warmup);
                (all, reads)
            }
            Workload::LiveIngest => {
                // The reads sweep the hot products once per λ. A query
                // comes round again only after 64 writes, which have
                // almost surely invalidated it, so the reads measure
                // solves against a changing corpus, not cache hits.
                let reads: Vec<Request> = LIVE_LAMBDAS
                    .iter()
                    .flat_map(|&lambda| {
                        hot.iter().map(move |&t| Request {
                            lambda: Some(lambda),
                            ..Request::solve(t)
                        })
                    })
                    .collect();
                let warmup = reads.iter().cycle().take(sizes.warmup).cloned().collect();
                (warmup, reads)
            }
        };
        // `live_ingest` writes like a live product page (mostly new
        // reviews); the in-memory phases of the read workloads edit in
        // place, so their ack times do not drift as the corpus grows.
        let stationary = workload != Workload::LiveIngest;
        let mut stream = events(
            dataset,
            &hot,
            &mut rng,
            sizes.tail + sizes.writes,
            stationary,
        );
        let writes = stream
            .split_off(sizes.tail)
            .into_iter()
            .map(|ev| Request::ingest(vec![ev]))
            .collect();
        Script {
            warmup,
            reads,
            writes,
            tail: stream,
        }
    }
}
