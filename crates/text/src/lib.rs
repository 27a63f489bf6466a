//! Text substrate for the CompaReSetS reproduction.
//!
//! The paper's evaluation metric is ROUGE (Lin & Hovy 2003): reviews
//! selected for different items are paired up and scored with ROUGE-1,
//! ROUGE-2, and ROUGE-L F1. The paper's aspect/opinion annotations come
//! from a frequency-based extraction pipeline that it treats as *given*;
//! this crate supplies a faithful, self-contained substitute so the whole
//! system runs end-to-end:
//!
//! * [`mod@tokenize`] — lowercasing word tokenizer and sentence splitter.
//! * [`ngram`] — n-gram multiset counting with clipping support.
//! * [`rouge`] — ROUGE-1 / ROUGE-2 / ROUGE-L precision, recall and F1.
//! * [`lexicon`] — a built-in sentiment lexicon (positive/negative terms).
//! * [`aspect`] — frequency-based aspect & opinion extraction: find
//!   occurrences of aspect vocabulary terms and associate the nearest
//!   sentiment word within a token window, following the spirit of
//!   Hu & Liu (KDD'04) / Gao et al. (AAAI'19) as cited in §4.1.1.

#![warn(missing_docs)]

pub mod aspect;
pub mod lexicon;
pub mod ngram;
pub mod rouge;
pub mod summarize;
pub mod tokenize;

pub use aspect::{AspectExtractor, ExtractedOpinion};
pub use lexicon::{Lexicon, Sentiment};
pub use rouge::{rouge_1, rouge_2, rouge_l, rouge_n, RougeScore};
pub use summarize::{summarize, SummaryConfig};
pub use tokenize::{sentences, tokenize};
