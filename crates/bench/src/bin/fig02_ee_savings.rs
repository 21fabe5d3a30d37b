//! Fig. 2 — early exits bring large compute/latency savings with mild
//! accuracy loss, including atop distilled models (batch size 1).
//!
//! Reproduces the four-variant comparison (BERT, BERT-EE, DistilBERT,
//! DistilBERT-EE) on SST-2 and QNLI: accuracy and average latency
//! normalized to vanilla BERT.

fn main() {
    print!("{}", e3_bench::figs::fig02_report());
}
