//! Fig. 23 — impact of error tolerance: sweeping DeeBERT's exit-entropy
//! threshold over {0.3, 0.4, 0.5}. Looser tolerance → earlier exits →
//! more E3 headroom (and more accuracy loss).

fn main() {
    print!("{}", e3_bench::figs::fig23_report());
}
