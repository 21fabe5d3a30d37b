//! Fig. 17 — latency quartiles (min / p25 / median / p75 / max) under
//! SLO, homogeneous and heterogeneous clusters, 50:50 mix, batch 8.
//!
//! E3's counter-intuitive result: despite split execution, it attains
//! the lowest min/median/quartiles — only hard inputs pay the full path,
//! which lands in the tail.

fn main() {
    print!("{}", e3_bench::figs::fig17_report());
}
