//! Extension of §5.6: E3 across *five* EE architectures with genuinely
//! different exit dynamics — entropy (DeeBERT), self-distilled
//! confidence (FastBERT), learned gates (BERxiT), confidence-window
//! voting (ELBERT), and patience counters (PABEE).
//!
//! The paper shows one extra architecture (PABEE, fig. 18); this
//! experiment sweeps the whole taxonomy of its §6 to stress E3's
//! black-box claim: only batch sizes at ramps matter.

fn main() {
    print!("{}", e3_bench::figs::generality_policies_report());
}
