//! Fig. 25 — relaxing E3's assumptions: granting E3 the exit-wrapper
//! (§3.4) lets it disable ramps that are not useful, avoiding their
//! checking overheads (paper: 7–16% goodput improvement).

fn main() {
    print!("{}", e3_bench::figs::fig25_report());
}
