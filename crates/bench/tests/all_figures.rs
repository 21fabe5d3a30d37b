//! Whole-suite golden: `all_figures` stdout is locked byte-for-byte
//! against `golden/all_figures.txt`, which pins every figure at once,
//! including those without a per-figure golden.
//!
//! Only wall-clock readings are masked: fig20's three optimizer timing
//! rows and fig_scale's `cold (ms)`, `warm (us)` and `10k-GPU horizon`
//! lines. A masked line keeps its label, so it must still be printed,
//! in the same place. Regenerate the snapshot with:
//!
//! ```text
//! cargo run --release -p e3-bench --bin all_figures > crates/bench/golden/all_figures.txt
//! ```

use std::process::Command;

/// `(figure, line prefix)` pairs whose remainder is a wall-clock reading.
const MASKED: [(&str, &str); 6] = [
    ("fig20_optimizer_overhead", "ResNet50 "),
    ("fig20_optimizer_overhead", "BERT-BASE "),
    ("fig20_optimizer_overhead", "BERT-LARGE "),
    ("fig_scale", "cold (ms) "),
    ("fig_scale", "warm (us) "),
    ("fig_scale", "  -> 10k-GPU horizon "),
];

/// Replaces each masked line by its prefix and counts the lines masked.
fn mask(stdout: &str) -> (String, usize) {
    let mut figure = "";
    let mut masked = 0;
    let mut out = String::with_capacity(stdout.len());
    for line in stdout.lines() {
        // The suite's own banner, `{:=^78}` around the figure's name;
        // figures print shorter `== table ==` headings of their own.
        if line.len() == 78 && line.starts_with('=') && line.ends_with('=') {
            figure = line.trim_matches('=').trim();
        }
        match MASKED
            .iter()
            .find(|&&(fig, prefix)| fig == figure && line.starts_with(prefix))
        {
            Some(&(_, prefix)) => {
                out.push_str(prefix);
                out.push_str("<wall clock>");
                masked += 1;
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    (out, masked)
}

#[test]
fn all_figures_stdout_matches_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .output()
        .expect("launch all_figures");
    assert!(output.status.success(), "all_figures failed");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");

    let (got, got_masked) = mask(&stdout);
    let (want, want_masked) = mask(include_str!("../golden/all_figures.txt"));
    assert_eq!(want_masked, MASKED.len(), "golden lost a masked line");
    assert_eq!(got_masked, MASKED.len(), "a masked line went missing");
    if got != want {
        let (n, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("", "")));
        panic!(
            "all_figures output drifted from golden/all_figures.txt at line {}:\n  got:  {g:?}\n  want: {w:?}",
            n + 1
        );
    }
}
