//! The paper's figures are a tested artifact: everything `reproduce all`
//! renders at `Scale::Tiny` must equal `tests/golden/figures_tiny.txt`.
//! When a change moves a figure on purpose, regenerate the file with
//!
//! ```text
//! cargo run --release -p superpin-bench --bin reproduce -- all --scale tiny > tests/golden/figures_tiny.txt
//! ```
//!
//! and say in the change which numbers moved and why. (CI holds
//! `results_medium.txt` to the same rule at `--scale medium`.)

use superpin_bench::render::render_all;
use superpin_workloads::Scale;

const GOLDEN: &str = include_str!("golden/figures_tiny.txt");

#[test]
fn tiny_figures_match_the_golden_file() {
    let rendered = render_all(Scale::Tiny, 2);
    let mut golden = GOLDEN.lines();
    let mut got = rendered.lines();
    for line in 1.. {
        match (golden.next(), got.next()) {
            (None, None) => break,
            (want, have) if want == have => {}
            (want, have) => panic!(
                "figures differ from tests/golden/figures_tiny.txt at line {line}:\n  \
                 golden:   {}\n  rendered: {}",
                want.unwrap_or("<end of file>"),
                have.unwrap_or("<end of output>"),
            ),
        }
    }
    assert_eq!(rendered, GOLDEN, "line endings differ from the golden file");
}
