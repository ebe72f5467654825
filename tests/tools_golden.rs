//! Every tool of the `-t` table renders its own result, the same way
//! under serial Pin and SuperPin: `tests/golden/superpin_tools_gcc_tiny.txt`
//! holds the `superpin` CLI's stdout for each tool and `-sp 0|1` on
//! `gcc tiny`, one block per run headed `== -sp S -t T`, and each block
//! must end with what the tool renders here through the table. CI
//! regenerates the whole file from the binary and diffs it:
//!
//! ```text
//! for tool in icount1 icount2 dcache dcache-assoc icache bblcount insmix itrace branch mem sampler; do
//!   for sp in 0 1; do
//!     [ "$tool:$sp" = "sampler:0" ] && continue
//!     echo "== -sp $sp -t $tool"
//!     target/release/superpin -sp "$sp" -t "$tool" -- gcc tiny
//!   done
//! done
//! ```

use superpin_replay::RunRecipe;
use superpin_tools::{lookup, tool_names};
use superpin_workloads::Scale;

const GOLDEN: &str = include_str!("golden/superpin_tools_gcc_tiny.txt");

/// The golden block headed `== -sp {sp} -t {tool}`.
fn block(sp: u8, tool: &str) -> &'static str {
    let header = format!("== -sp {sp} -t {tool}\n");
    let start = GOLDEN
        .find(&header)
        .unwrap_or_else(|| panic!("no `{}` block in the golden file", header.trim_end()))
        + header.len();
    let len = GOLDEN[start..]
        .find("== -sp ")
        .unwrap_or(GOLDEN.len() - start);
    &GOLDEN[start..start + len]
}

#[test]
fn every_tool_renders_its_golden_result_under_pin_and_superpin() {
    let mut blocks = 0;
    for name in tool_names() {
        // The `superpin` CLI's recipe: a 1000 ms timeslice.
        let recipe = RunRecipe {
            tool: name.to_owned(),
            spmsec: 1000,
            ..RunRecipe::standard("gcc", Scale::Tiny)
        };
        let program = recipe.program().expect("gcc is in the catalog");
        for sp in [0, 1] {
            let tool = lookup(name).expect("a table name resolves");
            if sp == 0 {
                if !tool.has_pin_mode() {
                    continue;
                }
                tool.pin(&program).expect("serial pin run");
            } else {
                let mut runner = tool.runner(&recipe, 1, false).expect("runner");
                runner.run_to_end().expect("superpin run");
            }
            let rendered = tool.render(&program);
            assert!(!rendered.is_empty(), "-sp {sp} -t {name} rendered nothing");
            let golden = block(sp, name);
            assert!(
                golden.ends_with(&rendered),
                "-sp {sp} -t {name}: rendered\n{rendered}but the golden block is\n{golden}"
            );
            blocks += 1;
        }
    }
    assert_eq!(blocks, GOLDEN.matches("== -sp ").count());
}
